"""One workload in a fresh, single-threaded process.

Started by run.py, never imported.  Imports synorres from the checkout's
src/, builds the inputs from the seed, then runs the job list pass after
pass for the time budget (one pass when traced), checking every output.
The result is one JSON object on the last line of stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --launched T [--setup-only]

T is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes on the machine), so setup_s
covers interpreter start, imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"


def import_synorres():
    sys.path.insert(0, str(ROOT / "src"))
    import synorres
    import synorres.cli  # noqa: F401  (the CLI jobs call synorres.cli.main)
    where = Path(synorres.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"synorres imported from {where}, not this checkout")
    return synorres


def run_pass(jobs, tracer=None):
    """Run every job once; returns one dict per job with its wall and
    process CPU seconds and the problems found in its output."""
    out = []
    for number, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = number
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            text = job.run()
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            problems = job.problems(text)
        except Exception as exc:  # a failed job is counted, not fatal
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            problems = [f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(limit=3)]
        out.append({"job": job.name, "group": job.group, "wall_s": wall,
                    "cpu_s": cpu, "problems": problems})
    if tracer is not None:
        tracer.job = -1
    return out


def write_spans(tracer, path: Path):
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        fh.write("name,start,end,parent,job\n")
        for name, start, end, parent, job in tracer.spans():
            fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if "SYNOR_THREADS" in os.environ:
        raise SystemExit("SYNOR_THREADS must be unset")

    synorres = import_synorres()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(synorres, args.seed)
    jobs = workload.jobs(synorres, inputs)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer, find_wrappers
    tracer = None
    if args.trace:
        import layers
        tracer = Tracer("synorres", layers.probes())
        tracer.install()
    else:
        left = find_wrappers("synorres")
        if left:
            raise RuntimeError("untraced run found wrappers: " + ", ".join(left))

    passes = []
    budget_start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, tracer))
        if tracer is not None:
            break
        spent = time.perf_counter() - budget_start
        last = sum(job["wall_s"] for job in passes[-1])
        if spent + last > args.seconds:
            break

    if threading.active_count() != 1:
        raise RuntimeError(f"{threading.active_count()} threads; the run "
                           "must stay single-threaded")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "synorres_file": str(Path(synorres.__file__).resolve().relative_to(ROOT)),
        "numpy": __import__("numpy").__version__,
    }
    if "generic" in inputs:
        result["generic_ideal"] = inputs["generic"]
    if tracer is not None:
        import layers
        tracer.uninstall()
        result["layers"] = {**tracer.metrics(), **layers.counter_metrics(tracer)}
        result["ratio_bases"] = layers.ratio_bases(tracer)
        result["patches"] = tracer.patch_count
        result["spans"] = len(tracer.span_name)
        spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.csv"
        write_spans(tracer, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
