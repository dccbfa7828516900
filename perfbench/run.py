"""The synorres benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, every metric

Each workload runs in a fresh single-threaded worker process that imports
synorres from this checkout's src/.  --trace 0 measures the end-to-end
metrics; --trace 1 runs one untraced and one traced pass, each in its own
process, and reports the per-layer metrics (spans installed around calls
into synorres from the benchmark's own files, see layers.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The metrics are those BENCHMARK.json names
for the trace mode; the lines before it print every metric, including the
workload's own job-group times and failed_share, by name with its unit,
and a `record:` line with the full run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5          # extra set-up-only processes per run
WORKER_TIMEOUT = 170       # seconds; a run must end within 180
UNITS = {"peak_rss_mib": "MiB", "failed_share": "ratio"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def preflight():
    if "SYNOR_THREADS" in os.environ:
        raise SystemExit("refusing to run: SYNOR_THREADS is set; the "
                         "benchmark measures the single-threaded default")
    if not (ROOT / "src" / "synorres" / "__init__.py").is_file():
        raise SystemExit(f"no synorres sources under {ROOT / 'src'}")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONDONTWRITEBYTECODE": "1"})
    return env


def spawn(workload, seed, seconds, trace, setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), text=True,
                          capture_output=True, timeout=WORKER_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(lines[-1])


def git_sha():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(worker: dict) -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "git_sha": git_sha(),
        "synorres_file": worker["synorres_file"],
        "SYNOR_THREADS": os.environ.get("SYNOR_THREADS"),
    }


def summarize(worker: dict, groups) -> dict:
    """Per-pass sums of wall and CPU seconds, then medians over passes.
    A group metric `<g>_s` has its CPU twin `<g>_cpu_s`."""
    passes = worker["passes"]
    jobs = [job for one in passes for job in one]
    failed = sum(1 for job in jobs if job["problems"])

    def median_sum(clock, group=None):
        return statistics.median(
            sum(j[clock] for j in one if group is None or j["group"] == group)
            for one in passes)

    out = {"run_s": median_sum("wall_s"), "run_cpu_s": median_sum("cpu_s"),
           "peak_rss_mib": worker["peak_rss_mib"],
           "failed_share": failed / len(jobs)}
    for group in groups:
        out[group] = median_sum("wall_s", group)
        out[group[:-2] + "_cpu_s"] = median_sum("cpu_s", group)
    return {"metrics": out, "attempted": len(jobs), "failed": failed,
            "problems": sorted({f"{j['job']}: {p}" for j in jobs
                                for p in j["problems"]})}


def run_workload(name, why, seed, seconds, trace) -> dict:
    workload = workloads.WORKLOADS[name]
    setups = [spawn(name, seed, 0, 0, setup_only=True)["setup_s"]
              for _ in range(0 if trace else SETUP_SAMPLES)]
    if trace:
        plain = spawn(name, seed, 0, 0)
        traced = spawn(name, seed, 0, 1)
        base, tsum = summarize(plain, workload.groups), summarize(traced, workload.groups)
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (tsum["metrics"]["run_cpu_s"]
                                          / base["metrics"]["run_cpu_s"])
        summary = {"attempted": base["attempted"] + tsum["attempted"],
                   "failed": base["failed"] + tsum["failed"],
                   "problems": base["problems"] + tsum["problems"],
                   "metrics": tsum["metrics"], "untraced": base["metrics"]}
        worker = traced
        record_extra = {"layers": layers, "ratio_bases": traced["ratio_bases"],
                        "spans": traced["spans"], "patches": traced["patches"],
                        "spans_file": traced["spans_file"]}
    else:
        worker = spawn(name, seed, seconds, 0)
        summary = summarize(worker, workload.groups)
        layers = None
        record_extra = {"passes": worker["passes"]}
    setups.append(worker["setup_s"])
    summary["metrics"]["setup_s"] = statistics.median(setups)
    record = {"workload": name, "seed": seed, "trace": trace,
              "why": why, "stresses": workload.stresses,
              "bypasses": workload.bypasses,
              "metrics": summary["metrics"], "setup_samples": setups,
              "attempted": summary["attempted"], "failed": summary["failed"],
              "problems": summary["problems"],
              "environment": environment(worker), **record_extra}
    if "untraced" in summary:
        record["untraced"] = summary["untraced"]
    if "generic_ideal" in worker:
        record["generic_ideal"] = worker["generic_ideal"]
    return {"record": record, "layers": layers, **summary}


def unit_of(name: str, declared: dict) -> str:
    if name in declared:
        return declared[name]
    return UNITS.get(name, "s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    preflight()
    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    known = {w["name"]: w["why"] for w in bench["workloads"]}
    names = list(known) if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        raise SystemExit(f"unknown workload {args.workload}; one of {list(known)}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in wanted}

    results = {n: run_workload(n, known[n], args.seed, seconds, args.trace)
               for n in names}
    final = {}
    for name, res in results.items():
        shown = res["layers"] if args.trace else res["metrics"]
        for metric, value in shown.items():
            print(f"{name:15s} {metric:42s} {value:14.6g} "
                  f"{unit_of(metric, declared)}")
        for problem in res["problems"]:
            print(f"{name:15s} FAILED {problem.splitlines()[0]}")
        print("record: " + json.dumps(res["record"], sort_keys=True))
        prefix = "" if len(names) == 1 else name + "."
        for m in wanted:
            final[prefix + m["name"]] = {"value": shown[m["name"]],
                                         "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
