"""Measure the baseline record and check the benchmark's own steadiness.

    python3 perfbench/record.py [--runs 10] [--out perfbench/baseline.json]

Runs every workload --runs times untraced, each run with its own seed and
the workload order rotated between rounds, then each workload twice
traced with the default seed.  Writes, per workload: the why-sentence,
the layers it stresses and bypasses, the default seed's generic ideal,
median and quartiles of every end-to-end metric with its unit, the spread
(quartile distance over median) against the bound BENCHMARK.json sets,
and the traced per-layer numbers with the bases of every ratio.  Counts
and ratios of the two traced runs must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n"
                           + proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record: "))[8:])
    return json.loads(lines[-1]), record


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def is_count(name: str) -> bool:
    return not (name.endswith(".s") or name.endswith(".self_s")
                or name == "trace.overhead_ratio")


def design_split(name: str, traced: dict) -> dict:
    """The split each workload was chosen for, checked on a traced run."""
    layers, run_s = traced["layers"], traced["metrics"]["run_s"]
    if name == "resolve-ladder":
        return {"no_order_complex_homology": layers["chains.homology.calls"] == 0,
                "no_verify": all(v == 0 for k, v in layers.items()
                                 if k.startswith("verify.") and k.endswith(".calls")),
                "no_shuffle": layers["shuffle.shuffle_product.calls"] == 0}
    if name == "cli-example":
        return {"interval_witness_over_half":
                layers["verify.interval_witness.s"] > run_s / 2}
    if name == "lattice-sweep":
        return {"enumeration_over_half":
                layers["poset.enumerate_lattices.s"] > run_s / 2}
    return {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    runs: dict = {n: [] for n in names}
    for r in range(args.runs):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            seed = DEFAULT_SEED + r
            result, record = bench(name, seed, 0)
            runs[name].append((result, record))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4f}" for k, v in record["metrics"].items()),
                flush=True)

    out = {"environment": runs[names[0]][0][1]["environment"],
           "run_seconds": spec["run_seconds"], "runs": args.runs,
           "workloads": {}}
    ok = True
    for name in names:
        records = [rec for _res, rec in runs[name]]
        metrics = {}
        for metric in records[0]["metrics"]:
            values = [rec["metrics"][metric] for rec in records]
            entry = quartiles(values)
            entry["unit"] = units.get(metric, {"failed_share": "ratio",
                                               "peak_rss_mib": "MiB"}.get(metric, "s"))
            if metric in bounds:
                entry["bound"] = bounds[metric]
                entry["within_third_of_bound"] = entry["spread"] < bounds[metric] / 3
            metrics[metric] = entry
        traced = [bench(name, DEFAULT_SEED, 1)[1] for _ in range(2)]
        counts = [{k: v for k, v in t["layers"].items() if is_count(k)}
                  for t in traced]
        repeat = counts[0] == counts[1]
        split = design_split(name, traced[0])
        ok = (ok and repeat and all(split.values())
              and all(rec["failed"] == 0 for rec in records))
        first = records[0]
        out["workloads"][name] = {
            "why": first["why"], "stresses": first["stresses"],
            "bypasses": first["bypasses"],
            "default_seed_generic_ideal": next(
                (rec.get("generic_ideal") for _res, rec in runs[name]
                 if rec["seed"] == DEFAULT_SEED), None),
            "attempted": sum(rec["attempted"] for rec in records),
            "failed": sum(rec["failed"] for rec in records),
            "passes_per_run": [len(rec["passes"]) for rec in records],
            "job_seconds": [[{k: job[k] for k in ("job", "wall_s", "cpu_s")}
                             for one in rec["passes"] for job in one]
                            for rec in records],
            "metrics": metrics,
            "traced": {
                "seed": DEFAULT_SEED,
                "run_s": traced[0]["metrics"]["run_s"],
                "untraced_run_s": traced[0]["untraced"]["run_s"],
                "spans": traced[0]["spans"],
                "patched_bindings": traced[0]["patches"],
                "layers": traced[0]["layers"],
                "ratio_bases": traced[0]["ratio_bases"],
                "counts_repeat": repeat,
                "design_split": split,
                "second_run_layers": traced[1]["layers"],
            },
        }
        print(f"{name}: counts repeat across traced runs: {repeat}; "
              f"design split: {split}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, w in out["workloads"].items():
        for metric, e in w["metrics"].items():
            print(f"{name:15s} {metric:14s} median {e['median']:10.4f} {e['unit']:5s} "
                  f"q1 {e['q1']:10.4f} q3 {e['q3']:10.4f} spread {e['spread']:.4f}"
                  + (f" bound {e['bound']}" if "bound" in e else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
