"""Write the golden outputs of every job that has one.

    python3 perfbench/capture_goldens.py

Run only on a commit whose outputs are known to be right: the benchmark
then fails any later commit whose output differs by a byte.  Outputs are
still checked against the references in workloads.py before writing.
"""

from __future__ import annotations

import sys

import worker
import workloads


def main() -> int:
    synorres = worker.import_synorres()
    bad = 0
    for workload in workloads.WORKLOADS.values():
        jobs = workload.jobs(synorres, workload.setup(synorres, 1))
        for job in jobs:
            text = job.run()
            if job.golden is None:
                continue
            job.golden.parent.mkdir(parents=True, exist_ok=True)
            job.golden.write_bytes(text.encode())
            problems = job.problems(text)
            for p in problems:
                print(f"{job.name}: {p}")
            bad += bool(problems)
            print(f"wrote {job.golden.relative_to(worker.ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
