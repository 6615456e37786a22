"""Self-test: two traced runs on one seed must give identical counts.

    python3 bench/selftest.py [--seed N]

Runs ``bench/run.py --trace 1`` twice per workload in fresh processes
and compares every count the tracer makes: calls per wrapped function,
candidates per solver and k, dominating candidates, movability checks
and passes, solver calls and distinct graphs, and the per-layer count
and ratio metrics.  Exits 1 on any difference or failed output check,
so a later change can name a count beforehand and rely on it.  Takes
about two minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BENCH, OUT, ROOT
from workloads import DEFAULT_SEED, WORKLOADS


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its output checks")
    trace = json.loads((OUT / f"trace-{workload}-seed{seed}.json").read_text())
    exact = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}
    return {"metrics": exact, "counts": trace["counts"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    status = 0
    for workload in sorted(WORKLOADS):
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        same = first == second
        status |= not same
        print(f"{workload}: counts {'identical' if same else 'DIFFER'} across two traced runs")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
