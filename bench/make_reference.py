"""Regenerate bench/reference.json, the expected outputs the benchmark checks.

    python3 bench/make_reference.py

Records, for the default and holdout seeds: the sha256 of the
``verify --json`` bytes, every solver's value and witness on the
solve-large list, and the per-pass pass counts of certify-sampled for the
first CERTIFY_PASSES passes.  Run it only when a change is meant to alter
outputs, and say so in the change.
"""

from __future__ import annotations

import json

from run import REFERENCE, run_pass, setup
from workloads import DEFAULT_SEED, HOLDOUT_SEED, CertifySampled, SolveLarge, VerifyEnum

CERTIFY_PASSES = 160


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference not written: {what}")


def first_pass(workload_cls, seed: int):
    workload, items = setup(workload_cls, seed, {})
    results, _, _, error = run_pass(workload, items)
    require(error is None and not workload.check(0, items, results), f"{workload_cls.name} seed {seed}")
    return workload, results


def main() -> None:
    reference: dict = {"verify-enum": {}, "solve-large": {"fixed": {}}, "certify-sampled": {}}
    for seed in (DEFAULT_SEED, HOLDOUT_SEED):
        workload, results = first_pass(VerifyEnum, seed)
        reference["verify-enum"][str(seed)] = workload.pass_reference(0, results)

        workload, results = first_pass(SolveLarge, seed)
        table = workload.pass_reference(0, results)
        seeded = {k for k in table if k.startswith("seeded-")}
        reference["solve-large"]["fixed"] = {k: v for k, v in table.items() if k not in seeded}
        reference["solve-large"][str(seed)] = {k: table[k] for k in seeded}

        workload, items = setup(CertifySampled, seed, {})
        counts = []
        for pass_index in range(CERTIFY_PASSES):
            if pass_index:
                items = workload.inputs(pass_index)
            results, _, _, error = run_pass(workload, items)
            require(
                error is None and not workload.check(pass_index, items, results),
                f"certify-sampled seed {seed} pass {pass_index}",
            )
            counts.append(workload.pass_reference(pass_index, results))
        reference["certify-sampled"][str(seed)] = counts
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items())]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
