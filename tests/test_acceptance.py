"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every expected value here is either hand-derived and cross-checked with
the brute-force reference in naive.py, or asserted at exact integer
equality against the governing formula.  The corona and apex-join
oracles assert the formula exactly wherever it predicts at least 2.
Their pools also hold four boundary instances (a one-vertex left factor
with gamma(H) = 1) where the formula predicts 1, below the definitional
floor of 2 for the 2-movable invariant.  Those instances stay in the
pools; on them the solver must give the floor, 2, and agree with the
brute-force solver in naive.py.  The boundary set itself is pinned, and
each boundary check is printed as a ``boundary:`` line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines.
"""

import json
import subprocess
import sys
from itertools import product as iproduct

import naive
from movdom import (
    ReplacementMode,
    complete,
    corona,
    cycle,
    gamma,
    gamma_m1,
    gamma_m2,
    is_dominating,
    join,
    path,
    star,
    vertex_list,
    verify_lemma_3_5,
)
from movdom.domination import sample_dominating_sets
from movdom.graph import enumerate_connected_graphs
from movdom.products import slice_copy

MODES = (ReplacementMode.LITERAL, ReplacementMode.DISTINCT)

SEED = 7


def _report(name: str, failures: list, checked: int, boundary=()) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status} ({checked} checks)")
    for item in boundary:
        print(f"[acceptance]   boundary: {item}")
    for item in failures:
        print(f"[acceptance]   violation: {item}")
    assert not failures, f"{name}: {len(failures)} violation(s) in {checked} checks"


def _formula_oracle(name: str, instances, pinned_boundary: set) -> None:
    """Check gamma_m2 against a value formula on (label, graph, formula) triples.

    Where the formula is at least 2 the solver must match it exactly.
    Where it is below 2 (a boundary instance) the solver must give the
    definitional floor of 2 and agree with the brute-force solver.  The
    labels of the boundary instances must be exactly ``pinned_boundary``,
    in every mode.
    """
    failures = []
    boundary = []
    seen_boundary = set()
    checked = 0
    for label, product, formula in instances:
        for mode in MODES:
            checked += 1
            got = gamma_m2(product, mode).value
            if formula >= 2:
                if got != formula:
                    failures.append(f"{label} mode={mode.value}: expected {formula}, got {got}")
                continue
            seen_boundary.add((label, mode))
            oracle = naive.naive_gamma_m2(_view(product), mode is ReplacementMode.DISTINCT)[0]
            boundary.append(
                f"{label} mode={mode.value}: formula {formula}, solver {got}, oracle {oracle}"
            )
            if got != 2 or got != oracle:
                failures.append(
                    f"{label} mode={mode.value}: boundary expects the floor 2 and the "
                    f"brute-force value {oracle}, got {got}"
                )
    expected_boundary = {(label, mode) for label in pinned_boundary for mode in MODES}
    if seen_boundary != expected_boundary:
        failures.append(
            "boundary set changed: "
            f"unexpected {sorted((lb, m.value) for lb, m in seen_boundary - expected_boundary)}, "
            f"missing {sorted((lb, m.value) for lb, m in expected_boundary - seen_boundary)}"
        )
    _report(name, failures, checked, boundary)


def _view(g):
    return naive.AdjacencyView(g.n, g.edges())


def _criterion_2_pool():
    g_pool = [("K1", complete(1)), ("K2", complete(2)), ("P3", path(3)), ("C3", cycle(3))]
    h_pool = [("K1", complete(1)), ("K2", complete(2)), ("P3", path(3)), ("K3", complete(3))]
    return [
        (gl, g, hl, h)
        for (gl, g), (hl, h) in iproduct(g_pool, h_pool)
        if 4 <= g.n * (1 + h.n) <= 16
    ]


def test_criterion_1_join_oracle():
    pool = [
        ("P2", path(2)), ("P3", path(3)), ("P4", path(4)),
        ("C3", cycle(3)), ("C4", cycle(4)),
        ("K2", complete(2)), ("K3", complete(3)), ("K4", complete(4)),
        ("K13", star(4)),
    ]
    failures = []
    checked = 0
    for (gl, g), (hl, h) in iproduct(pool, pool):
        joined, _ = join(g, h)
        for mode in MODES:
            checked += 1
            got = gamma_m2(joined, mode).value
            if got != 2:
                failures.append(f"join({gl},{hl}) mode={mode.value}: expected 2, got {got}")
    _report("criterion-1 join oracle", failures, checked)


def test_criterion_2_corona_oracle():
    instances = (
        (f"corona({gl},{hl})", corona(g, h)[0], g.n * gamma(h).value)
        for gl, g, hl, h in _criterion_2_pool()
    )
    _formula_oracle(
        "criterion-2 corona oracle", instances, {"corona(K1,P3)", "corona(K1,K3)"}
    )


def test_criterion_3_apex_join_oracle():
    pool = [
        ("P4", path(4)), ("P5", path(5)), ("C4", cycle(4)),
        ("C5", cycle(5)), ("K4", complete(4)), ("star5", star(5)),
    ]
    instances = (
        (f"join(K1,{hl})", join(complete(1), h)[0], gamma(h).value) for hl, h in pool
    )
    _formula_oracle(
        "criterion-3 apex-join oracle", instances, {"join(K1,K4)", "join(K1,star5)"}
    )


def test_criterion_4_inequality_sweep():
    expected_counts = {4: 38, 5: 728}
    failures = []
    checked = 0
    for n, expected_count in expected_counts.items():
        graphs = list(enumerate_connected_graphs(n))
        if len(graphs) != expected_count:
            failures.append(f"n={n}: enumerated {len(graphs)}, expected {expected_count}")
        if naive.count_connected(n) != expected_count:
            failures.append(f"n={n}: brute-force count disagrees with {expected_count}")
        for g in graphs:
            checked += 1
            base = gamma(g).value
            m1 = gamma_m1(g)
            if not m1.exists or base > m1.value:
                failures.append(f"{g!r}: gamma={base} vs gamma_m1={m1.value}")
            for mode in MODES:
                m2 = gamma_m2(g, mode)
                if m2.exists and (base > m2.value or m2.value < 2):
                    failures.append(
                        f"{g!r} mode={mode.value}: gamma={base}, gamma_m2={m2.value}"
                    )
    _report("criterion-4 inequality sweep (n=4, n=5)", failures, checked)


def test_criterion_5_restriction_suite():
    failures = []
    checked = 0
    for gl, g, hl, h in _criterion_2_pool():
        product, layout = corona(g, h)
        slices = [slice_copy(layout, a, product) for a in range(len(layout.centers))]
        samples = sample_dominating_sets(product, 100, SEED)
        assert len(samples) == 100
        for t in samples:
            if not is_dominating(product, t):
                failures.append(f"corona({gl},{hl}): sampler returned non-dominating set")
                continue
            for a, copy_graph in enumerate(slices):
                if t >> layout.centers[a] & 1:
                    continue
                checked += 1
                restricted = (t & layout.copy_mask(a)) >> layout.copies[a][0]
                if not is_dominating(copy_graph, restricted):
                    failures.append(
                        f"corona({gl},{hl}) T={vertex_list(t)} center={a}: "
                        f"restriction does not dominate the copy"
                    )
    _report("criterion-5 copy-restriction suite", failures, checked)


def test_criterion_6_move_disjunction_suite():
    # same factor pools as criterion 2; the order filter re-forms its 14 pairs
    report = verify_lemma_3_5(
        [complete(1), complete(2), path(3), cycle(3)],
        [complete(1), complete(2), path(3), complete(3)],
        samples_per_corona=50,
        seed=SEED,
    )
    failures = []
    if not report.passed:
        failures.append(json.dumps(report.counterexample, sort_keys=True))
    tally = report.clause_tally
    if tally["min_certified_per_corona"] < 50:
        failures.append(
            f"certified-sample quota missed: min {tally['min_certified_per_corona']} < 50"
        )
    if not report.pool.startswith("14 coronas"):
        failures.append(f"unexpected pool: {report.pool}")
    _report("criterion-6 move-disjunction suite", failures, report.instances)


def test_criterion_7_oracle_equivalence():
    failures = []
    checked = 0
    from movdom import is_1movable_dominating, is_2movable_dominating

    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            view = _view(g)
            for s in range(1 << n):
                members = set(vertex_list(s))
                checked += 1
                if is_dominating(g, s) != naive.dominates(view, members):
                    failures.append(f"is_dominating disagrees: {g!r} S={sorted(members)}")
                if s == 0:
                    continue
                if bool(is_1movable_dominating(g, s)) != naive.one_movable(view, members):
                    failures.append(f"1-movable disagrees: {g!r} S={sorted(members)}")
                for mode in MODES:
                    fast = bool(is_2movable_dominating(g, s, mode))
                    slow = naive.two_movable(view, members, mode is ReplacementMode.DISTINCT)
                    if fast != slow:
                        failures.append(
                            f"2-movable disagrees: {g!r} S={sorted(members)} mode={mode.value}"
                        )
    _report("criterion-7 oracle equivalence (n <= 5)", failures, checked)


def test_criterion_8_fixed_points():
    failures = []
    cases = []

    p4, s4, k4 = path(4), star(4), complete(4)
    cases.append(("gamma(P4)", gamma(p4).value, 2, naive.naive_gamma(_view(p4))[0]))
    cases.append(("gamma_m1(P4)", gamma_m1(p4).value, 2, naive.naive_gamma_m1(_view(p4))[0]))
    for mode in MODES:
        cases.append(
            (
                f"gamma_m2(P4,{mode.value})",
                gamma_m2(p4, mode).value,
                2,
                naive.naive_gamma_m2(_view(p4), mode is ReplacementMode.DISTINCT)[0],
            )
        )
    cases.append(
        (
            "gamma_m2(star4,literal)",
            gamma_m2(s4, ReplacementMode.LITERAL).value,
            3,
            naive.naive_gamma_m2(_view(s4), False)[0],
        )
    )
    cases.append(
        (
            "gamma_m2(star4,distinct)",
            gamma_m2(s4, ReplacementMode.DISTINCT).value,
            None,
            naive.naive_gamma_m2(_view(s4), True)[0],
        )
    )
    cases.append(("gamma_m1(K4)", gamma_m1(k4).value, 1, naive.naive_gamma_m1(_view(k4))[0]))

    for label, got, frozen, recomputed in cases:
        if got != frozen:
            failures.append(f"{label}: solver says {got}, frozen value {frozen}")
        if recomputed != frozen:
            failures.append(f"{label}: brute force says {recomputed}, frozen value {frozen}")
    _report("criterion-8 hand-derived fixed points", failures, len(cases))


def test_criterion_9_verify_determinism():
    argv = [sys.executable, "-m", "movdom", "verify", "--seed", "7", "--json"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    failures = []
    if first.returncode != 0:
        failures.append(f"verify exited {first.returncode}")
    if first.stdout != second.stdout:
        failures.append("repeated runs differ byte-for-byte")
    if not first.stdout.strip():
        failures.append("no output produced")
    else:
        payload = json.loads(first.stdout)
        if len(payload["reports"]) != 7:
            failures.append(f"expected 7 reports, got {len(payload['reports'])}")
    _report("criterion-9 verify determinism", failures, 2)
