import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import movdom.domination
import movdom.harness
import movdom.products
from movdom import (
    BudgetConfig,
    CLAIM_IDS,
    ClaimReport,
    ReplacementMode,
    SolverResult,
    complete,
    corona,
    cycle,
    enumerate_connected_classes,
    from_edge_list,
    gamma_m2,
    is_2movable_dominating,
    is_dominating,
    mask_of,
    path,
    run_all,
    solve_jointly,
    star,
    verify_corollary_3_1,
    verify_lemma_3_4,
    verify_lemma_3_5,
    verify_remark_3_1,
    verify_theorem_3_2,
    verify_theorem_3_3,
    verify_theorem_3_6,
)
from movdom.domination import sample_dominating_sets
from movdom.graph import enumerate_connected_graphs
from movdom.products import slice_copy
from strategies import graphs


class TestClaimReport:
    def test_status_counterexample_coupling(self):
        passing = ClaimReport(claim="remark-3.1", pool="p", instances=1)
        failing = ClaimReport(claim="remark-3.1", pool="p", instances=1, counterexample={"x": 1})
        assert (passing.status, passing.passed) == ("pass", True)
        assert (failing.status, failing.passed) == ("fail", False)
        assert passing.to_json_dict() == {
            "claim": "remark-3.1", "pool": "p", "instances": 1, "status": "pass",
        }
        assert failing.to_json_dict()["status"] == "fail"
        # positional fields would let "fail" land in counterexample
        with pytest.raises(TypeError):
            ClaimReport("remark-3.1", "p", 1, "fail")

    def test_json_fields(self):
        report = verify_lemma_3_5([complete(2)], [complete(1)], 5, seed=3)
        payload = report.to_json_dict()
        assert set(payload) == {"claim", "pool", "instances", "status", "clause_tally", "seed"}
        assert payload["seed"] == 3
        json.dumps(payload)  # serializable


class TestRemark31:
    def test_empty_pool_is_vacuous_pass(self):
        report = verify_remark_3_1([])
        assert report.passed and report.instances == 0

    def test_p4_pool(self):
        report = verify_remark_3_1([path(4)])
        assert report.passed and report.instances == 1

    def test_enumerated_quartics(self):
        report = verify_remark_3_1(enumerate_connected_graphs(4))
        assert report.passed
        assert report.instances == 38

    def test_filters_small_and_disconnected(self):
        report = verify_remark_3_1([path(3), from_edge_list(4, [(0, 1)])])
        assert report.instances == 0
        assert report.pool == "0 connected graphs of order >= 4 (of 2 supplied)"


class TestTheorem32:
    def test_enumerated_quartics(self):
        report = verify_theorem_3_2(enumerate_connected_graphs(4))
        assert report.passed and report.instances == 38

    def test_existence_tallied(self):
        report = verify_theorem_3_2([star(5)])
        assert report.passed
        assert report.clause_tally["gamma_m2_distinct_missing"] == 1
        assert report.clause_tally["gamma_m2_literal_exists"] == 1


class TestTheorem33:
    def test_small_pairs(self):
        report = verify_theorem_3_3([complete(2), path(3)], [complete(2), cycle(4)])
        assert report.passed and report.instances == 4

    def test_order_filter(self):
        report = verify_theorem_3_3([complete(1), complete(2)], [complete(2)])
        assert report.instances == 1


class TestTheorem36:
    def test_valid_domain_passes(self):
        report = verify_theorem_3_6([complete(2), path(3)], [complete(1), path(3)])
        assert report.passed and report.instances == 4

    def test_order_window_filter(self):
        report = verify_theorem_3_6([complete(1)], [complete(1)])
        assert report.instances == 0


class TestCorollary31:
    def test_two_dominated_instances(self):
        report = verify_corollary_3_1([cycle(4), path(5), cycle(5)])
        assert report.passed and report.instances == 3

    def test_order_filter(self):
        report = verify_corollary_3_1([path(3)])
        assert report.instances == 0


class TestLemma34:
    def test_hand_instance(self):
        product, layout = corona(complete(2), complete(1))
        t = mask_of(2, 3)
        assert is_dominating(product, t)
        for a in range(2):
            assert not t >> layout.centers[a] & 1
            copy_graph = slice_copy(layout, a, product)
            s_a = (t & layout.copy_mask(a)) >> layout.copies[a][0]
            assert is_dominating(copy_graph, s_a)

    def test_precondition_skips_centers_in_t(self):
        report = verify_lemma_3_4([complete(2)], [complete(1)], samples_per_corona=60, seed=2)
        assert report.passed
        assert report.clause_tally["centers_skipped_in_T"] > 0
        assert report.clause_tally["centers_checked"] > 0

    def test_sampled_pools_pass(self):
        report = verify_lemma_3_4([path(3)], [complete(2)], samples_per_corona=100, seed=0)
        assert report.passed
        assert report.instances == 100
        assert report.seed == 0

    def test_zero_samples_is_vacuous(self):
        report = verify_lemma_3_4([path(3)], [complete(2)], samples_per_corona=0, seed=0)
        assert report.passed and report.instances == 0

    @given(st.data())
    def test_copy_test_matches_standalone_copy(self, data):
        g = data.draw(graphs(1, 8))
        h = data.draw(graphs(1, 16 // g.n - 1))
        product, layout = corona(g, h)
        t = data.draw(st.integers(0, product.full_mask))
        for a in range(g.n):
            copy_mask = layout.copy_mask(a)
            standalone = slice_copy(layout, a, product)
            local = (t & copy_mask) >> layout.copies[a][0]
            in_product = movdom.harness._dominates_copy(product, copy_mask, t & copy_mask)
            assert in_product == is_dominating(standalone, local)

    def test_checked_inside_the_product(self, monkeypatch):
        for name in ("slice_copy", "sample_dominating_sets"):
            assert not hasattr(movdom, name)
        for name in ("slice_copy", "sample_dominating_sets", "is_dominating"):
            assert not hasattr(movdom.harness, name)

        def refuse(*args):
            raise AssertionError("lemma-3.4 builds no standalone copy and uses one sampler")

        monkeypatch.setattr(movdom.products, "slice_copy", refuse)
        monkeypatch.setattr(movdom.domination, "sample_dominating_sets", refuse)
        assert verify_lemma_3_4([path(3)], [complete(2)], 20, 0).passed


class TestLemma35:
    def test_witnesses_and_samples_pass(self):
        report = verify_lemma_3_5([path(3)], [complete(2)], samples_per_corona=50, seed=0)
        assert report.passed
        assert report.clause_tally["witnesses"] == 2  # one per mode
        assert report.clause_tally["min_certified_per_corona"] >= 50

    def test_vacuous_centers_recorded(self):
        # centers-only sets leave every copy empty
        report = verify_lemma_3_5([complete(2)], [complete(1)], samples_per_corona=30, seed=0)
        assert report.passed
        assert report.clause_tally["vacuous_centers"] > 0

    def test_draws_only_as_far_as_either_mode_reads(self, monkeypatch):
        k, draw_cap = 5, 250
        drawn = []
        original = movdom.harness.dominating_samples

        def counting(product, seed):
            drawn.append([product, 0])
            for t in original(product, seed):
                drawn[-1][1] += 1
                yield t

        monkeypatch.setattr(movdom.harness, "dominating_samples", counting)
        report = verify_lemma_3_5([path(3), cycle(3)], [complete(2), path(3)], k, seed=0)
        assert report.passed and len(drawn) == 4
        for product, count in drawn:
            stream = sample_dominating_sets(product, draw_cap, 0)
            # where each mode's k-th certified sample sits in the shared stream
            kth = [
                [i for i, t in enumerate(stream) if is_2movable_dominating(product, t, m)][k - 1]
                for m in ReplacementMode
            ]
            # the reader that stops last stops at its k-th hit
            assert count == max(kth) + 1 < draw_cap

    def test_clause_tally_totals_match_checks(self):
        report = verify_lemma_3_5([path(3)], [complete(2)], samples_per_corona=20, seed=4)
        tally = report.clause_tally
        assert tally["clause_i"] + tally["clause_ii"] + tally["clause_iii"] > 0


@pytest.mark.parametrize("verify", [verify_lemma_3_4, verify_lemma_3_5])
def test_corona_lemmas_reject_negative_budget(verify):
    with pytest.raises(ValueError, match=r"^samples_per_corona must be nonnegative, got -5$"):
        verify([path(3)], [complete(2)], -5, 0)


def _graph(g):
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _corrupt(mode=None, result=None, m1=None):
    """solve_jointly that returns result for gamma_m2 in mode (every mode when
    mode is None), m1 for gamma_m1 if given, and the true results otherwise."""

    def fake(g, **asked):
        true = solve_jointly(g, **asked)
        wrong = {m: result for m in true.m2 if mode in (None, m)} if result else {}
        return true._replace(m1=m1 or true.m1, m2={**true.m2, **wrong})

    return fake


NONE = SolverResult(None, None)
TOO_SMALL = SolverResult(1, mask_of(0))
LITERAL, DISTINCT = ReplacementMode.LITERAL, ReplacementMode.DISTINCT

# (fake solve_jointly patched on movdom.harness, claim run, first
# counterexample); every pool has two admissible instances.
FOLDED_CLAIMS = {
    "remark-3.1": (
        _corrupt(DISTINCT, TOO_SMALL),
        lambda: verify_remark_3_1([path(4), cycle(4)]),
        {"graph": _graph(path(4)), "mode": "distinct", "expected": ">= 2", "got": 1},
    ),
    "theorem-3.2/gamma-m1": (
        _corrupt(m1=NONE),
        lambda: verify_theorem_3_2([path(4), cycle(4)]),
        {"graph": _graph(path(4)), "inequality": "gamma <= gamma-m1", "gamma": 2, "got": "none"},
    ),
    "theorem-3.2/gamma-m2": (
        _corrupt(DISTINCT, TOO_SMALL),
        lambda: verify_theorem_3_2([path(4), cycle(4)]),
        {
            "graph": _graph(path(4)),
            "inequality": "gamma <= gamma-m2",
            "mode": "distinct",
            "gamma": 2,
            "got": 1,
        },
    ),
    "theorem-3.3": (
        _corrupt(DISTINCT, NONE),
        lambda: verify_theorem_3_3([complete(2)], [complete(2), path(3)]),
        {
            "g": _graph(complete(2)),
            "h": _graph(complete(2)),
            "mode": "distinct",
            "expected": 2,
            "got": "none",
        },
    ),
    "theorem-3.6": (
        _corrupt(LITERAL, SolverResult(7, mask_of(0))),
        lambda: verify_theorem_3_6([complete(2)], [complete(1), path(3)]),
        {
            "g": _graph(complete(2)),
            "h": _graph(complete(1)),
            "mode": "literal",
            "expected": 2,
            "got": 7,
        },
    ),
    "corollary-3.1": (
        _corrupt(DISTINCT, NONE),
        lambda: verify_corollary_3_1([cycle(4), path(5)]),
        {"h": _graph(cycle(4)), "mode": "distinct", "expected": 2, "got": "none"},
    ),
}


class TestCorruptedSolverSensitivity:
    def test_theorem_3_3_detects_and_replays(self, monkeypatch):
        monkeypatch.setattr(
            movdom.harness, "solve_jointly", _corrupt(result=SolverResult(3, mask_of(0, 1, 2)))
        )
        report = verify_theorem_3_3([complete(2)], [complete(2)])
        assert not report.passed
        ce = report.counterexample
        assert ce["expected"] == 2 and ce["got"] == 3

        # the counterexample is a self-contained replay
        monkeypatch.undo()
        g = from_edge_list(ce["g"]["n"], [tuple(e) for e in ce["g"]["edges"]])
        h = from_edge_list(ce["h"]["n"], [tuple(e) for e in ce["h"]["edges"]])
        replay = verify_theorem_3_3([g], [h])
        assert replay.passed  # honest solver restores the claim

        from movdom import join

        product, _ = join(g, h)
        assert gamma_m2(product, ReplacementMode(ce["mode"])).value == ce["expected"]

    def test_remark_detects_corrupted_floor(self, monkeypatch):
        monkeypatch.setattr(movdom.harness, "solve_jointly", _corrupt(result=TOO_SMALL))
        report = verify_remark_3_1([path(4)])
        assert not report.passed
        assert report.counterexample["got"] == 1

    @pytest.mark.parametrize("case", FOLDED_CLAIMS)
    def test_folded_claim_counterexample(self, case, monkeypatch):
        fake, run, counterexample = FOLDED_CLAIMS[case]
        modes = []

        def counted(g, **asked):
            modes.extend(asked["modes"])
            return fake(g, **asked)

        monkeypatch.setattr(movdom.harness, "solve_jointly", counted)
        report = run()
        assert report.status == "fail"
        assert report.counterexample == counterexample
        assert report.instances == 2
        # every mode of every instance is still checked after the counterexample
        assert modes == [LITERAL, DISTINCT] * 2
        if report.clause_tally is not None:
            assert sum(report.clause_tally.values()) == 2 * 2


# One center graph, so every lemma instance has |V(G)| = 3 centers.
LEMMA_G, LEMMA_H = [path(3)], [complete(1), complete(2)]


class TestLemmaFaultInjection:
    def test_lemma_3_4_restriction_never_dominates(self, monkeypatch):
        clean = verify_lemma_3_4(LEMMA_G, LEMMA_H, samples_per_corona=4, seed=3)
        calls = []

        def never(product, copy_mask, members):
            calls.append(members)
            return False

        monkeypatch.setattr(movdom.harness, "_dominates_copy", never)
        report = verify_lemma_3_4(LEMMA_G, LEMMA_H, samples_per_corona=4, seed=3)
        assert report.status == "fail"
        # center 0 is in T, so the first restriction checked is center 1's
        assert report.counterexample == {
            "g": _graph(path(3)),
            "h": _graph(complete(1)),
            "T": [0, 2, 4],
            "center": 1,
            "copy_set": [0],
            "expected": "dominating",
            "got": "not-dominating",
        }
        tally = report.clause_tally
        assert report.instances == clean.instances == 8
        assert tally == clean.clause_tally
        assert tally["centers_checked"] + tally["centers_skipped_in_T"] == report.instances * 3
        assert len(calls) == tally["centers_checked"]

    def test_lemma_3_5_no_clause_holds(self, monkeypatch):
        clean = verify_lemma_3_5(LEMMA_G, LEMMA_H, samples_per_corona=3, seed=3)
        members = []

        def none_hold(product, layout, a, t_a, u):
            members.append(u)
            return None

        monkeypatch.setattr(movdom.harness, "_lemma_3_5_clause", none_hold)
        report = verify_lemma_3_5(LEMMA_G, LEMMA_H, samples_per_corona=3, seed=3)
        assert report.status == "fail"
        assert report.counterexample == {
            "g": _graph(path(3)),
            "h": _graph(complete(1)),
            "T": [0, 2, 4],
            "mode": "literal",
            "center": 1,
            "member": 4,
            "expected": "one of clauses i/ii/iii",
            "got": "none hold",
        }
        assert report.instances == clean.instances == 15
        tally, clean_tally = report.clause_tally, clean.clause_tally
        assert tally["vacuous_centers"] == clean_tally["vacuous_centers"]
        clauses = ("clause_i", "clause_ii", "clause_iii")
        assert [tally[c] for c in clauses] == [0, 0, 0]
        # every member the clean run classified is still checked after the counterexample
        assert len(members) == sum(clean_tally[c] for c in clauses)


def _load_bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkNames:
    def test_traced_names_resolve(self):
        """A name the benchmark's tracer wraps must not vanish from movdom."""
        tracer = _load_bench_tracer()
        for layer, fn, _ in tracer.WRAPPED:
            module = importlib.import_module(f"movdom.{layer}")
            assert callable(getattr(module, fn, None)), f"movdom.{layer}.{fn}"
        assert set(tracer.CLAIM_RUNNERS.values()) == set(CLAIM_IDS)

    def test_tracer_installs_and_uninstalls(self):
        """The tracer wraps every name it lists and puts each original back."""
        importlib.import_module("movdom.cli")  # as bench/run.py does, so its names are wrapped too
        tracer = _load_bench_tracer()
        names = [(importlib.import_module(f"movdom.{layer}"), fn) for layer, fn, _ in tracer.WRAPPED]
        originals = [getattr(module, fn) for module, fn in names]
        traced = tracer.Tracer()
        try:
            traced.install()
            wrapped = [getattr(module, fn) for module, fn in names]
        finally:
            traced.uninstall()
        assert not any(w is o for w, o in zip(wrapped, originals))
        assert all(getattr(module, fn) is o for (module, fn), o in zip(names, originals))


def _row(found):
    """gamma, gamma_m1 and gamma_m2 in both modes, in the order of an enumerated row."""
    return (found.gamma.value, found.m1.value, found.m2[LITERAL].value, found.m2[DISTINCT].value)


class TestRunAll:
    def test_default_run_all_pass(self):
        reports = run_all(BudgetConfig(max_order=4, samples=20, movable_samples=10))
        assert [r.claim for r in reports] == list(CLAIM_IDS)
        assert all(r.passed for r in reports)

    def test_empty_budget_is_vacuous(self):
        reports = run_all(BudgetConfig(max_order=0, samples=0, movable_samples=0))
        assert len(reports) == 7
        assert all(r.passed and r.instances == 0 for r in reports)

    def test_claim_selection(self):
        reports = run_all(BudgetConfig(max_order=4), claims=["theorem-3.3"])
        assert [r.claim for r in reports] == ["theorem-3.3"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="unknown claim"):
            run_all(claims=["theorem-9.9"])

    def test_single_enumerated_claim_reports_as_in_full_run(self):
        budget = BudgetConfig(max_order=5, samples=5, movable_samples=5)
        full = {r.claim: r for r in run_all(budget)}
        for claim in ("remark-3.1", "theorem-3.2"):
            (alone,) = run_all(budget, claims=[claim])
            assert alone == full[claim]

    def test_enumerated_claims_share_one_scan(self, monkeypatch):
        connected, solved = [], []
        is_connected, solve = movdom.harness.is_connected, movdom.harness.solve_jointly

        def counted_connected(g):
            connected.append(g)
            return is_connected(g)

        def counted_solve(g, **asked):
            solved.append(g)
            return solve(g, **asked)

        monkeypatch.setattr(movdom.harness, "is_connected", counted_connected)
        monkeypatch.setattr(movdom.harness, "solve_jointly", counted_solve)
        reports = run_all(BudgetConfig(max_order=4), claims=["remark-3.1", "theorem-3.2"])
        assert [r.instances for r in reports] == [38, 38]
        assert reports[0].pool == "38 connected graphs of order >= 4 (of 38 supplied)"
        # the default pool is enumerated connected, so it is not tested again
        assert connected == []
        # one scan per isomorphism class, on the class's graph, in class order
        assert solved == [g for g, _ in enumerate_connected_classes(4)]

    def test_class_rows_equal_direct_scans(self):
        """Each row holds its graph's own scan, and the rows weighted by size hold every graph's."""
        budget = BudgetConfig(max_order=6)
        rows = movdom.harness.default_pools(budget, {"enumerated"})["enumerated"]
        assert len(rows) == 139
        for g, _, values in rows:
            assert values == _row(solve_jointly(g, m1=True, modes=(LITERAL, DISTINCT)))
        weighted = Counter()
        for _, size, values in rows:
            weighted[values] += size
        direct = Counter(
            _row(solve_jointly(g, m1=True, modes=(LITERAL, DISTINCT)))
            for n in (4, 5, 6)
            for g in enumerate_connected_graphs(n)
        )
        assert sum(direct.values()) == 27_470
        assert weighted == direct

    def test_class_pool_reports_like_its_labeled_pool(self):
        """A failing check names the same first counterexample on class rows as on labeled graphs."""

        def check(g, base, m1, m2):
            for mode, value in m2:
                if base == 2 and value == 3:
                    yield {"graph": g.edges(), "mode": mode.value}

        budget = BudgetConfig(max_order=5)
        rows = movdom.harness.default_pools(budget, {"enumerated"})["enumerated"]
        labeled = [g for n in (4, 5) for g in enumerate_connected_graphs(n)]
        assert len(labeled) == 766
        by_class = movdom.harness._enumerated("c", rows, check, prefix="p_")
        by_graph = movdom.harness._enumerated("c", labeled, check, prefix="p_")
        assert by_class.status == "fail"
        assert by_class.counterexample["graph"] != labeled[0].edges()
        assert by_class == by_graph

    def test_unread_pool_not_enumerated(self, monkeypatch):
        def refuse(n):
            raise AssertionError("enumerated a pool no selected claim reads")

        monkeypatch.setattr(movdom.harness, "enumerate_connected_classes", refuse)
        (report,) = run_all(BudgetConfig(max_order=6, samples=5), claims=["lemma-3.4"])
        assert report.passed and report.instances > 0

    def test_deterministic_reports(self):
        budget = BudgetConfig(max_order=4, samples=15, movable_samples=10, seed=7)
        first = [r.to_json_dict() for r in run_all(budget)]
        second = [r.to_json_dict() for r in run_all(budget)]
        assert first == second
