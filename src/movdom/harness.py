"""Mechanical validation of the package's numbered claims on instance pools.

Each verify_* function filters its pool down to the claim's hypotheses
(connectivity, order thresholds), evaluates the claim instance by
instance through the public solver API, and returns a ClaimReport whose
counterexample, if any, contains everything needed to replay the
discrepancy: the graphs as edge lists, the sets, and the mode.

All seven claims share one check loop, ``_report``: remark-3.1 and
theorem-3.2 through ``_enumerated``, the three product formulas through
``_formula_claim``, and the two sampled corona lemmas directly.  Every
2-movable value comes from ``gamma_m2``, one scan per mode.
The two enumerated claims read one list of rows, one per isomorphism
class of the labeled connected graphs, each solved once and weighted by
its class size (the invariants are isomorphism invariants), so instance
counts, tallies and counterexamples still count and name labeled graphs.

Claims whose ideal value is a product formula are validated on pools
where that formula is at least 2 by default, since the 2-movable
invariant can never be smaller; callers may pass any pool they like.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice, tee

from .domination import SOLVER_MAX_ORDER, dominating_samples, gamma
from .graph import (
    ENUMERATION_MAX_ORDER,
    Graph,
    VertexSet,
    bits,
    closed_neighborhood,
    complete,
    cycle,
    enumerate_connected_classes,
    is_connected,
    path,
    vertex_list,
)
from .movable import _MODES, gamma_m1, gamma_m2, is_2movable_dominating
from .products import CoronaLayout, corona, join

CORONA_ORDER_CAP = 16


@dataclass(frozen=True, kw_only=True)
class ClaimReport:
    """Outcome of checking one claim over one pool.

    A claim fails exactly when it has a counterexample, so ``passed`` and
    ``status`` (``"pass"`` or ``"fail"``, also in the JSON) are read from it.
    """

    claim: str
    pool: str
    instances: int
    counterexample: dict | None = None
    clause_tally: dict | None = None
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        fields = {"status": self.status, **asdict(self)}
        return {k: v for k, v in fields.items() if v is not None}


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _value_payload(value: int | None) -> int | str:
    return "none" if value is None else value


def _report(
    claim: str,
    pool: str,
    items: list,
    check,
    tally: dict | None = None,
    seed: int | None = None,
    instances: int | None = None,
) -> ClaimReport:
    """Fail on the first counterexample ``check(item)`` yields; drain all checks for the tallies."""
    counterexample = None
    for item in items:
        for found in check(item):
            if counterexample is None:
                counterexample = found
    return ClaimReport(
        claim=claim,
        pool=pool,
        instances=len(items) if instances is None else instances,
        counterexample=counterexample,
        clause_tally=tally,
        seed=seed,
    )


def _solved_row(g: Graph) -> tuple[int | None, ...]:
    """gamma, gamma_m1, then gamma_m2 in each of ``_MODES`` (None where absent)."""
    return tuple(r.value for r in (gamma(g), gamma_m1(g), *(gamma_m2(g, m) for m in _MODES)))


def _class_rows(max_order: int) -> list[tuple[Graph, int, tuple]]:
    """One solved row (graph, class size, values) per connected class of order 4..max_order."""
    return [
        (g, size, _solved_row(g))
        for n in range(4, max_order + 1)
        for g, size in enumerate_connected_classes(n)
    ]


def _enumerated(claim: str, pool, check, prefix: str = "") -> ClaimReport:
    """Report ``check(g, gamma, gamma_m1, m2)`` on the connected graphs of order >= 4 in pool.

    ``m2`` lists (mode, value) where gamma_m2(g, mode) exists, and existence
    per mode is tallied under keys starting with ``prefix``.  ``pool`` is
    either graphs, whose connected ones of order >= 4 become rows of size
    1, or the rows of ``_class_rows``.  A row stands for ``size`` labeled
    graphs with its values, in instances and tallies; its graph is the
    first of them in pool order, and rows come in that order, so the first
    failing row names the first failing labeled graph.
    """
    rows = list(pool)
    if rows and isinstance(rows[0], Graph):
        supplied = len(rows)
        rows = [(g, 1, _solved_row(g)) for g in rows if g.n >= 4 and is_connected(g)]
    else:
        supplied = sum(size for _, size, _ in rows)
    tally = {f"{prefix}{m.value}_{k}": 0 for m in _MODES for k in ("exists", "missing")}

    def check_one(row):
        g, size, (base, m1, *m2) = row
        for mode, value in zip(_MODES, m2):
            tally[f"{prefix}{mode.value}_{'missing' if value is None else 'exists'}"] += size
        present = [(mode, value) for mode, value in zip(_MODES, m2) if value is not None]
        return check(g, base, m1, present)

    instances = sum(size for _, size, _ in rows)
    pool_text = f"{instances} connected graphs of order >= 4 (of {supplied} supplied)"
    return _report(claim, pool_text, rows, check_one, tally, instances=instances)


def _formula_claim(claim: str, pool: str, items: list, product, expected, factors) -> ClaimReport:
    """Report ``gamma_m2(product(*item)) == expected(*item)`` in both modes.

    An item is a tuple of factor graphs, named by ``factors`` in a
    counterexample.  The product is built once per item, before ``expected``.
    """

    def check(item):
        built, _ = product(*item)
        want = expected(*item)
        for mode in _MODES:
            got = gamma_m2(built, mode).value
            if got != want:
                yield {
                    **{name: _graph_payload(f) for name, f in zip(factors, item)},
                    "mode": mode.value,
                    "expected": want,
                    "got": _value_payload(got),
                }

    return _report(claim, pool, items, check)


def verify_remark_3_1(pool) -> ClaimReport:
    """The 2-movable invariant is at least 2 whenever it exists.

    Checked under both replacement modes on connected graphs of order
    at least 4.
    """

    def check(g, base, m1, m2):
        for mode, value in m2:
            if value < 2:
                yield {
                    "graph": _graph_payload(g),
                    "mode": mode.value,
                    "expected": ">= 2",
                    "got": value,
                }

    return _enumerated("remark-3.1", pool, check)


def verify_theorem_3_2(pool) -> ClaimReport:
    """Domination number never exceeds either movable variant.

    The 2-movable comparison is made only where that invariant exists;
    existence counts are tallied per mode.
    """

    def check(g, base, m1, m2):
        if m1 is None or base > m1:
            yield {
                "graph": _graph_payload(g),
                "inequality": "gamma <= gamma-m1",
                "gamma": base,
                "got": _value_payload(m1),
            }
        for mode, value in m2:
            if base > value:
                yield {
                    "graph": _graph_payload(g),
                    "inequality": "gamma <= gamma-m2",
                    "mode": mode.value,
                    "gamma": base,
                    "got": value,
                }

    return _enumerated("theorem-3.2", pool, check, prefix="gamma_m2_")


def verify_theorem_3_3(g_pool, h_pool) -> ClaimReport:
    """Every join of connected graphs of order >= 2 has 2-movable number 2."""
    gs = [g for g in g_pool if g.n >= 2 and is_connected(g)]
    hs = [h for h in h_pool if h.n >= 2 and is_connected(h)]
    pairs = [(g, h) for g in gs for h in hs]
    pool = f"{len(pairs)} ordered pairs, connected factors of order >= 2"
    return _formula_claim("theorem-3.3", pool, pairs, join, lambda g, h: 2, ("g", "h"))


def _admissible_corona_pairs(g_pool, h_pool, order_cap: int):
    gs = [g for g in g_pool if is_connected(g)]
    hs = [h for h in h_pool if is_connected(h)]
    return [(g, h) for g in gs for h in hs if 4 <= g.n * (1 + h.n) <= order_cap]


def verify_theorem_3_6(g_pool, h_pool) -> ClaimReport:
    """Corona products: the 2-movable number equals |V(G)| times gamma(H).

    Pairs are filtered to connected factors with corona order between 4
    and ``CORONA_ORDER_CAP``, this pool's own cap (16, not the solvers' 24).
    """
    pairs = _admissible_corona_pairs(g_pool, h_pool, CORONA_ORDER_CAP)
    pool = f"{len(pairs)} ordered pairs, connected factors, 4 <= corona order <= {CORONA_ORDER_CAP}"
    return _formula_claim(
        "theorem-3.6", pool, pairs, corona, lambda g, h: g.n * gamma(h).value, ("g", "h")
    )


def verify_corollary_3_1(h_pool) -> ClaimReport:
    """Joining one apex vertex: the 2-movable number equals gamma(H)."""
    hs = [(h,) for h in h_pool if h.n >= 4 and is_connected(h)]
    pool = f"{len(hs)} connected graphs of order >= 4"
    return _formula_claim(
        "corollary-3.1", pool, hs, partial(join, complete(1)), lambda h: gamma(h).value, ("h",)
    )


def _check_samples_per_corona(samples_per_corona: int) -> None:
    if samples_per_corona < 0:
        raise ValueError(f"samples_per_corona must be nonnegative, got {samples_per_corona}")


def _dominates_copy(product: Graph, copy_mask: VertexSet, members: VertexSet) -> bool:
    """True iff ``members``, inside a corona slice, dominate its copy ``copy_mask``.

    The product's closed neighborhoods give the slice's own answer: every
    neighbor of a copy vertex lies in its center-plus-copy slice, so no
    vertex outside the slice can cover the copy.
    """
    return copy_mask & ~closed_neighborhood(product, members) == 0


def verify_lemma_3_4(g_pool, h_pool, samples_per_corona: int, seed: int) -> ClaimReport:
    """Dominating sets of a corona restrict to dominating sets of untouched copies.

    For each sampled dominating set T and each center a outside T, the
    part of T inside a's copy must dominate that copy, checked inside the
    product.  Centers inside T are skipped, per the claim's precondition,
    and tallied.  A negative budget raises ValueError.
    """
    _check_samples_per_corona(samples_per_corona)
    pairs = _admissible_corona_pairs(g_pool, h_pool, order_cap=10**9)
    items = []
    for g, h in pairs:
        product, layout = corona(g, h)
        samples = islice(dominating_samples(product, seed), samples_per_corona)
        items += [(g, h, product, layout, t) for t in samples]
    tally = {"centers_checked": 0, "centers_skipped_in_T": 0}

    def check(item):
        g, h, product, layout, t = item
        for a, center in enumerate(layout.centers):
            if t >> center & 1:
                tally["centers_skipped_in_T"] += 1
                continue
            tally["centers_checked"] += 1
            copy_mask = layout.copy_mask(a)
            if not _dominates_copy(product, copy_mask, t & copy_mask):
                yield {
                    "g": _graph_payload(g),
                    "h": _graph_payload(h),
                    "T": vertex_list(t),
                    "center": a,
                    "copy_set": vertex_list((t & copy_mask) >> layout.copies[a][0]),
                    "expected": "dominating",
                    "got": "not-dominating",
                }

    pool = f"{len(pairs)} coronas of connected factors, {samples_per_corona} samples each"
    return _report("lemma-3.4", pool, items, check, tally, seed)


def _lemma_3_5_clause(
    product: Graph, layout: CoronaLayout, a: int, t_a: VertexSet, u: int
) -> str | None:
    """Which of the three per-member clauses holds, or None; all sets lie in a's slice."""
    center = layout.centers[a]
    copy_mask = layout.copy_mask(a)
    unit = layout.unit_mask(a)
    base = t_a & ~(1 << center | 1 << u)
    if _dominates_copy(product, copy_mask, base):
        return "i"
    center_swaps = product.adj[center] & copy_mask & ~t_a
    member_swaps = product.adj[u] & unit & ~t_a
    for x_a in bits(center_swaps):
        for x_u in bits(member_swaps):
            if _dominates_copy(product, copy_mask, base | 1 << x_a | 1 << x_u):
                return "ii"
    for x_u in bits(member_swaps):
        if _dominates_copy(product, copy_mask, base | 1 << x_u):
            return "iii"
    return None


def verify_lemma_3_5(g_pool, h_pool, samples_per_corona: int, seed: int) -> ClaimReport:
    """2-movable sets of a corona satisfy the per-copy move disjunction.

    The sets checked, in both replacement modes, are the solver's witness
    plus sampled dominating sets that certify as 2-movable.  For every
    center a and every member u of the set's part inside a's copy, one
    of the three clauses must hold: the slice minus {a, u} dominates the
    copy, or it does after adding outside-slice-set neighbors of both a
    and u, or of u alone.  The tally records which clause fired first,
    vacuous centers, and the smallest certified-sample count any corona
    achieved.  A negative budget raises ValueError.
    """
    _check_samples_per_corona(samples_per_corona)
    pairs = _admissible_corona_pairs(g_pool, h_pool, SOLVER_MAX_ORDER)
    tally = {
        "clause_i": 0,
        "clause_ii": 0,
        "clause_iii": 0,
        "vacuous_centers": 0,
        "witnesses": 0,
        "certified_samples": 0,
    }
    certified_counts = []
    items = []
    draw_cap = max(64, 50 * samples_per_corona)
    for g, h in pairs:
        product, layout = corona(g, h)
        # Both modes read the same draws; tee draws each only once, as far
        # as the longer reader goes.
        streams = tee(islice(dominating_samples(product, seed), draw_cap), len(_MODES))
        for m, stream in zip(_MODES, streams):
            solved = gamma_m2(product, m)
            witness = [solved.witness] if solved.exists else []
            hits = (t for t in stream if is_2movable_dominating(product, t, m))
            certified = list(islice(hits, samples_per_corona))
            tally["witnesses"] += len(witness)
            tally["certified_samples"] += len(certified)
            certified_counts.append(len(certified))
            # the sets to check, once each: the witness, then certified samples
            items += [(g, h, product, layout, m, t) for t in dict.fromkeys(witness + certified)]
    if samples_per_corona > 0 and certified_counts:
        tally["min_certified_per_corona"] = min(certified_counts)

    def check(item):
        g, h, product, layout, m, t = item
        for a in range(len(layout.centers)):
            s_a = t & layout.copy_mask(a)
            if s_a == 0:
                tally["vacuous_centers"] += 1
                continue
            t_a = t & layout.unit_mask(a)
            for u in bits(s_a):
                clause = _lemma_3_5_clause(product, layout, a, t_a, u)
                if clause is not None:
                    tally[f"clause_{clause}"] += 1
                    continue
                yield {
                    "g": _graph_payload(g),
                    "h": _graph_payload(h),
                    "T": vertex_list(t),
                    "mode": m.value,
                    "center": a,
                    "member": u,
                    "expected": "one of clauses i/ii/iii",
                    "got": "none hold",
                }

    pool = (
        f"{len(pairs)} coronas of connected factors, solver witness plus up to "
        f"{samples_per_corona} certified samples each, modes=both"
    )
    return _report("lemma-3.5", pool, items, check, tally, seed)


@dataclass(frozen=True)
class BudgetConfig:
    """Pool and sampling budgets for a full validation run; out of range is an error."""

    max_order: int = 5
    samples: int = 100
    movable_samples: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.max_order <= ENUMERATION_MAX_ORDER:
            raise ValueError(f"max order {self.max_order} is outside 0..{ENUMERATION_MAX_ORDER}")
        if min(self.samples, self.movable_samples) < 0:
            raise ValueError("sample budgets must be non-negative")


def _capped(pool: list[Graph], budget: BudgetConfig) -> list[Graph]:
    return [g for g in pool if g.n <= budget.max_order]


_POOLS = {
    "enumerated": lambda budget: _class_rows(budget.max_order),
    "join": lambda budget: _capped([complete(2), path(3), cycle(3), path(4), cycle(4)], budget),
    "corona_g": lambda budget: _capped([complete(2), path(3), cycle(3)], budget),
    "corona_h": lambda budget: _capped([complete(1), complete(2), path(3), complete(3)], budget),
    "corollary_h": lambda budget: _capped([path(4), cycle(4), path(5), cycle(5)], budget),
}


def default_pools(budget: BudgetConfig, names) -> dict:
    """The curated default instance pools named by ``names``, order-capped by budget.

    The enumerated pool is the solved ``_class_rows``: one row per isomorphism
    class of the labeled connected graphs, not the graphs themselves.
    """
    return {name: build(budget) for name, build in _POOLS.items() if name in names}


# Claims in canonical order: (runner, pools read, budget fields passed).
# run_all looks the runner up at call time, so a wrapper put on the module
# attribute is the one that runs.
_RUNNERS = {
    "remark-3.1": ("verify_remark_3_1", ("enumerated",), ()),
    "theorem-3.2": ("verify_theorem_3_2", ("enumerated",), ()),
    "theorem-3.3": ("verify_theorem_3_3", ("join", "join"), ()),
    "theorem-3.6": ("verify_theorem_3_6", ("corona_g", "corona_h"), ()),
    "corollary-3.1": ("verify_corollary_3_1", ("corollary_h",), ()),
    "lemma-3.4": ("verify_lemma_3_4", ("corona_g", "corona_h"), ("samples", "seed")),
    "lemma-3.5": ("verify_lemma_3_5", ("corona_g", "corona_h"), ("movable_samples", "seed")),
}

CLAIM_IDS = tuple(_RUNNERS)


def run_all(budget: BudgetConfig | None = None, claims=None) -> list[ClaimReport]:
    """Validate claims on their default pools, one report per claim.

    ``claims`` selects a subset by id; None runs all seven, always in
    canonical order.  Only the pools the selected claims read are built.
    remark-3.1 and theorem-3.2 share the enumerated pool's rows, so each
    isomorphism class is scanned once, while the pool is built.
    """
    budget = budget or BudgetConfig()
    if claims is not None:
        unknown = sorted(set(claims) - set(CLAIM_IDS))
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
    selected = CLAIM_IDS if claims is None else tuple(c for c in CLAIM_IDS if c in set(claims))
    pools = default_pools(budget, {p for c in selected for p in _RUNNERS[c][1]})
    reports = []
    for claim in selected:
        runner, pool_names, fields = _RUNNERS[claim]
        args = [pools[p] for p in pool_names] + [getattr(budget, f) for f in fields]
        reports.append(globals()[runner](*args))
    return reports
