"""The benchmark's three workloads.

Each workload builds its inputs from a seed, runs one pass at a time as a
list of operations timed one by one, and checks every output.  Functions
are looked up on the movdom submodules at call time, so the traced run's
wrappers see the same calls as an untraced run.

- verify-enum: one ``movdom verify --json --max-order 6`` call per pass,
  in-process with stdout captured.  Many tiny solver calls on the 27,470
  labeled graphs of orders 4-6; almost no deep subset search.
- solve-large: the four exact solvers on a fixed list of graphs of order
  14-24, plus three seed-drawn graphs of order 14.  Nearly all time goes
  to the k-subset scan and to ``is_dominating`` on non-dominating
  candidates.
- certify-sampled: fresh coronas and random connected graphs of order
  14-20 every pass, with dominating sets from ``sample_dominating_sets``;
  each set gets both movability predicates (both modes for level 2) and
  ``verify_certificate`` on every certificate.  No search; the sets of a
  graph are distinct, and graphs are drawn afresh every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

# The default seed is the one to develop against; the holdout seed is kept
# for confirming a claim on inputs not used while the change was written.
DEFAULT_SEED = 7
HOLDOUT_SEED = 2026

ENUMERATED_INSTANCES = 27_470

# Greedy repair makes sampled sets collide; a graph whose distinct sets run
# out stops short after this many draws (and fails the pass-size check).
_MAX_DRAW_ROUNDS = 64


def mod(name: str):
    """A movdom submodule as currently imported (set-up may re-import)."""
    return sys.modules[f"movdom.{name}"]


def derive(*parts: int) -> int:
    """A deterministic 63-bit seed from integer parts."""
    digest = hashlib.sha256(",".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def dominates(g, s: int) -> bool:
    """Domination from the adjacency masks alone, independent of movdom."""
    covered = s
    for v in range(g.n):
        if s >> v & 1:
            covered |= g.adj[v]
    return covered == (1 << g.n) - 1


class VerifyEnum:
    """One in-process ``verify --json --max-order 6`` call per pass."""

    name = "verify-enum"

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference.get(str(seed))
        self.first_bytes: bytes | None = None

    def inputs(self, pass_index: int) -> list:
        return [["verify", "--json", "--max-order", "6", "--seed", str(self.seed)]]

    def run_op(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mod("cli").main(argv)
        return code, buf.getvalue().encode()

    def check(self, pass_index: int, items: list, results: list) -> list[tuple[int, str]]:
        return [(i, e) for i, (code, out) in enumerate(results) for e in self._check_one(code, out)]

    def _check_one(self, code: int, out: bytes) -> list[str]:
        if code != 0:
            return [f"verify exited {code}"]
        payload = json.loads(out)
        claims = mod("harness").CLAIM_IDS
        reports = payload["reports"]
        errors = []
        if [r["claim"] for r in reports] != list(claims):
            errors.append("claims missing or out of order")
        errors += [f"{r['claim']} did not pass" for r in reports if r["status"] != "pass"]
        for r in reports:
            if r["claim"] in ("remark-3.1", "theorem-3.2") and r["instances"] != ENUMERATED_INSTANCES:
                errors.append(f"{r['claim']} reported {r['instances']} instances")
        if payload["seed"] != self.seed:
            errors.append("seed not echoed")
        if self.first_bytes is None:
            self.first_bytes = out
        elif out != self.first_bytes:
            errors.append("JSON bytes differ between passes of one seed")
        if self.reference and hashlib.sha256(out).hexdigest() != self.reference["sha256"]:
            errors.append("JSON bytes differ from the reference for this seed")
        return errors

    def pass_reference(self, pass_index: int, results: list):
        return {"sha256": hashlib.sha256(results[0][1]).hexdigest()}


SOLVERS = ("gamma", "gamma_m1", "gamma_m2/literal", "gamma_m2/distinct")


class SolveLarge:
    """The four exact solvers on a fixed list of graphs near the order cap."""

    name = "solve-large"

    # corona(C6, P3) finds its witness at the first 6-subset; rcg(14,0.15,3)
    # has no 2-movable set under DISTINCT, so that search scans every subset
    # from gamma up to n.  The seed-drawn graphs are small: about half of
    # random graphs this sparse have no such set, and that full scan takes
    # ~1 s at order 16 and ~16x longer at order 20, so near the cap the seed
    # rather than the code would decide the pass time.  The list is kept to
    # about 2.5 s so a run has about ten passes to take the median of.
    SEEDED = 3
    SEEDED_ORDER, SEEDED_P = 14, 0.15

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.fixed_reference = reference.get("fixed", {})
        self.seed_reference = reference.get(str(seed), {})
        graph, products = mod("graph"), mod("products")
        self.graphs = [
            ("C19", graph.cycle(19)),
            ("P18", graph.path(18)),
            ("corona(C6,P3)", products.corona(graph.cycle(6), graph.path(3))[0]),
            ("rcg(14,0.15,3)", graph.random_connected_graph(14, 0.15, 3)),
        ]
        for i in range(self.SEEDED):
            s = derive(seed, i)
            self.graphs.append(
                (f"seeded-{i}", graph.random_connected_graph(self.SEEDED_ORDER, self.SEEDED_P, s))
            )
        self.first: list | None = None

    def inputs(self, pass_index: int) -> list:
        return [(name, g, solver) for name, g in self.graphs for solver in SOLVERS]

    @staticmethod
    def mode(solver: str):
        return mod("movable").ReplacementMode(solver.partition("/")[2] or "literal")

    def run_op(self, item):
        _, g, solver = item
        if solver == "gamma":
            return mod("domination").gamma(g)
        if solver == "gamma_m1":
            return mod("movable").gamma_m1(g)
        return mod("movable").gamma_m2(g, self.mode(solver))

    @staticmethod
    def summary(result) -> list:
        if not result.exists:
            return [None, None]
        return [result.value, mod("graph").vertex_list(result.witness)]

    def check(self, pass_index: int, items: list, results: list) -> list[tuple[int, str]]:
        movable = mod("movable")
        errors = []
        values: dict[tuple[str, str], int | None] = {}
        ops_of: dict[str, list[int]] = {}
        for i, ((name, g, solver), result) in enumerate(zip(items, results)):
            where = f"{name} {solver}"
            values[name, solver] = result.value
            ops_of.setdefault(name, []).append(i)
            if result.exists:
                if result.witness.bit_count() != result.value or not dominates(g, result.witness):
                    errors.append((i, f"{where}: witness does not attain the value"))
                if solver != "gamma" and (
                    result.certificate is None
                    or not movable.verify_certificate(
                        g, result.witness, result.certificate, self.mode(solver)
                    )
                ):
                    errors.append((i, f"{where}: certificate does not verify"))
            reference = self.fixed_reference.get(name) or self.seed_reference.get(name)
            if reference is not None and reference[solver] != self.summary(result):
                errors.append((i, f"{where}: value or witness differs from the reference"))
        for name, g in self.graphs:
            graph_errors = []
            base = values[name, "gamma"]
            if name in ("C19", "P18") and base != -(-g.n // 3):
                graph_errors.append("gamma differs from ceil(n/3)")
            if any(values[name, s] is not None and values[name, s] < base for s in SOLVERS[1:3]):
                graph_errors.append("gamma exceeds a movable variant")
            literal, distinct = values[name, "gamma_m2/literal"], values[name, "gamma_m2/distinct"]
            if distinct is not None and (literal is None or literal > distinct):
                graph_errors.append("distinct value below the literal value")
            errors += [(i, f"{name}: {e}") for e in graph_errors for i in ops_of[name]]
        summaries = [self.summary(r) for r in results]
        if self.first is None:
            self.first = summaries
        errors += [
            (i, f"{items[i][0]} {items[i][2]}: result differs from the first pass")
            for i, (now, first) in enumerate(zip(summaries, self.first))
            if now != first
        ]
        return errors

    def pass_reference(self, pass_index: int, results: list):
        table: dict = {}
        for (name, _, solver), result in zip(self.inputs(0), results):
            table.setdefault(name, {})[solver] = self.summary(result)
        return table


class CertifySampled:
    """Movability checks and certificate verification on sampled sets."""

    name = "certify-sampled"

    # One graph of each kind per pass, drawn afresh from the seed and the
    # pass index: coronas G o H by (|V(G)|, |V(H)|), orders 14-20, with
    # random connected factors, then random connected graphs by (order,
    # edge probability).  Factor sizes are chosen so the same graph seldom
    # comes up twice in a run.
    CORONAS = ((2, 6), (3, 5), (4, 4), (5, 3), (6, 2))
    RANDOM = ((14, 0.2), (16, 0.2), (17, 0.18), (18, 0.15), (20, 0.15))
    SETS_PER_GRAPH = 100
    SETS_PER_PASS = (len(CORONAS) + len(RANDOM)) * SETS_PER_GRAPH

    def __init__(self, seed: int, reference: dict) -> None:
        self.seed = seed
        self.reference = reference.get(str(seed))

    def graphs(self, pass_index: int) -> list:
        graph, products = mod("graph"), mod("products")
        out = []
        for slot, (a, b) in enumerate(self.CORONAS):
            g = graph.random_connected_graph(a, 0.5, derive(self.seed, pass_index, slot, 0))
            h = graph.random_connected_graph(b, 0.5, derive(self.seed, pass_index, slot, 1))
            out.append(products.corona(g, h)[0])
        for slot, (n, p) in enumerate(self.RANDOM, start=len(self.CORONAS)):
            out.append(graph.random_connected_graph(n, p, derive(self.seed, pass_index, slot)))
        return out

    def inputs(self, pass_index: int) -> list:
        """SETS_PER_GRAPH distinct sampled dominating sets for each graph of the pass."""
        sample = mod("domination").sample_dominating_sets
        items = []
        for slot, g in enumerate(self.graphs(pass_index)):
            fresh: dict[int, None] = {}
            for draw in range(_MAX_DRAW_ROUNDS):
                for s in sample(g, self.SETS_PER_GRAPH, derive(self.seed, pass_index, slot, draw)):
                    fresh.setdefault(s)
                if len(fresh) >= self.SETS_PER_GRAPH:
                    break
            items += [(g, s) for s in list(fresh)[: self.SETS_PER_GRAPH]]
        return items

    def run_op(self, item):
        g, s = item
        movable = mod("movable")
        literal, distinct = movable.ReplacementMode.LITERAL, movable.ReplacementMode.DISTINCT
        outcomes = (
            (movable.is_1movable_dominating(g, s), literal),
            (movable.is_2movable_dominating(g, s, literal), literal),
            (movable.is_2movable_dominating(g, s, distinct), distinct),
        )
        verified = all(
            movable.verify_certificate(g, s, cert, mode) for cert, mode in outcomes if cert
        )
        return tuple(bool(cert) for cert, _ in outcomes), verified, [
            cert.reason for cert, _ in outcomes if not cert
        ]

    def check(self, pass_index: int, items: list, results: list) -> list[tuple[int, str]]:
        errors = []
        for i, ((g, s), (passed, verified, reasons)) in enumerate(zip(items, results)):
            if not dominates(g, s):
                errors.append((i, "sampled set is not dominating"))
            if not verified:
                errors.append((i, "a returned certificate does not verify"))
            if "not-dominating" in reasons:
                errors.append((i, "a dominating set was reported not dominating"))
            if passed[2] and not passed[1]:
                errors.append((i, "2-movable under DISTINCT but not under LITERAL"))
        # Pass-level errors (index -1) count against every operation of the pass.
        if len(items) != self.SETS_PER_PASS:
            errors.append((-1, f"pass {pass_index} drew {len(items)} sets, not {self.SETS_PER_PASS}"))
        if self.reference and pass_index < len(self.reference):
            if self.pass_reference(pass_index, results) != self.reference[pass_index]:
                errors.append((-1, f"pass {pass_index}: pass counts differ from the reference"))
        return errors

    def pass_reference(self, pass_index: int, results: list) -> list[int]:
        """Sets passing the 1-movable, 2-movable literal and distinct checks."""
        return [sum(r[0][i] for r in results) for i in range(3)]


WORKLOADS = {w.name: w for w in (VerifyEnum, SolveLarge, CertifySampled)}
