"""In-process tracer for the benchmark's traced run.

The tracer replaces public movdom functions with timing wrappers on every
movdom module attribute that refers to them, so a caller that did
``from .domination import is_dominating`` sees the wrapper too.  Nothing
under ``src/`` is changed and nothing is written until the run ends.

Three kinds of wrapper:

- span: records (name, start, end, parent span) for claim runners,
  solver calls, pool building, product constructors and sampling;
- frame: aggregated calls that still have wrapped callees (movability
  predicates, certificate verification), so their callees' time is
  subtracted from their own layer;
- leaf / generator: hot calls (``is_dominating``, ``is_connected``, each
  subset or graph yielded) that only add to counts and busy time.

Every wrapped call charges its duration to its caller's child time, so a
layer's self time is its calls' durations minus the time spent in wrapped
callees.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "domination", "movable", "products", "harness", "cli")

CLAIM_RUNNERS = {
    "verify_remark_3_1": "remark-3.1",
    "verify_theorem_3_2": "theorem-3.2",
    "verify_theorem_3_3": "theorem-3.3",
    "verify_theorem_3_6": "theorem-3.6",
    "verify_corollary_3_1": "corollary-3.1",
    "verify_lemma_3_4": "lemma-3.4",
    "verify_lemma_3_5": "lemma-3.5",
}

# (defining module, function, kind); the layer is the defining module.
WRAPPED = [
    ("graph", "is_connected", "leaf"),
    ("graph", "enumerate_connected_graphs", "gen"),
    ("domination", "is_dominating", "leaf"),
    ("domination", "ascending_k_subsets", "gen"),
    ("domination", "gamma", "solver"),
    ("domination", "sample_dominating_sets", "span"),
    ("movable", "gamma_m1", "solver"),
    ("movable", "gamma_m2", "solver"),
    ("movable", "is_1movable_dominating", "check"),
    ("movable", "is_2movable_dominating", "check"),
    ("movable", "verify_certificate", "frame"),
    ("products", "corona", "span"),
    ("products", "join", "span"),
    ("products", "slice_copy", "span"),
    ("harness", "default_pools", "span"),
    ("harness", "run_all", "span"),
    *[("harness", fn, "span") for fn in CLAIM_RUNNERS],
    ("cli", "main", "span"),
]

MOVABLE_SOLVERS = ("gamma_m1", "gamma_m2/literal", "gamma_m2/distinct")

# Frames are lists: [child seconds, label, enclosing span index].
_CHILD, _LABEL, _SPAN = 0, 1, 2


class Tracer:
    """Counts, busy time, self time per layer and spans for one traced run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack = [[0.0, "bench", -1]]
        self.spans: list[list] = []
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.candidates: defaultdict[tuple[str, int], int] = defaultdict(int)
        self.scan_dominating: defaultdict[str, int] = defaultdict(int)
        self.checks = 0
        self.check_passes = 0
        self.solver_calls = 0
        self.solver_graphs: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "movdom" or name.startswith("movdom.")]
        for layer, fn_name, kind in WRAPPED:
            original = getattr(sys.modules[f"movdom.{layer}"], fn_name)
            name = self._name(layer, fn_name)
            wrapper = getattr(self, f"_wrap_{kind}")(original, layer, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @staticmethod
    def _name(layer: str, fn_name: str) -> str:
        return f"{layer}.{CLAIM_RUNNERS.get(fn_name, fn_name)}"

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around one of the benchmark's own steps."""
        parent, frame, index = self._enter_span(name, name)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self.spans[index][1:3] = (t0, t1)
            self.stack.pop()
            parent[_CHILD] += t1 - t0

    # -- wrappers ---------------------------------------------------------

    def _enter_span(self, span_name: str, label: str):
        parent = self.stack[-1]
        index = len(self.spans)
        self.spans.append([span_name, 0.0, 0.0, parent[_SPAN]])
        frame = [0.0, label, index]
        self.stack.append(frame)
        return parent, frame, index

    def _exit(self, parent, frame, layer: str, name: str, t0: float, t1: float) -> None:
        self.stack.pop()
        dt = t1 - t0
        parent[_CHILD] += dt
        self.busy[name] += dt
        self.calls[name] += 1
        self.self_s[layer] += dt - frame[_CHILD]

    def _call_in_span(self, fn, args, kwargs, layer, name, label):
        parent, frame, index = self._enter_span(f"{layer}.{label}", label)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.spans[index][1:3] = (t0, t1)
            self._exit(parent, frame, layer, name, t0, t1)

    def _wrap_span(self, fn, layer, name):
        label = name.split(".", 1)[1]

        def wrapper(*args, **kwargs):
            return self._call_in_span(fn, args, kwargs, layer, name, label)

        return wrapper

    def _wrap_solver(self, fn, layer, name):
        base = name.split(".", 1)[1]

        def wrapper(g, *args, **kwargs):
            label = base
            if base == "gamma_m2":
                mode = args[0] if args else kwargs.get("mode")
                label += "/" + (mode.value if mode is not None else "literal")
            self.solver_calls += 1
            self.solver_graphs.add((g.n, g.adj))
            return self._call_in_span(fn, (g, *args), kwargs, layer, name, label)

        return wrapper

    def _wrap_frame(self, fn, layer, name):
        clock, stack = self.clock, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, parent[_SPAN]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(parent, frame, layer, name, t0, clock())

        return wrapper

    def _wrap_check(self, fn, layer, name):
        timed = self._wrap_frame(fn, layer, name)

        def wrapper(*args, **kwargs):
            caller = self.stack[-1][_LABEL]
            result = timed(*args, **kwargs)
            self.checks += 1
            if result:
                self.check_passes += 1
            if caller in MOVABLE_SOLVERS and (result or result.reason != "not-dominating"):
                self.scan_dominating[caller] += 1
            return result

        return wrapper

    def _wrap_leaf(self, fn, layer, name):
        clock, stack, busy, calls, self_s = self.clock, self.stack, self.busy, self.calls, self.self_s

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            stack[-1][_CHILD] += dt
            busy[name] += dt
            calls[name] += 1
            self_s[layer] += dt
            return result

        return wrapper

    def _wrap_gen(self, fn, layer, name):
        clock, stack = self.clock, self.stack

        def wrapper(*args):
            # Candidates are attributed to the solver iterating them, per k.
            key = (stack[-1][_LABEL], args[1]) if len(args) > 1 else None
            it = fn(*args)
            yielded = 0
            try:
                while True:
                    parent = stack[-1]
                    frame = [0.0, name, parent[_SPAN]]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(parent, frame, layer, name, t0, clock())
                    yielded += 1
                    yield value
            finally:
                if key is not None:
                    self.candidates[key] += yielded
                else:
                    self.calls[name + ".yielded"] += yielded

        return wrapper

    # -- report -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        busy, calls = self.busy, self.calls
        gamma_candidates = sum(c for (label, _), c in self.candidates.items() if label == "gamma")
        movable_candidates = sum(
            c for (label, _), c in self.candidates.items() if label in MOVABLE_SOLVERS
        )
        movable_dominating = sum(self.scan_dominating.values())
        out = {
            "graph.enumerate_s": (busy["graph.enumerate_connected_graphs"], "s"),
            "graph.is_connected_calls": (calls["graph.is_connected"], "count"),
            "domination.is_dominating_calls": (calls["domination.is_dominating"], "count"),
            "domination.is_dominating_s": (busy["domination.is_dominating"], "s"),
            "domination.gamma_calls": (calls["domination.gamma"], "count"),
            "domination.gamma_s": (busy["domination.gamma"], "s"),
            "domination.candidates": (gamma_candidates, "count"),
            "domination.sample_s": (busy["domination.sample_dominating_sets"], "s"),
            "movable.gamma_m1_calls": (calls["movable.gamma_m1"], "count"),
            "movable.gamma_m1_s": (busy["movable.gamma_m1"], "s"),
            "movable.gamma_m2_calls": (calls["movable.gamma_m2"], "count"),
            "movable.gamma_m2_s": (busy["movable.gamma_m2"], "s"),
            "movable.candidates": (movable_candidates, "count"),
            "movable.candidate_yield": (_ratio(movable_dominating, movable_candidates), "ratio"),
            "movable.checks": (self.checks, "count"),
            "movable.check_pass": (_ratio(self.check_passes, self.checks), "ratio"),
            "movable.verify_certificate_s": (busy["movable.verify_certificate"], "s"),
            "products.build_s": (
                busy["products.corona"] + busy["products.join"] + busy["products.slice_copy"],
                "s",
            ),
            "harness.pools_s": (busy["harness.default_pools"], "s"),
        }
        for claim in CLAIM_RUNNERS.values():
            out[f"harness.{claim}_s"] = (busy[f"harness.{claim}"], "s")
        out["harness.solver_calls_per_graph"] = (
            _ratio(self.solver_calls, len(self.solver_graphs)),
            "ratio",
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def exact_counts(self) -> dict:
        """Every count the traced run makes, for run-to-run comparison."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "candidates_per_k": {
                label: {
                    str(k): c for (lab, k), c in sorted(self.candidates.items()) if lab == label
                }
                for label in sorted({lab for lab, _ in self.candidates})
            },
            "scan_dominating": dict(sorted(self.scan_dominating.items())),
            "checks": self.checks,
            "check_passes": self.check_passes,
            "solver_calls": self.solver_calls,
            "distinct_solver_graphs": len(self.solver_graphs),
            "spans": len(self.spans),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
