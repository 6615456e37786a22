"""movdom benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {verify-enum,solve-large,certify-sampled}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports movdom from its
``src/`` directory, never from an installed copy.  A single closed-loop
caller drives the public API: no threads, no extra processes.

``--trace 0`` sets up SETUP_REPEATS times (each time re-importing movdom
and building the inputs), then runs whole passes over the workload's inputs
until ``--seconds`` have gone by, timing every operation.  It reports:

- ``setup_s``: the median set-up time;
- ``pass_s``: the median pass time;
- ``peak_rss_mb``: the process's peak resident set size.

On a shared host other tenants' load slows the CPU by up to 2x for
seconds to minutes.  So both times are given at a fixed reference speed,
measured by a pure-Python calibration loop that uses no movdom code:
while the set-ups or a pass run, a timer signal runs a short slice of the
loop every PROBE_INTERVAL_S.  The median set-up time and each pass time,
less the time spent in those probes, are scaled by the median probe taken
while they ran.  The figures a user knows (verify_s, solve_s,
certify_per_s, certify_p50_ms, certify_p99_ms) are printed from the
unscaled wall times, next to the probes.

``--trace 1`` runs one untraced pass, then
installs the tracer (bench/tracer.py), repeats set-up and the same pass
traced, and reports per-layer metrics and the tracing overhead (traced
pass wall time minus untraced).  A traced run does a fixed amount of work,
so its counts repeat exactly for a given seed; it writes its spans and
counts to ``.bench_out/``.

Every output is checked (see bench/workloads.py).  Human-readable lines go
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = ROOT / ".bench_out"

# Enough set-ups (15-70 ms each) for the probe to tick several times.
SETUP_REPEATS = 21

# A probe runs PROBE_MASKS masks of calibration_loop (about 1 ms) every
# PROBE_INTERVAL_S seconds, so it costs about 1% of the time it samples.
PROBE_MASKS = 2_000
PROBE_INTERVAL_S = 0.1
# The probe's time at the reference speed.  Fixed for good: changing it
# rescales every reported time.
PROBE_REF_S = 0.00075


def _calibration_step(x: int, i: int) -> int:
    return (x * 31 + (i ^ (i >> 3))) & 0xFFFFFF


def _calibration_masks(count: int):
    mask = 0b111
    for _ in range(count):
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def calibration_loop(masks: int) -> int:
    """Fixed pure-Python work (calls, a generator, int bit operations), no movdom."""
    x = 0
    for i, mask in enumerate(_calibration_masks(masks)):
        x = _calibration_step(x, i) | mask.bit_count() << 24
    return x


class SpeedProbe:
    """Samples the CPU's speed while set-up or a pass runs, from a SIGALRM timer.

    Each tick times calibration_loop(PROBE_MASKS) in the signal handler,
    which runs in the main thread between bytecodes: no thread is started.
    ``spent`` is the total time in probes, to take out of the times measured.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        calibration_loop(PROBE_MASKS)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # shorter than one interval
            self.tick()

    def speed(self) -> float:
        """Reference over measured probe time: 1.0 at the reference speed."""
        return PROBE_REF_S / statistics.median(self.samples)


class SetupError(Exception):
    """movdom cannot be imported from this checkout."""


def import_movdom() -> None:
    """(Re-)import movdom from the checkout's src/, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "movdom" or m.startswith("movdom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        movdom = importlib.import_module("movdom")
    except ImportError as exc:
        raise SetupError(f"cannot import movdom from {SRC}: {exc}") from None
    if SRC not in Path(movdom.__file__).resolve().parents:
        raise SetupError(f"movdom was imported from {movdom.__file__}, not from {SRC}")
    for sub in ("graph", "domination", "movable", "products", "harness", "cli"):
        importlib.import_module(f"movdom.{sub}")


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def setup(workload_cls, seed: int, reference: dict):
    """Import movdom and build the workload and its first pass's inputs."""
    import_movdom()
    workload = workload_cls(seed, reference)
    return workload, workload.inputs(0)


def run_pass(workload, items: list, probe: SpeedProbe | None = None):
    """Run every operation of one pass, timing each.

    Returns (results, per-op seconds, pass seconds, error).  Time spent in
    ``probe``'s ticks is left out of every figure.  An operation that
    raises ends the pass; the error names it.
    """
    probe = probe or SpeedProbe()

    def clock() -> float:
        return time.perf_counter() - probe.spent

    results, times = [], []
    start = clock()
    for item in items:
        t0 = clock()
        try:
            results.append(workload.run_op(item))
        except Exception as exc:  # a failed operation is reported, not fatal
            return results, times, clock() - start, f"operation raised {exc!r}"
        times.append(clock() - t0)
    return results, times, clock() - start, None


def failed_ops(workload, pass_index: int, items: list, results: list, error: str | None, errors: list):
    """Number of failed operations in one pass; messages go to ``errors``."""
    if error is not None:
        errors.append(f"pass {pass_index}: {error}")
        return 1
    try:
        found = workload.check(pass_index, items, results)
    except Exception as exc:  # a malformed output fails the whole pass
        found = [(-1, f"checking raised {exc!r}")]
    errors += [f"pass {pass_index}: {msg}" for _, msg in found]
    indices = {i for i, _ in found}
    return len(items) if -1 in indices else len(indices)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(workload_cls, seed: int, seconds: float):
    reference = load_reference(workload_cls.name)
    setup_times = []
    with SpeedProbe() as setup_probe:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter() - setup_probe.spent
            workload, items = setup(workload_cls, seed, reference)
            setup_times.append(time.perf_counter() - setup_probe.spent - t0)

    pass_times, pass_scaled, probes, errors = [], [], [], []
    op_times = array("d")
    attempted = failed = 0
    start = time.perf_counter()
    pass_index = 0
    while True:
        if pass_index:
            items = workload.inputs(pass_index)
        gc.collect()
        with SpeedProbe() as probe:
            results, times, pass_s, error = run_pass(workload, items, probe)
        attempted += len(results) + (error is not None)
        failed += failed_ops(workload, pass_index, items, results, error, errors)
        pass_times.append(pass_s)
        pass_scaled.append(pass_s * probe.speed())
        probes.append(statistics.median(probe.samples))
        op_times.extend(times)
        pass_index += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "setup_s": (statistics.median(setup_times) * setup_probe.speed(), "s"),
        "pass_s": (statistics.median(pass_scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [
        f"workload {workload_cls.name}  seed {seed}  seconds {seconds:g}  trace 0",
        f"passes {len(pass_times)}  operations {attempted}  failed {failed}  "
        f"error_rate {failed / max(attempted, 1):g}",
        "set-up wall s  " + " ".join(f"{t:.4f}" for t in setup_times),
        "pass wall s    " + " ".join(f"{t:.3f}" for t in pass_times),
        f"probe ms       {PROBE_REF_S * 1e3:.2f} at the reference speed; median in set-up "
        f"{statistics.median(setup_probe.samples) * 1e3:.3f}, per pass "
        + " ".join(f"{c * 1e3:.3f}" for c in probes),
        f"wall: set-up median {statistics.median(setup_times):.4f} s, "
        f"pass median {statistics.median(pass_times):.4f} s, fastest {min(pass_times):.4f} s",
    ]
    lines += _user_figures(workload_cls.name, len(items), statistics.median(pass_times), op_times)
    lines.append("setup_s and pass_s below are scaled to the reference CPU speed, not wall times")
    return metrics, attempted, failed, errors, lines


def _user_figures(name: str, ops_per_pass: int, pass_wall_s: float, op_times) -> list[str]:
    """The figures a user of each workload knows, from the run's wall times."""
    if name == "verify-enum":
        return [f"verify_s {pass_wall_s:.4f} s wall (median pass: one verify --max-order 6 call)"]
    if name == "solve-large":
        return [f"solve_s {pass_wall_s:.4f} s wall (median pass: the whole solve-large list)"]
    out = [
        f"certify_per_s {ops_per_pass / pass_wall_s:.1f} 1/s wall ({ops_per_pass} sets / median pass)",
        f"certify_p50_ms {statistics.median(op_times) * 1e3:.4f} ms wall (n={len(op_times)})",
    ]
    if len(op_times) >= 1010:
        p99 = statistics.quantiles(op_times, n=100)[98]
        beyond = sum(t > p99 for t in op_times)
        out.append(f"certify_p99_ms {p99 * 1e3:.4f} ms wall (n={len(op_times)}, {beyond} beyond)")
    return out


def traced(workload_cls, seed: int):
    from tracer import Tracer

    reference = load_reference(workload_cls.name)
    workload, items = setup(workload_cls, seed, reference)
    errors: list[str] = []
    results, _, untraced_s, error = run_pass(workload, items)
    attempted = len(results) + (error is not None)
    failed = failed_ops(workload, 0, items, results, error, errors)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            fresh = workload_cls(seed, reference)
            items = fresh.inputs(0)
        with tracer.span("bench.pass"):
            results, _, traced_s, error = run_pass(fresh, items)
    finally:
        tracer.uninstall()
    attempted += len(results) + (error is not None)
    failed += failed_ops(workload, 0, items, results, error, errors)

    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    counts = tracer.exact_counts()
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload_cls.name}-seed{seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": workload_cls.name,
                "seed": seed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "counts": counts,
                "span_fields": ["name", "start_s", "end_s", "parent"],
                "spans": tracer.spans,
            }
        )
    )
    lines = [
        f"workload {workload_cls.name}  seed {seed}  trace 1  (one untraced + one traced pass)",
        f"operations {attempted}  failed {failed}  error_rate {failed / max(attempted, 1):g}",
        f"untraced pass {untraced_s:.4f} s  traced pass {traced_s:.4f} s  "
        f"overhead {traced_s - untraced_s:.4f} s ({(traced_s / untraced_s - 1) * 100:.0f}%)",
        f"spans {len(tracer.spans)} -> {trace_path.relative_to(ROOT)}",
    ]
    for label, per_k in counts["candidates_per_k"].items():
        lines.append(f"candidates {label}: " + " ".join(f"k{k}={c}" for k, c in per_k.items()))
    return metrics, attempted, failed, errors, lines


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload_cls = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, errors, lines = traced(workload_cls, args.seed)
        else:
            metrics, attempted, failed, errors, lines = untraced(workload_cls, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(map(len, metrics))
    lines += [f"{name:<{width}}  {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"FAILED {e}" for e in errors[:20]]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 and not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
