"""Command-line front end.

Subcommands: ``compute`` (invariants with witnesses and certificates),
``build`` (join and corona products written as edge-list files with a
layout sidecar), and ``verify`` (the claim-validation harness).

Exit codes: 0 success, 1 usage or parse error, 2 the requested invariant
does not exist, 3 at least one claim failed validation.

Graph sources: either an edge-list file, or a family spec in the
mini-grammar "name:params", e.g. path:4, cycle:5, complete:3, star:4,
complete_bipartite:2:3.  For ``build``, prefix a family spec with
"family:"; anything else is read as a file path.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

from .domination import check_solver_order, gamma
from .graph import (
    ENUMERATION_MAX_ORDER,
    Graph,
    family_order,
    format_edge_list,
    from_edge_list,
    make_family,
    read_edge_list,
    vertex_list,
)
from .harness import CLAIM_IDS, BudgetConfig, run_all
from .movable import MovabilityCertificate, ReplacementMode, gamma_m1, gamma_m2
from .products import corona, join

SCHEMA = "movdom/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_EXISTS = 2
EXIT_CLAIM_FAILURE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the
    # invariant-does-not-exist code; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(source: str, family: bool, check: Callable[[int], None] | None = None) -> Graph:
    """The graph named by a family spec ("name:params") or an edge-list path.

    The order comes first (family_order, or the edge list's header), and
    ``check`` runs on it before anything is sized by n.
    """
    if family:
        name, *raw_params = source.split(":")
        if not raw_params:
            raise ValueError(f"family spec {source!r} is missing parameters")
        try:
            params = [int(p) for p in raw_params]
        except ValueError:
            raise ValueError(f"family spec {source!r} has non-integer parameters") from None
        n = family_order(name, *params)
    else:
        n, edges = read_edge_list(Path(source).read_text(encoding="ascii"))
    if check is not None:
        check(n)
    return make_family(name, *params) if family else from_edge_list(n, edges)


def _json_out(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_compute(args) -> int:
    family = args.family is not None
    g = _read_graph(args.family if family else args.input, family, check_solver_order)
    mode = ReplacementMode(args.mode)
    if args.which == "gamma":
        result = gamma(g)
    elif args.which == "gamma-m1":
        result = gamma_m1(g)
    else:
        result = gamma_m2(g, mode)

    payload: dict = {
        "schema": SCHEMA,
        "invariant": args.which,
        "value": result.value if result.exists else "none",
        "witness": vertex_list(result.witness) if result.exists else None,
    }
    if args.which == "gamma-m2":
        payload["mode"] = mode.value
    if result.certificate is not None:
        payload["certificate"] = result.certificate.to_json_dict()

    if args.json:
        _json_out(payload)
    else:
        _print_human_result(payload, result.certificate)
    return EXIT_OK if result.exists else EXIT_NOT_EXISTS


def _print_human_result(payload: dict, cert: MovabilityCertificate | None) -> None:
    header = payload["invariant"]
    print(f"{header} mode={payload['mode']}" if "mode" in payload else header)
    print(f"value: {payload['value']}")
    if payload["witness"] is None:
        return
    print("witness:", *payload["witness"])
    if cert is not None:
        print("certificate:")
        kind = "vertex" if cert.level == 1 else "pair"
        for move in cert.moves:
            action = "drop" if move.is_drop else "swap " + ",".join(map(str, move.replacement))
            print(f"  {kind} {','.join(map(str, move.members))}: {action}")


def _cmd_build(args) -> int:
    left, right = (
        _read_graph(spec.removeprefix("family:"), spec.startswith("family:"))
        for spec in (args.left, args.right)
    )
    build = join if args.product == "join" else corona
    product, layout = build(left, right)
    layout_payload = {"schema": SCHEMA, "product": args.product, "n": product.n, **asdict(layout)}

    out_path = Path(args.output)
    sidecar_path = Path(str(out_path) + ".layout.json")
    out_path.write_text(format_edge_list(product), encoding="ascii")
    sidecar_path.write_text(
        json.dumps(layout_payload, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )

    summary = {
        "schema": SCHEMA,
        "product": args.product,
        "n": product.n,
        "edge_count": product.edge_count,
        "output": str(out_path),
        "layout": str(sidecar_path),
    }
    if args.json:
        _json_out(summary)
    else:
        print(
            f"{args.product}: {product.n} vertices, {product.edge_count} edges "
            f"-> {out_path} (layout: {sidecar_path})"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    # a budget left off the command line keeps its BudgetConfig default
    given = {"max_order": args.max_order, "samples": args.samples, "seed": args.seed}
    given["movable_samples"] = args.samples
    budget = BudgetConfig(**{k: v for k, v in given.items() if v is not None})
    reports = run_all(budget, args.claim)

    if args.json:
        _json_out(
            {
                "schema": SCHEMA,
                "seed": budget.seed,
                "reports": [r.to_json_dict() for r in reports],
            }
        )
    else:
        for r in reports:
            flag = "PASS" if r.passed else "FAIL"
            vacuous = ", vacuous" if r.instances == 0 else ""
            print(f"{r.claim}: {flag} ({r.instances} instances{vacuous})")
            if r.counterexample is not None:
                print(f"  counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CLAIM_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="movdom", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute an invariant with witness")
    p_compute.add_argument("which", choices=["gamma", "gamma-m1", "gamma-m2"])
    source = p_compute.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="family spec, e.g. path:4")
    source.add_argument("--input", help="edge-list file to read")
    p_compute.add_argument(
        "--mode", choices=[m.value for m in ReplacementMode], default=ReplacementMode.LITERAL.value
    )
    p_compute.add_argument("--json", action="store_true")
    p_compute.set_defaults(func=_cmd_compute)

    p_build = sub.add_parser("build", help="build a graph product")
    p_build.add_argument("product", choices=["join", "corona"])
    p_build.add_argument("--left", required=True, help="family:SPEC or edge-list path")
    p_build.add_argument("--right", required=True, help="family:SPEC or edge-list path")
    p_build.add_argument("--output", required=True, help="edge-list file to write")
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="validate the claims on instance pools")
    p_verify.add_argument(
        "--claim",
        action="append",
        choices=list(CLAIM_IDS),
        help="run one claim (repeatable; default: every claim)",
    )
    p_verify.add_argument(
        "--max-order",
        type=int,
        default=None,
        dest="max_order",
        help=f"largest graph order in the default pools, 0..{ENUMERATION_MAX_ORDER} "
        f"(default {BudgetConfig.max_order})",
    )
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a bad input, a failed read or write, a bad value or no memory exits 1."""
    args = build_parser().parse_args(argv)
    try:
        if sys.stdout is None:
            raise OSError("standard output is closed")
        return args.func(args)
    except (OSError, ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
