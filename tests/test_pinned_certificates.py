"""Certificates and failures frozen byte for byte.

The expected values were recorded from the predicates that tested every
move with a fresh domination check.  Any change to the scan order (pairs
ascending, drops before swaps, (u, v) ascending, DISTINCT skipping
u == v) shows up here as a changed move or a changed stuck member.
"""

import pytest

from movdom import (
    MovabilityFailure,
    ReplacementMode,
    corona,
    cycle,
    gamma_m1,
    gamma_m2,
    is_1movable_dominating,
    is_2movable_dominating,
    mask_of,
    path,
    star,
    vertex_list,
)

LITERAL = ReplacementMode.LITERAL
DISTINCT = ReplacementMode.DISTINCT

GRAPHS = {
    "path(8)": path(8),
    "cycle(9)": cycle(9),
    "star(5)": star(5),
    "corona(C3, P2)": corona(cycle(3), path(2))[0],
}


def _drop(v):
    return {"vertex": v, "action": "drop"} if isinstance(v, int) else {"pair": v, "action": "drop"}


def _swap(v, r):
    key = "vertex" if isinstance(v, int) else "pair"
    return {key: v, "action": "swap", "replacement": r}


# (graph, solver) -> (witness, to_json_dict()["moves"]), or None when absent
SOLVER_CERTIFICATES = {
    ("path(8)", "m1"): (
        [0, 1, 4, 6],
        [_drop(0), _swap(1, 2), _swap(4, 3), _swap(6, 7)],
    ),
    ("path(8)", "literal"): (
        [0, 2, 4, 6],
        [
            _swap([0, 2], [1, 1]),
            _swap([0, 4], [1, 3]),
            _swap([0, 6], [1, 7]),
            _swap([2, 4], [1, 3]),
            _swap([2, 6], [1, 7]),
            _swap([4, 6], [5, 7]),
        ],
    ),
    ("path(8)", "distinct"): (
        [0, 2, 4, 6],
        [
            _swap([0, 2], [1, 3]),
            _swap([0, 4], [1, 3]),
            _swap([0, 6], [1, 7]),
            _swap([2, 4], [1, 3]),
            _swap([2, 6], [1, 7]),
            _swap([4, 6], [5, 7]),
        ],
    ),
    ("cycle(9)", "m1"): (
        [0, 1, 4, 6],
        [_swap(0, 8), _swap(1, 2), _swap(4, 3), _swap(6, 7)],
    ),
    ("cycle(9)", "literal"): (
        [0, 2, 4, 6],
        [
            _swap([0, 2], [8, 1]),
            _swap([0, 4], [8, 3]),
            _swap([0, 6], [1, 7]),
            _swap([2, 4], [1, 3]),
            _swap([2, 6], [1, 7]),
            _swap([4, 6], [5, 7]),
        ],
    ),
    ("cycle(9)", "distinct"): (
        [0, 2, 4, 6],
        [
            _swap([0, 2], [8, 1]),
            _swap([0, 4], [8, 3]),
            _swap([0, 6], [1, 7]),
            _swap([2, 4], [1, 3]),
            _swap([2, 6], [1, 7]),
            _swap([4, 6], [5, 7]),
        ],
    ),
    ("star(5)", "m1"): (
        [0, 1, 2, 3],
        [_swap(0, 4), _drop(1), _drop(2), _drop(3)],
    ),
    ("star(5)", "literal"): (
        [1, 2, 3, 4],
        [_swap(list(p), [0, 0]) for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]],
    ),
    ("star(5)", "distinct"): None,
    ("corona(C3, P2)", "m1"): (
        [0, 1, 2],
        [_swap(0, 3), _swap(1, 5), _swap(2, 7)],
    ),
    ("corona(C3, P2)", "literal"): (
        [0, 1, 2],
        [_swap([0, 1], [3, 5]), _swap([0, 2], [3, 7]), _swap([1, 2], [5, 7])],
    ),
    ("corona(C3, P2)", "distinct"): (
        [0, 1, 2],
        [_swap([0, 1], [3, 5]), _swap([0, 2], [3, 7]), _swap([1, 2], [5, 7])],
    ),
}

# A set that is not a solver witness, mixing drops and swaps at both levels.
MIXED_SET = mask_of(0, 2, 4, 6, 8)
MIXED_MOVES = {
    1: [_drop(0), _drop(2), _drop(4), _swap(6, 1), _drop(8)],
    LITERAL: [
        _drop([0, 2]),
        _swap([0, 4], [1, 3]),
        _swap([0, 6], [1, 1]),
        _drop([0, 8]),
        _drop([2, 4]),
        _swap([2, 6], [1, 1]),
        _swap([2, 8], [1, 7]),
        _swap([4, 6], [3, 1]),
        _drop([4, 8]),
        _swap([6, 8], [1, 7]),
    ],
    DISTINCT: [
        _drop([0, 2]),
        _swap([0, 4], [1, 3]),
        _swap([0, 6], [1, 5]),
        _drop([0, 8]),
        _drop([2, 4]),
        _swap([2, 6], [1, 5]),
        _swap([2, 8], [1, 7]),
        _swap([4, 6], [3, 1]),
        _drop([4, 8]),
        _swap([6, 8], [1, 7]),
    ],
}

# (graph, set, level or mode) -> the failure
FAILURES = [
    ("path(8)", (0, 3, 6), 1, MovabilityFailure("immovable-vertex", 3)),
    ("cycle(9)", (0, 3, 6), 1, MovabilityFailure("immovable-vertex", 0)),
    ("star(5)", (0,), 1, MovabilityFailure("immovable-vertex", 0)),
    ("path(8)", (0, 3, 6), LITERAL, MovabilityFailure("immovable-pair", (0, 6))),
    ("path(8)", tuple(range(8)), LITERAL, MovabilityFailure("immovable-pair", (0, 1))),
    ("star(5)", (0,), LITERAL, MovabilityFailure("singleton")),
    ("star(5)", (1, 2, 3, 4), DISTINCT, MovabilityFailure("immovable-pair", (1, 2))),
    ("corona(C3, P2)", (1, 2, 3, 4), DISTINCT, MovabilityFailure("immovable-pair", (3, 4))),
]


def _check(g, s, level_or_mode):
    if level_or_mode == 1:
        return is_1movable_dominating(g, s)
    return is_2movable_dominating(g, s, level_or_mode)


@pytest.mark.parametrize("name, solver", list(SOLVER_CERTIFICATES), ids=str)
def test_solver_certificate_pinned(name, solver):
    g = GRAPHS[name]
    result = gamma_m1(g) if solver == "m1" else gamma_m2(g, ReplacementMode(solver))
    expected = SOLVER_CERTIFICATES[(name, solver)]
    if expected is None:
        assert not result.exists
        return
    witness, moves = expected
    assert vertex_list(result.witness) == witness
    level = 1 if solver == "m1" else 2
    assert result.certificate.to_json_dict() == {"level": level, "moves": moves}


@pytest.mark.parametrize("level_or_mode", [1, LITERAL, DISTINCT], ids=str)
def test_mixed_certificate_pinned(level_or_mode):
    cert = _check(GRAPHS["corona(C3, P2)"], MIXED_SET, level_or_mode)
    level = 1 if level_or_mode == 1 else 2
    assert cert.to_json_dict() == {"level": level, "moves": MIXED_MOVES[level_or_mode]}


@pytest.mark.parametrize("name, members, level_or_mode, failure", FAILURES, ids=str)
def test_failure_pinned(name, members, level_or_mode, failure):
    assert _check(GRAPHS[name], mask_of(*members), level_or_mode) == failure
