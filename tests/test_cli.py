import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

import movdom.harness
from movdom import JointResult, SolverResult, format_edge_list, mask_of, path
from movdom.cli import main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCompute:
    def test_gamma_m2_distinct_json(self, capsys):
        code, out, _ = run_cli(
            ["compute", "gamma-m2", "--family", "path:4", "--mode", "distinct", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {
            "schema": "movdom/1",
            "invariant": "gamma-m2",
            "mode": "distinct",
            "value": 2,
            "witness": [0, 2],
            "certificate": {
                "level": 2,
                "moves": [{"pair": [0, 2], "action": "swap", "replacement": [1, 3]}],
            },
        }

    def test_not_exists_exit_code(self, capsys):
        code, out, _ = run_cli(
            ["compute", "gamma-m2", "--family", "star:4", "--mode", "distinct", "--json"],
            capsys,
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["value"] == "none"
        assert payload["witness"] is None

    def test_gamma_complete_5(self, capsys):
        code, out, _ = run_cli(["compute", "gamma", "--family", "complete:5", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 1

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["gamma-m1", "--family", "cycle:6"],
                "gamma-m1\nvalue: 3\nwitness: 0 1 3\ncertificate:\n"
                "  vertex 0: swap 5\n  vertex 1: drop\n  vertex 3: swap 4\n",
            ),
            (
                ["gamma-m2", "--family", "star:4"],
                "gamma-m2 mode=literal\nvalue: 3\nwitness: 1 2 3\ncertificate:\n"
                "  pair 1,2: swap 0,0\n  pair 1,3: swap 0,0\n  pair 2,3: swap 0,0\n",
            ),
            (
                ["gamma-m2", "--family", "path:4", "--mode", "distinct"],
                "gamma-m2 mode=distinct\nvalue: 2\nwitness: 0 2\ncertificate:\n"
                "  pair 0,2: swap 1,3\n",
            ),
        ],
        ids=["m1-cycle6", "m2-star4", "m2-distinct-path4"],
    )
    def test_human_output(self, argv, expected, capsys):
        code, out, _ = run_cli(["compute", *argv], capsys)
        assert code == 0
        assert out == expected

    def test_bad_family_spec(self, capsys):
        code, _, err = run_cli(["compute", "gamma", "--family", "path:x"], capsys)
        assert code == 1
        assert "non-integer" in err

    def test_family_missing_params(self, capsys):
        code, _, err = run_cli(["compute", "gamma", "--family", "path"], capsys)
        assert code == 1
        assert "missing parameters" in err

    def test_empty_family_spec(self, capsys):
        code, _, err = run_cli(["compute", "gamma", "--family", ""], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run_cli(["compute", "gamma", "--input", str(tmp_path / "nope")], capsys)
        assert code == 1
        assert "error" in err

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "p4.edges"
        target.write_text(format_edge_list(path(4)), encoding="ascii")
        code, out, _ = run_cli(["compute", "gamma", "--input", str(target), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["witness"] == [0, 2]

    def test_solver_cap_reported(self, capsys, tmp_path):
        target = tmp_path / "big.edges"
        target.write_text(format_edge_list(path(25)), encoding="ascii")
        code, _, err = run_cli(["compute", "gamma", "--input", str(target)], capsys)
        assert code == 1
        assert "capped" in err

    def test_huge_header_rejected_before_allocation(self, capsys, tmp_path):
        target = tmp_path / "huge.edges"
        target.write_text("10000000\n0 1\n", encoding="ascii")
        tracemalloc.start()
        try:
            code, _, err = run_cli(["compute", "gamma", "--input", str(target)], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "capped" in err
        assert peak < 5_000_000  # building the graph would take over 150 MB

    def test_huge_family_rejected_before_building(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(["compute", "gamma", "--family", "path:30000"], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "capped" in err
        assert peak < 5_000_000  # building P30000 takes about 65 MB

    def test_source_flags_are_exclusive(self, capsys, tmp_path):
        code, _, _ = run_cli(
            ["compute", "gamma", "--family", "path:4", "--input", str(tmp_path / "x")],
            capsys,
        )
        assert code == 1

    def test_malformed_edge_file(self, capsys, tmp_path):
        target = tmp_path / "bad.edges"
        target.write_text("3\n0 1 2\n", encoding="ascii")
        code, _, err = run_cli(["compute", "gamma", "--input", str(target)], capsys)
        assert code == 1
        assert "exactly 'u v'" in err

    def test_non_ascii_input(self, capsys, tmp_path):
        # a UnicodeDecodeError is a ValueError, so main reports it like any bad input
        target = tmp_path / "latin1.edges"
        target.write_bytes("# caf\u00e9\n2\n0 1\n".encode("latin-1"))
        code, out, err = run_cli(["compute", "gamma", "--input", str(target)], capsys)
        assert code == 1
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err


class TestBuild:
    def test_corona_build_and_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "c.edges"
        code, out, _ = run_cli(
            [
                "build", "corona",
                "--left", "family:path:3",
                "--right", "family:complete:2",
                "--output", str(out_file),
                "--json",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 9 and summary["edge_count"] == 11

        sidecar = json.loads((tmp_path / "c.edges.layout.json").read_text())
        assert sidecar["product"] == "corona"
        assert sidecar["centers"] == [0, 1, 2]
        assert sidecar["copies"] == [[3, 5], [5, 7], [7, 9]]

        code, out, _ = run_cli(
            ["compute", "gamma-m2", "--input", str(out_file), "--json"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_join_build(self, capsys, tmp_path):
        out_file = tmp_path / "w.edges"
        code, out, _ = run_cli(
            [
                "build", "join",
                "--left", "family:complete:1",
                "--right", "family:cycle:4",
                "--output", str(out_file),
                "--json",
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 5 and summary["edge_count"] == 8
        sidecar = json.loads((tmp_path / "w.edges.layout.json").read_text())
        assert sidecar["g_range"] == [0, 1] and sidecar["h_range"] == [1, 5]

    def test_left_source_from_file(self, capsys, tmp_path):
        left = tmp_path / "p2.edges"
        left.write_text(format_edge_list(path(2)), encoding="ascii")
        out_file = tmp_path / "j.edges"
        code, _, _ = run_cli(
            ["build", "join", "--left", str(left), "--right", "family:complete:2",
             "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out_file.exists()

    def test_build_accepts_orders_above_solver_cap(self, capsys, tmp_path):
        target = tmp_path / "p30.edges"
        target.write_text(format_edge_list(path(30)), encoding="ascii")
        code, out, _ = run_cli(
            [
                "build", "join",
                "--left", str(target),
                "--right", "family:path:2",
                "--output", str(tmp_path / "j.edges"),
                "--json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["n"] == 32

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["build", "join", "--left", "family:complete:2", "--right", "family:complete:2",
             "--output", str(tmp_path / "missing-dir" / "x.edges")],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_missing_right_file(self, capsys, tmp_path):
        out_file = tmp_path / "x.edges"
        code, out, err = run_cli(
            ["build", "join", "--left", "family:complete:2", "--right", str(tmp_path / "nope"),
             "--output", str(out_file)],
            capsys,
        )
        assert code == 1
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # The first header overflows a list index, the second (2**62) asks for more
    # memory than can exist; both fail before anything is allocated.
    @pytest.mark.parametrize("header", ["99999999999999999999", "4611686018427387904"])
    def test_huge_header_is_one_error_line(self, header, capsys, tmp_path):
        target = tmp_path / "huge.edges"
        target.write_text(f"{header}\n0 1\n", encoding="ascii")
        code, out, err = run_cli(
            ["build", "join", "--left", str(target), "--right", "family:path:2",
             "--output", str(tmp_path / "j.edges")],
            capsys,
        )
        assert code == 1
        assert out == "" and err.startswith("error:") and err[len("error:"):].strip()
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize(
        "product, left, right, sidecar",
        [
            (
                "join", "complete:1", "complete:2",
                '{\n  "g_range": [\n    0,\n    1\n  ],\n  "h_range": [\n    1,\n    3\n  ],\n'
                '  "n": 3,\n  "product": "join",\n  "schema": "movdom/1"\n}\n',
            ),
            (
                "corona", "complete:2", "complete:1",
                '{\n  "centers": [\n    0,\n    1\n  ],\n  "copies": [\n    [\n      2,\n'
                '      3\n    ],\n    [\n      3,\n      4\n    ]\n  ],\n  "n": 4,\n'
                '  "product": "corona",\n  "schema": "movdom/1"\n}\n',
            ),
        ],
    )
    def test_sidecar_bytes(self, product, left, right, sidecar, capsys, tmp_path):
        out_file = tmp_path / "p.edges"
        code, _, _ = run_cli(
            ["build", product, "--left", f"family:{left}", "--right", f"family:{right}",
             "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "p.edges.layout.json").read_bytes() == sidecar.encode("ascii")


class TestVerify:
    def test_single_claim(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--claim", "theorem-3.3", "--max-order", "4"], capsys
        )
        assert code == 0
        assert out.startswith("theorem-3.3: PASS")

    def test_zero_samples_vacuous(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--claim", "lemma-3.4", "--samples", "0"], capsys
        )
        assert code == 0
        assert "0 instances, vacuous" in out

    def test_samples_sets_both_budgets(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--json", "--samples", "7", "--claim", "lemma-3.4", "--claim", "lemma-3.5"],
            capsys,
        )
        assert code == 0
        pools = [r["pool"] for r in json.loads(out)["reports"]]
        assert pools == [
            "12 coronas of connected factors, 7 samples each",
            "12 coronas of connected factors, solver witness plus up to 7 certified samples each, "
            "modes=both",
        ]

    def test_all_claims_json_deterministic(self, capsys):
        argv = ["verify", "--seed", "7", "--max-order", "4", "--samples", "10", "--json"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "movdom/1"
        assert [r["claim"] for r in payload["reports"]] == [
            "remark-3.1", "theorem-3.2", "theorem-3.3", "theorem-3.6",
            "corollary-3.1", "lemma-3.4", "lemma-3.5",
        ]

    def test_json_bytes_pinned(self, capsys):
        # Any change to a report, pool text, tally or counterexample key shows here.
        code, out, _ = run_cli(["verify", "--json", "--max-order", "5", "--seed", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f687b4d37499380ca345c694812f74e4264cc4a711c867f6003dc8e223c35f16"
        )

    def test_json_bytes_pinned_order_6(self, capsys):
        # Order 6 holds most of the enumerated graphs, which order 5 never reaches.
        code, out, _ = run_cli(["verify", "--json", "--max-order", "6", "--seed", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2df3079dbe8901b8cbe57925374f4e17258cf0524fb67d52dc6e14839fd3b9a2"
        )

    @pytest.mark.parametrize(
        "order, digest",
        [
            ("5", "59ea0fe8cb94b2837587ad2b1a134a6ebbee2fc04176edf5cc53c4016d676a0b"),
            ("6", "bb05e21cfaa5c9ebe7d97d913e8c206f92bd3cc603a86a4ba2ed4fa6efadecc9"),
        ],
        ids=["order-5", "order-6"],
    )
    def test_json_bytes_pinned_holdout_seed(self, order, digest, capsys):
        # A second seed, so a change that only keeps seed 7's bytes shows here.
        code, out, _ = run_cli(["verify", "--json", "--max-order", order, "--seed", "2026"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "budget",
        [["--max-order", "9"], ["--max-order", "-1"], ["--samples", "-5", "--claim", "theorem-3.3"]],
        ids=["max-order-above-enumeration", "max-order-negative", "samples-negative"],
    )
    def test_budget_out_of_range_rejected(self, budget, capsys, monkeypatch):
        def no_pools(budget):
            raise AssertionError("pools built for a rejected budget")

        monkeypatch.setattr(movdom.harness, "default_pools", no_pools)
        code, out, err = run_cli(["verify", *budget], capsys)
        assert code == 1
        assert out == "" and err.startswith("error:")

    def test_unknown_claim_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--claim", "theorem-9.9"], capsys)
        assert code == 1

    def test_claim_failure_exit_code(self, capsys, monkeypatch):
        wrong = SolverResult(9, mask_of(0, 1))
        monkeypatch.setattr(
            movdom.harness,
            "solve_jointly",
            lambda g, modes: JointResult(None, None, {m: wrong for m in modes}),
        )
        code, out, _ = run_cli(["verify", "--claim", "theorem-3.3", "--max-order", "4"], capsys)
        assert code == 3
        assert "FAIL" in out and "counterexample" in out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "movdom", "compute", "gamma", "--family", "path:4", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "command",
        [
            "compute gamma --family path:4",
            "build join --left family:path:2 --right family:path:2 --output out.txt",
        ],
        ids=["compute", "build"],
    )
    def test_closed_stdout_is_an_error(self, command, tmp_path):
        proc = subprocess.run(
            ["sh", "-c", f'"{sys.executable}" -m movdom {command} >&-'],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: standard output is closed\n"
        assert list(tmp_path.iterdir()) == []  # no command ran
