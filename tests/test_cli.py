"""Dispatch coverage for every CLI command variant plus the exit-code contract."""

import json

import pytest

from rittforge import acceptance
from rittforge.cli import main

T2 = {"coeffs": ["-1/1", "0/1", "2/1"]}
T3 = {"coeffs": ["0/1", "-3/1", "0/1", "4/1"]}
Z6P1 = {"coeffs": ["1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1"]}
GRAPH_Z2 = {
    "coeffs_in_W": [
        {"num": {"coeffs": ["0/1", "0/1", "-1/1"]}, "den": {"coeffs": ["1/1"]}},
        {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
    ]
}
GRAPH_ZP1 = {
    "coeffs_in_W": [
        {"num": {"coeffs": ["-1/1", "-1/1"]}, "den": {"coeffs": ["1/1"]}},
        {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
    ]
}


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestDecompose:
    def test_spec_example(self, capsys):
        out = run_json(capsys, "decompose", json.dumps(Z6P1))
        assert out["degree_multiset"] == [2, 3]
        assert out["length"] == 2

    def test_expression_form(self, capsys):
        out = run_json(capsys, "decompose", "z^6+1")
        assert out["degree_multiset"] == [2, 3]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(Z6P1))
        out = run_json(capsys, "decompose", str(path))
        assert out["degree_multiset"] == [2, 3]

    def test_domain_error(self, capsys):
        code, out = run_cli(capsys, "decompose", "z+1")
        assert code == 1
        assert "error" in json.loads(out)


class TestRittApply:
    def test_chebyshev_swap(self, capsys):
        dec = {"factors": [T2, T3]}
        move = {"kind": "chebyshev_swap", "position": 1}
        out = run_json(capsys, "ritt", "apply", json.dumps(dec), json.dumps(move))
        assert out == {"factors": [T3, T2]}

    def test_bad_move_is_domain_error(self, capsys):
        dec = {"factors": [{"coeffs": ["0/1", "0/1", "1/1"]}, T3]}
        move = {"kind": "chebyshev_swap", "position": 1}
        code, out = run_cli(capsys, "ritt", "apply", json.dumps(dec), json.dumps(move))
        assert code == 1
        assert "Chebyshev" in json.loads(out)["error"]


class TestCharEval:
    def test_degree(self, capsys):
        assert run_json(capsys, "char", "eval", "--kind", "degree", "z^4+z") == {"value": "4/1"}

    def test_length(self, capsys):
        out = run_json(capsys, "char", "eval", "--kind", "length", "z^4")
        assert out == {"value": {"base": "e", "exp": 2}}

    def test_orbit(self, capsys):
        out = run_json(
            capsys, "char", "eval", "--kind", "orbit",
            "--prime", "z^3+z", "--base", "3", "z^3+z",
        )
        assert out == {"value": {"base": "3/1", "exp": 1}}

    def test_orbit_requires_prime(self, capsys):
        code, _ = run_cli(capsys, "char", "eval", "--kind", "orbit", "z^2")
        assert code == 2

    def test_constant_scores_zero(self, capsys):
        assert run_json(capsys, "char", "eval", "--kind", "degree", "7") == {"value": "0"}


class TestEquiv:
    def test_biorbit_witness(self, capsys):
        out = run_json(capsys, "equiv", "biorbit", "z^2", "z^2+1")
        assert set(out) == {"A", "B"}

    def test_biorbit_none(self, capsys):
        out = run_json(capsys, "equiv", "biorbit", "z^3+z", "z^3+2z")
        assert out == {"result": "none"}

    def test_conj_witness(self, capsys):
        # (z+1) o z^2 o (z-1) = (z-1)^2 + 1 = z^2 - 2z + 2
        out = run_json(capsys, "equiv", "conj", "z^2", "z^2-2z+2")
        assert out == {"A": {"a": "1/1", "b": "1/1"}}

    def test_conj_none(self, capsys):
        out = run_json(capsys, "equiv", "conj", "z^2", "z^3")
        assert out == {"result": "none"}


class TestSandwichCompose:
    def test_poly_kernel(self, capsys):
        # (z+1) o z^2 o (z-1) = z^2 - 2z + 2
        out = run_json(capsys, "sandwich", "compose", "z^2", "z+1", "z-1")
        assert out == {"coeffs": ["2/1", "-2/1", "1/1"]}

    def test_ratfun_inputs(self, capsys):
        g = {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["0/1", "1/1"]}}
        out = run_json(capsys, "sandwich", "compose", json.dumps(g), "z", "z")
        assert out == {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["0/1", "1/1"]}}


class TestCorrVerify:
    def test_aut_spec_example(self, capsys):
        out = run_json(capsys, "corr", "verify", "--n", "2", "--suite", "aut")
        assert out == {"automorphisms": 2, "expected": 2, "pass": True}

    def test_blocks_report(self, capsys):
        out = run_json(capsys, "corr", "verify", "--n", "2", "--suite", "blocks")
        assert out["passed"] is True
        assert out["counterexamples"] == []

    def test_budget_is_domain_error(self, capsys):
        code, out = run_cli(capsys, "corr", "verify", "--n", "9", "--suite", "blocks")
        assert code == 1
        assert "error" in json.loads(out)

    def test_bad_suite_name_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "corr", "verify", "--n", "2", "--suite", "nope")
        assert code == 2


class TestHcorr:
    def test_compose_graphs(self, capsys):
        out = run_json(capsys, "hcorr", "compose", json.dumps(GRAPH_Z2), json.dumps(GRAPH_ZP1))
        # (z+1) after z^2 is the graph of z^2 + 1
        assert out["coeffs_in_W"][0]["num"] == {"coeffs": ["-1/1", "0/1", "-1/1"]}

    def test_compose_squarefree(self, capsys):
        double = {
            "coeffs_in_W": [
                {"num": {"coeffs": ["0/1", "0/1", "1/1"]}, "den": {"coeffs": ["1/1"]}},
                {"num": {"coeffs": ["0/1", "-2/1"]}, "den": {"coeffs": ["1/1"]}},
                {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
            ]
        }  # (W - z)^2 = z^2 - 2zW + W^2
        graph_z = {
            "coeffs_in_W": [
                {"num": {"coeffs": ["0/1", "-1/1"]}, "den": {"coeffs": ["1/1"]}},
                {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
            ]
        }
        out = run_json(
            capsys, "hcorr", "compose", json.dumps(double), json.dumps(graph_z), "--squarefree"
        )
        assert out == graph_z

    def test_fiber(self, capsys):
        sqrt_kernel = {
            "coeffs_in_W": [
                {"num": {"coeffs": ["0/1", "-1/1"]}, "den": {"coeffs": ["1/1"]}},
                {"num": {"coeffs": ["0/1"]}, "den": {"coeffs": ["1/1"]}},
                {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
            ]
        }  # W^2 - z
        out = run_json(capsys, "hcorr", "fiber", json.dumps(sqrt_kernel), "--at", "4,0")
        assert out == {"fiber": [[-2.0, 0.0], [2.0, 0.0]]}


class TestJuliaRender:
    def test_writes_pgm_and_csv(self, capsys, tmp_path):
        pgm = tmp_path / "g.pgm"
        csv = tmp_path / "g.csv"
        out = run_json(
            capsys, "julia", "render", "--map", "z^2-1", "--center", "0,0",
            "--width", "4", "--res", "16", "--out", str(pgm),
            "--csv", str(csv), "--max-iter", "60",
        )
        assert out["cells"] == 256
        assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")
        lines = csv.read_text().splitlines()
        assert lines[0] == "re,im,class,period,preperiod"
        assert len(lines) == 257

    def test_exact_flag(self, capsys, tmp_path):
        pgm = tmp_path / "e.pgm"
        out = run_json(
            capsys, "julia", "render", "--map", "z^2", "--center", "0,0",
            "--width", "1", "--res", "3", "--out", str(pgm),
            "--exact", "--max-iter", "30",
        )
        # the center cell is exactly 0, a certified fixed point
        assert out["counts"] == {"FINITE": 1, "ATTRACTED": 8}

    def test_bad_map_is_domain_error(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "julia", "render", "--map", "z^^2",
            "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1
        assert "error" in json.loads(out)


class TestSuite:
    @pytest.fixture
    def stub_criteria(self, monkeypatch):
        calls = {}

        def make(name, passed):
            def fn():
                calls[name] = acceptance.SEED
                return passed, "stub"
            return fn

        def install(spec):
            monkeypatch.setattr(acceptance, "SEED", acceptance.SEED)  # restore on teardown
            monkeypatch.setattr(
                acceptance, "CRITERIA", [(n, make(n, ok)) for n, ok in spec]
            )
            return calls
        return install

    def test_all_pass_exit_zero(self, capsys, stub_criteria):
        stub_criteria([("b-check", True), ("a-check", True)])
        code, out = run_cli(capsys, "suite")
        assert code == 0
        lines = out.splitlines()
        # report is assembled in sorted order
        assert lines[0].startswith("[PASS] a-check") and lines[1].startswith("[PASS] b-check")
        assert lines[-1] == "2/2 criteria passed"

    def test_failure_exits_one(self, capsys, stub_criteria):
        stub_criteria([("a-check", True), ("b-check", False)])
        code, out = run_cli(capsys, "suite")
        assert code == 1
        assert "[FAIL] b-check" in out

    def test_json_output(self, capsys, stub_criteria):
        stub_criteria([("a-check", True)])
        out = run_json(capsys, "suite", "--json")
        assert out == [{"criterion": "a-check", "passed": True, "detail": "stub"}]

    def test_seed_flag(self, capsys, stub_criteria):
        calls = stub_criteria([("a-check", True)])
        code, _ = run_cli(capsys, "suite", "--seed", "99")
        assert code == 0 and calls["a-check"] == 99

    def test_empty_argv_runs_suite(self, capsys, stub_criteria):
        stub_criteria([("a-check", True)])
        code, out = run_cli(capsys)
        assert code == 0 and "criteria passed" in out


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _ = run_cli(capsys, "--badflag")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_malformed_json_poly(self, capsys):
        code, out = run_cli(capsys, "decompose", '{"coeffs": [1, 2, 3]}')
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("arg", [
        "(" * 2000 + "z" + ")" * 2000,
        "[" * 100000 + "]" * 100000,
        '{"coeffs": ' + "[" * 100000 + "]" * 100000 + "}",
    ], ids=["parentheses", "bare-json", "json-coeffs"])
    def test_deep_nesting_is_a_domain_error(self, capsys, arg):
        code, out = run_cli(capsys, "decompose", arg)
        assert code == 1
        assert "error" in json.loads(out)

    def test_json_flag_position_is_flexible(self, capsys):
        for argv in (["--json", "char", "eval", "--kind", "degree", "z^2"],
                     ["char", "eval", "--kind", "degree", "z^2", "--json"]):
            code, out = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out) == {"value": "2/1"}
