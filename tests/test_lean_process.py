"""One rittforge process pays for its algebra: the CLI parser is built once
and reused without carrying state between calls, the minimal ideal once per
ground set, and importing the CLI loads no computer-algebra package."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from rittforge import acceptance, cli
from rittforge.corrfinite import FinSet, alpha, identity_corr, minimal_ideal

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DOUBLE = {
    "coeffs_in_W": [
        {"num": {"coeffs": ["0/1", "0/1", "1/1"]}, "den": {"coeffs": ["1/1"]}},
        {"num": {"coeffs": ["0/1", "-2/1"]}, "den": {"coeffs": ["1/1"]}},
        {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
    ]
}  # (W - z)^2
GRAPH_Z = {
    "coeffs_in_W": [
        {"num": {"coeffs": ["0/1", "-1/1"]}, "den": {"coeffs": ["1/1"]}},
        {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
    ]
}


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.fixture
def fresh_parser():
    """No parser cached before the test, and none of the test's left after it."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_is_built_once_per_process(monkeypatch, capsys, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *a, **k):
        built.append(k.get("prog"))
        init(self, *a, **k)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [
        ["decompose", "z^6+1"],
        ["--json", "char", "eval", "--kind", "degree", "z^2"],
        ["equiv", "conj", "z^2+1", "z^2+1"],
        ["corr", "verify", "--n", "2", "--suite", "ideal"],
        ["decompose", "z+1"],
        ["frobnicate"],
    ]
    run(capsys, *argvs[0])
    per_build = len(built)
    assert per_build > 1  # the top parser and its subcommand parsers
    for argv in argvs[1:] * 3:
        run(capsys, *argv)
    assert len(built) == per_build


@pytest.mark.parametrize("first, second", [
    (["--json", "decompose", "z^6+1"], ["decompose", "z^6+1"]),
    (["decompose", "z^6+1", "--json"], ["decompose", "z^6+1"]),
    (["hcorr", "compose", json.dumps(DOUBLE), json.dumps(GRAPH_Z), "--squarefree"],
     ["hcorr", "compose", json.dumps(DOUBLE), json.dumps(GRAPH_Z)]),
    (["char", "eval", "--kind", "length", "--base", "2", "z^4"],
     ["char", "eval", "--kind", "length", "z^4"]),
    (["decompose", "--bogus", "z^2"], ["decompose", "z^6+1"]),
], ids=["json-first", "json-last", "squarefree", "base", "usage-error"])
def test_a_call_leaves_the_next_unchanged(capsys, first, second):
    alone = run(capsys, *second)
    run(capsys, *first)
    assert run(capsys, *second) == alone


def test_suite_json_does_not_carry_over(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", [("a-check", lambda: (True, "stub"))])
    text = run(capsys, "suite")
    assert json.loads(run(capsys, "suite", "--json")[1])[0]["passed"] is True
    assert run(capsys, "suite") == text
    assert text[1].startswith("[PASS] a-check")


def test_import_loads_no_sympy():
    script = "import rittforge.cli, sys; sys.exit('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    assert subprocess.run([sys.executable, "-c", script], env=env).returncode == 0


def test_minimal_ideal_is_built_once_per_ground_set():
    ideal = minimal_ideal(FinSet(3))
    assert isinstance(ideal, tuple)  # shared by every caller, so immutable
    assert minimal_ideal(FinSet(3)) is ideal
    assert alpha(identity_corr(FinSet(3))) == ideal
