"""Certificates of decomposition, automorphism enumeration and bi-orbit
witnesses: explicit checks that hold under ``python -O``, and a complete
decomposition that does not re-prove its factors."""

import json
import os
import subprocess
import sys

import pytest

from rittforge import corrfinite, decompose, equivalence
from rittforge.cli import main
from rittforge.decompose import (
    AffineShuffle,
    CertificateError,
    Decomposition,
    apply_move,
    certify_composition,
    complete_decomposition,
    decompose_once,
)
from rittforge.equivalence import BiEquivWitness
from rittforge.gaussian import gr
from rittforge.poly import AffineMap, Poly, chebyshev, monomial

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def poly(*cs):
    return Poly(tuple(gr(c) for c in cs))


class NotTheInverse:
    """An affine move whose claimed inverse is wrong, so the rewritten pair is."""

    def __init__(self, a):
        self.a = a

    def to_poly(self):
        return self.a.to_poly()

    def inverse(self):
        return self.a


def _corrupt_digits(divmod_poly):
    def wrong(a, b):
        q, r = divmod_poly(a, b)
        return q, r + poly(1)

    return wrong


class TestCertificateError:
    def test_wrong_pair_raises(self):
        f, g = chebyshev(2), chebyshev(3)
        certify_composition(f, g, chebyshev(6), "pair")
        with pytest.raises(CertificateError):
            certify_composition(g, f, chebyshev(6) + poly(1), "pair")

    def test_apply_move_with_a_wrong_pair(self):
        d = Decomposition((poly(1, 0, 1), poly(0, 2, 1)))
        with pytest.raises(CertificateError):
            apply_move(d, AffineShuffle(1, NotTheInverse(AffineMap(gr(2), gr(1)))))

    def test_decompose_once_with_a_wrong_split(self, monkeypatch):
        p = poly(1, 0, 0, 0, 0, 0, 1)
        assert decompose_once(p, 2) is not None
        monkeypatch.setattr(decompose, "divmod_poly", _corrupt_digits(decompose.divmod_poly))
        with pytest.raises(CertificateError):
            decompose_once(p, 2)

    def test_cli_exits_1_with_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(decompose, "divmod_poly", _corrupt_digits(decompose.divmod_poly))
        assert main(["decompose", "z^6+1"]) == 1
        assert "composition differs" in json.loads(capsys.readouterr().out)["error"]

    def test_checks_hold_under_python_O(self):
        script = """
import sys
from rittforge import decompose
from rittforge.decompose import AffineShuffle, CertificateError, Decomposition, apply_move
from rittforge.gaussian import gr
from rittforge.poly import AffineMap, Poly

def p(*cs):
    return Poly(tuple(gr(c) for c in cs))

class NotTheInverse:
    def __init__(self, a):
        self.a = a
    def to_poly(self):
        return self.a.to_poly()
    def inverse(self):
        return self.a

raised = 0
try:
    apply_move(Decomposition((p(1, 0, 1), p(0, 2, 1))),
               AffineShuffle(1, NotTheInverse(AffineMap(gr(2), gr(1)))))
except CertificateError:
    raised += 1
good = decompose.divmod_poly
def wrong(a, b):
    q, r = good(a, b)
    return q, r + p(1)
decompose.divmod_poly = wrong
try:
    decompose.decompose_once(p(1, 0, 0, 0, 0, 0, 1), 2)
except CertificateError:
    raised += 1
print(sys.flags.optimize, raised)
"""
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["1", "2"]


class TestNoReproving:
    @pytest.mark.parametrize("p", [
        chebyshev(12),
        monomial(2).compose(poly(0, 1, 0, 1)).compose(poly(3, 1, 1)),
        poly(1, 1, 0, 0, 0, 3) + monomial(16),
        poly(2, -1, 5),
    ])
    def test_complete_decomposition_never_calls_is_indecomposable(self, monkeypatch, p):
        calls = []
        real = decompose.is_indecomposable
        monkeypatch.setattr(decompose, "is_indecomposable", lambda f: calls.append(f) or real(f))
        d = complete_decomposition(p)
        assert calls == []
        assert d.compose() == p
        monkeypatch.undo()
        assert Decomposition(d.factors) == d  # the public constructor agrees

    def test_apply_move_validates_only_the_new_pair(self, monkeypatch):
        d = Decomposition((poly(1, 0, 1), poly(0, 2, 1), poly(0, 1, 0, 1)))
        calls = []
        real = decompose.is_indecomposable
        monkeypatch.setattr(decompose, "is_indecomposable", lambda f: calls.append(f) or real(f))
        out = apply_move(d, AffineShuffle(1, AffineMap(gr(3), gr(-1))))
        assert len(calls) == 2
        assert out.compose() == d.compose()
        assert out.factors[2] == d.factors[2]


class TestExplicitChecks:
    """The automorphism enumeration and the bi-orbit witness raise
    CertificateError from explicit checks, also under ``python -O``."""

    @staticmethod
    def _duplicate_first_element(monkeypatch):
        real = corrfinite._ambient

        def duplicated(X, ambient):
            elements, ideal = real(X, ambient)
            return elements + elements[:1], ideal

        monkeypatch.setattr(corrfinite, "_ambient", duplicated)

    def test_cli_exits_1_when_alpha_is_not_injective(self, monkeypatch, capsys):
        self._duplicate_first_element(monkeypatch)
        assert main(["corr", "verify", "--n", "2", "--suite", "aut"]) == 1
        assert "alpha" in json.loads(capsys.readouterr().out)["error"]

    def test_wrong_biequiv_witness_raises(self, monkeypatch):
        good = equivalence._candidate

        def shifted(p, q, beta_poly, alpha):
            w = good(p, q, beta_poly, alpha)
            return BiEquivWitness(AffineMap(w.A.a, w.A.b + gr(1)), w.B)

        z2, z2_plus_1 = poly(0, 0, 1), poly(1, 0, 1)
        assert equivalence.affine_biequiv(z2, z2_plus_1).transports(z2, z2_plus_1)
        monkeypatch.setattr(equivalence, "_candidate", shifted)
        with pytest.raises(CertificateError):
            equivalence.affine_biequiv(z2, z2_plus_1)

    def test_checks_hold_under_python_O(self):
        script = """
import sys
from rittforge import corrfinite, equivalence
from rittforge.decompose import CertificateError
from rittforge.equivalence import BiEquivWitness
from rittforge.gaussian import gr
from rittforge.poly import AffineMap, Poly

def p(*cs):
    return Poly(tuple(gr(c) for c in cs))

raised = 0
real = corrfinite._ambient
def duplicated(X, ambient):
    elements, ideal = real(X, ambient)
    return elements + elements[:1], ideal
corrfinite._ambient = duplicated
try:
    corrfinite.enumerate_automorphisms(corrfinite.FinSet(2), "MapX")
except CertificateError:
    raised += 1
good = equivalence._candidate
def shifted(f, g, beta_poly, alpha):
    w = good(f, g, beta_poly, alpha)
    return BiEquivWitness(AffineMap(w.A.a, w.A.b + gr(1)), w.B)
equivalence._candidate = shifted
try:
    equivalence.affine_biequiv(p(0, 0, 1), p(1, 0, 1))
except CertificateError:
    raised += 1
print(sys.flags.optimize, raised)
"""
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["1", "2"]
