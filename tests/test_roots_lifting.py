"""The p-adic root search against recorded answers, planted roots and its edges.

`roots_fixture.json` holds the answers of the earlier root search, which
factored p * conj(p) over Q with sympy, on a seeded set of polynomials:
planted roots, repeated factors, irreducible extra factors, large
non-monic leading coefficients, roots that collide mod 3, binomials
z^m - c, zero roots and degrees up to 32.
"""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rittforge import roots
from rittforge.gaussian import GR_I, GR_ONE, GaussianRational, format_gaussian, parse_gaussian
from rittforge.poly import X, Poly, constant, monomial
from rittforge.roots import gaussian_roots

SETTINGS = settings(max_examples=60, deadline=None, database=None)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "roots_fixture.json")) as fh:
    CASES = json.load(fh)["cases"]

UNITS = (GR_ONE, GR_I, -GR_ONE, -GR_I)
IRREDUCIBLE = (
    Poly((-2, 0, 1)),
    Poly((1, 1, 1)),
    Poly((1, 0, 0, 0, 1)),
    Poly((-2, 0, 0, 1)),
    Poly((2 * GR_I, 0, 0, 1)),
)


def fractions(height):
    return st.builds(Fraction, st.integers(-height, height), st.integers(1, height))


def gaussians(height=12):
    return st.builds(GaussianRational, fractions(height), fractions(height))


def nonzero_gaussians(height=12):
    return gaussians(height).filter(bool)


def planted(rs):
    p = constant(1)
    for r in rs:
        p = p * (X - constant(r))
    return p


def test_fixture_covers_every_shape():
    shapes = {c["shape"] for c in CASES}
    assert {"planted", "repeated", "extra_factor", "large_lead", "collide_mod_3",
            "binomial"} <= shapes
    assert len(CASES) >= 100


@pytest.mark.parametrize("shape", sorted({c["shape"] for c in CASES}))
def test_roots_equal_the_recorded_answers(shape):
    for case in (c for c in CASES if c["shape"] == shape):
        p = Poly(tuple(parse_gaussian(c) for c in case["coeffs"]))
        assert [format_gaussian(r) for r in gaussian_roots(p)] == case["roots"], case


@SETTINGS
@given(
    rs=st.lists(gaussians(), min_size=1, max_size=4),
    mults=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    extra=st.sampled_from(IRREDUCIBLE + (constant(1),)),
    lead=nonzero_gaussians(10**6),
)
def test_planted_roots_are_found(rs, mults, extra, lead):
    p = extra.scale(lead)
    for r, m in zip(rs, mults):
        p = p * (X - constant(r)) ** m
    found = gaussian_roots(p)
    assert set(found) == set(rs)
    assert found == sorted(set(rs), key=lambda x: (x.re, x.im))


@SETTINGS
@given(w=nonzero_gaussians(), m=st.integers(3, 9), twist=st.sampled_from(UNITS))
def test_binomial_roots_are_the_unit_multiples(w, m, twist):
    # z^m - c as affine_conjugate builds it; the roots of z^m = twist * w^m
    # in Q(i) are w * u for the units u with u^m = twist
    found = gaussian_roots(monomial(m) - constant(twist * w ** m))
    assert set(found) == {w * u for u in UNITS if u ** m == twist}


def test_roots_colliding_mod_3_skip_the_prime():
    rs = [GaussianRational(1, 0), GaussianRational(4, 0), GaussianRational(0, 2)]
    p = planted(rs)
    q = [(c.a, c.b) for c in p.coeffs]
    dq = [(c.a, c.b) for c in p.derivative().coeffs]
    assert roots._simple_roots_mod(q, dq, 3) is None  # 1 and 4 meet mod 3
    assert roots._simple_roots_mod(q, dq, 7) is not None
    assert set(gaussian_roots(p)) == set(rs)


def test_simple_roots_mod_p_are_all_residue_roots():
    # (y - 1)(y - i)(y^2 + 3) mod 7: 1 and i; y^2 = -3 = 4 also gives +-2
    p = planted([GR_ONE, GR_I]) * Poly((3, 0, 1))
    q = [(c.a, c.b) for c in p.coeffs]
    dq = [(c.a, c.b) for c in p.derivative().coeffs]
    assert sorted(roots._simple_roots_mod(q, dq, 7)) == [(0, 1), (1, 0), (2, 0), (5, 0)]


def test_a_large_leading_coefficient_and_an_unsplit_factor():
    lead = GaussianRational(10**12 + 39, -(10**9))
    rs = [GaussianRational(Fraction(7, 9), Fraction(-5, 11)), GaussianRational(-13, Fraction(1, 8))]
    p = (planted(rs) * (monomial(3) - constant(5))).scale(lead)
    assert set(gaussian_roots(p)) == set(rs)
