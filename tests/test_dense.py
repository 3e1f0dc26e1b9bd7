"""Property tests for the dense univariate core and the classes built on it."""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rittforge import dense
from rittforge.bipoly import BiPoly, BivarPoly, bipoly_divmod
from rittforge.gaussian import GR_ONE, GaussianRational
from rittforge.poly import ONE_POLY, X, Poly, divmod_poly
from rittforge.ratfun import RF_ONE, RatFun

SETTINGS = settings(max_examples=40, deadline=None, database=None)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussians = st.builds(GaussianRational, fractions, fractions)
polys = st.lists(gaussians, max_size=5).map(lambda cs: Poly(tuple(cs)))
small_polys = st.lists(gaussians, max_size=3).map(lambda cs: Poly(tuple(cs)))
ratfuns = st.builds(
    RatFun,
    st.lists(gaussians, max_size=2).map(lambda cs: Poly(tuple(cs))),
    st.lists(gaussians, min_size=1, max_size=2).map(lambda cs: Poly(tuple(cs))).filter(bool),
)
bivars = st.lists(small_polys, max_size=3).map(lambda cs: BivarPoly(tuple(cs)))
bipolys = st.lists(ratfuns, max_size=3).map(lambda cs: BiPoly(tuple(cs)))


def repeated(x, k, one):
    return reduce(operator.mul, [x] * k, one)


class TestCore:
    @SETTINGS
    @given(st.lists(fractions, max_size=5), st.lists(fractions, max_size=5), fractions)
    def test_ring_maps_to_values(self, a, b, x):
        def at(cs):
            return dense.horner(cs, x, Fraction(0))

        assert at(dense.add(a, b)) == at(a) + at(b)
        assert at(dense.mul(a, b, Fraction(0))) == at(a) * at(b)

    @SETTINGS
    @given(st.lists(fractions, max_size=6), st.lists(fractions, min_size=1, max_size=4))
    def test_long_divmod_over_a_field(self, a, b):
        b = list(dense.trim(b))
        assume(b)
        q, r = dense.long_divmod(a, b, operator.truediv, Fraction(0))
        assert len(r) < len(b)
        assert dense.trim(dense.add(dense.mul(q, b, Fraction(0)), r)) == dense.trim(a)

    @SETTINGS
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-3, 3), st.integers(0, 12))
    def test_euclid_and_power_over_integers(self, a, b, x, k):
        assert dense.euclid_gcd(a, b, operator.mod) == math.gcd(a, b)
        assert dense.power(x, k, 1) == x**k

    def test_trim_and_zero_division(self):
        assert dense.trim([1, 0, 2, 0, 0]) == (1, 0, 2)
        assert dense.trim([0, 0]) == ()
        with pytest.raises(ZeroDivisionError):
            dense.long_divmod([1], [], operator.truediv, 0)


class TestDivision:
    @SETTINGS
    @given(polys, polys.filter(bool))
    def test_divmod_poly(self, a, b):
        q, r = divmod_poly(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @SETTINGS
    @given(bipolys, bipolys.filter(bool))
    def test_bipoly_divmod(self, a, b):
        q, r = bipoly_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @SETTINGS
    @given(bivars, bivars.filter(bool))
    def test_bivar_exact_div_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a

    @SETTINGS
    @given(bivars, bivars.filter(lambda b: b.degree >= 1), bivars.filter(bool))
    def test_bivar_exact_div_inexact(self, a, b, c):
        # a nonzero c of lower degree than b is a nonzero remainder
        c = BivarPoly(c.coeffs[: b.degree])
        assume(c)
        with pytest.raises(ArithmeticError):
            (a * b + c).exact_div(b)

    def test_bivar_exact_div_by_coefficient(self):
        with pytest.raises(ArithmeticError):
            BivarPoly((ONE_POLY,)).exact_div(BivarPoly((X,)))


class TestPower:
    @SETTINGS
    @given(gaussians, st.integers(-4, 6))
    def test_gaussian(self, x, k):
        assume(x or k >= 0)
        base = x if k >= 0 else GR_ONE / x
        assert x**k == repeated(base, abs(k), GR_ONE)

    @SETTINGS
    @given(polys, st.integers(0, 4))
    def test_poly(self, p, k):
        assert p**k == repeated(p, k, ONE_POLY)

    @given(polys)
    @settings(max_examples=10, deadline=None, database=None)
    def test_poly_negative_power_raises(self, p):
        with pytest.raises(ValueError):
            p**-1

    @SETTINGS
    @given(ratfuns, st.integers(-3, 3))
    def test_ratfun(self, r, k):
        assume(r or k >= 0)
        base = r if k >= 0 else RF_ONE / r
        assert r**k == repeated(base, abs(k), RF_ONE)


def test_empty_bivariate_polynomials_are_falsy():
    assert not bool(BivarPoly(()))
    assert not bool(BiPoly(()))
    assert bool(BivarPoly((ONE_POLY,)))
    assert bool(BiPoly((RF_ONE,)))


class Counted:
    """A ring element that counts the products made with it."""

    products = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.v * other.v)


def test_power_makes_at_most_two_products_per_bit():
    one = Counted(1)
    assert dense.power(Counted(3), 0, one) is one
    for k in list(range(1, 300)) + [1024, 4097, 65535]:
        Counted.products = 0
        assert dense.power(Counted(3), k, one).v == 3**k
        assert Counted.products <= 2 * (k.bit_length() - 1), k
