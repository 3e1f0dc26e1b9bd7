"""Model-based properties of GaussianRational against a (Fraction, Fraction) pair.

Every result is compared with the same operation on the reference model and
checked to be the canonical triple (a + b*i)/d with d > 0 and
gcd(a, b, d) == 1.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rittforge.gaussian import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    convolve,
    format_gaussian,
    gr,
    parse_gaussian,
)

SETTINGS = settings(max_examples=200, deadline=None, database=None)

fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)
tiny = st.fractions(min_value=-2, max_value=2, max_denominator=3)
gaussians = st.builds(GaussianRational, fractions, fractions)
tiny_gaussians = st.builds(GaussianRational, tiny, tiny)
scalars = st.one_of(st.integers(-50, 50), fractions)


def model(x):
    """The reference value of a GaussianRational, int or Fraction."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def m_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def m_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def m_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def m_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def canonical(x) -> bool:
    return (
        isinstance(x, GaussianRational)
        and all(type(v) is int for v in (x.a, x.b, x.d))
        and x.d > 0
        and math.gcd(x.a, x.b, x.d) == 1
    )


def agrees(x, ref) -> bool:
    return canonical(x) and model(x) == ref


class TestConstruction:
    @SETTINGS
    @given(st.one_of(st.integers(-99, 99), fractions), st.one_of(st.integers(-99, 99), fractions))
    def test_public_constructor(self, re, im):
        x = GaussianRational(re, im)
        assert agrees(x, (Fraction(re), Fraction(im)))
        assert type(x.re) is Fraction and type(x.im) is Fraction

    def test_zero_and_reduction(self):
        assert (GR_ZERO.a, GR_ZERO.b, GR_ZERO.d) == (0, 0, 1)
        assert gr("1/2") - gr("1/2") == GR_ZERO
        x = GaussianRational(Fraction(2, 4), Fraction(1, 6))
        assert (x.a, x.b, x.d) == (3, 1, 6)

    def test_repr_and_format_unchanged(self):
        x = gr("-3/7", "2/5")
        assert repr(x) == "GaussianRational(Fraction(-3, 7), Fraction(2, 5))"
        assert format_gaussian(x) == "-3/7+2/5 i"
        assert str(gr(4)) == "4/1"

    def test_fields_are_the_integer_triple(self):
        assert [f.name for f in dataclasses.fields(GaussianRational)] == ["a", "b", "d"]


class TestArithmetic:
    @SETTINGS
    @given(gaussians, gaussians)
    def test_binary_operations(self, x, y):
        mx, my = model(x), model(y)
        assert agrees(x + y, m_add(mx, my))
        assert agrees(x - y, m_sub(mx, my))
        assert agrees(x * y, m_mul(mx, my))
        if y:
            assert agrees(x / y, m_div(mx, my))

    @SETTINGS
    @given(gaussians)
    def test_unary_operations(self, x):
        re, im = model(x)
        assert agrees(-x, (-re, -im))
        assert agrees(x.conjugate(), (re, -im))
        assert x.norm() == re * re + im * im
        assert type(x.norm()) is Fraction
        assert x.is_rational() == (im == 0)
        assert x.to_complex() == complex(float(re), float(im))
        assert bool(x) == (re != 0 or im != 0)

    @SETTINGS
    @given(gaussians, st.integers(-5, 7))
    def test_power(self, x, k):
        assume(x or k >= 0)
        base = model(x) if k >= 0 else m_div((Fraction(1), Fraction(0)), model(x))
        ref = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            ref = m_mul(ref, base)
        assert agrees(x**k, ref)

    @SETTINGS
    @given(gaussians, scalars)
    def test_mixed_operands_on_both_sides(self, x, s):
        mx, ms = model(x), model(s)
        assert agrees(x + s, m_add(mx, ms))
        assert agrees(s + x, m_add(ms, mx))
        assert agrees(x - s, m_sub(mx, ms))
        assert agrees(s - x, m_sub(ms, mx))
        assert agrees(x * s, m_mul(mx, ms))
        assert agrees(s * x, m_mul(ms, mx))
        if s:
            assert agrees(x / s, m_div(mx, ms))
        if x:
            assert agrees(s / x, m_div(ms, mx))

    @SETTINGS
    @given(gaussians, st.one_of(st.just(0), st.just(Fraction(0)), st.just(GR_ZERO)))
    def test_division_by_zero(self, x, zero):
        with pytest.raises(ZeroDivisionError):
            x / zero
        with pytest.raises(ZeroDivisionError):
            x / (x - x)
        with pytest.raises(ZeroDivisionError):
            1 / GR_ZERO
        with pytest.raises(ZeroDivisionError):
            GR_ZERO**-1


class TestEquality:
    @SETTINGS
    @given(tiny_gaussians, tiny_gaussians)
    def test_eq_and_hash_follow_the_model(self, x, y):
        assert (x == y) == (model(x) == model(y))
        assert (x != y) == (model(x) != model(y))
        if x == y:
            assert hash(x) == hash(y)
            assert (x.a, x.b, x.d) == (y.a, y.b, y.d)

    @SETTINGS
    @given(tiny_gaussians, tiny_gaussians)
    def test_equal_values_built_differently(self, x, y):
        assert (x + y) - y == x
        assert len({x + y, y + x}) == 1
        if y:
            assert (x * y) / y == x


class TestImmutability:
    @pytest.mark.parametrize("name", ["a", "b", "d"])
    def test_fields_cannot_be_set(self, name):
        x = gr(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 5)
        assert x == gr(1, 2)

    @pytest.mark.parametrize("name", ["re", "im", "other"])
    def test_other_attributes_cannot_be_set(self, name):
        # the frozen __setattr__ of a slotted dataclass raises TypeError for
        # names that are not fields
        x = gr(1, 2)
        with pytest.raises((AttributeError, TypeError)):
            setattr(x, name, 5)
        assert x == gr(1, 2)

    def test_fields_cannot_be_deleted(self):
        x = gr("1/2", 3)
        with pytest.raises(AttributeError):
            del x.a
        assert x * GR_ONE == x


def reference_format(re: Fraction, im: Fraction) -> str:
    """The rendering of the (Fraction, Fraction) representation."""
    def frac(f):
        return f"{f.numerator}/{f.denominator}"

    if im == 0:
        return frac(re)
    return f"{frac(re)}{'+' if im > 0 else '-'}{frac(abs(im))} i"


@SETTINGS
@given(st.one_of(st.integers(-99, 99), fractions), st.one_of(st.integers(-99, 99), fractions))
def test_format_matches_the_fraction_rendering(re, im):
    x = GaussianRational(re, im)
    assert format_gaussian(x) == reference_format(Fraction(re), Fraction(im))
    assert parse_gaussian(format_gaussian(x)) == x


integral_gaussians = st.builds(GaussianRational, st.integers(-40, 40), st.integers(-40, 40))
coefficient_lists = st.lists(st.one_of(gaussians, integral_gaussians, st.just(GR_ZERO)), max_size=6)


@SETTINGS
@given(coefficient_lists, coefficient_lists)
def test_convolve_is_the_schoolbook_product(xs, ys):
    got = convolve(xs, ys)
    if not xs or not ys:
        assert got == []
        return
    want = [(Fraction(0), Fraction(0))] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            want[i + j] = m_add(want[i + j], m_mul(model(x), model(y)))
    assert [model(c) for c in got] == want
    assert all(canonical(c) for c in got)
