"""Rational functions over the Gaussian rationals.

Canonical form: numerator and denominator coprime, denominator monic and
nonzero.  Equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dense
from .gaussian import GaussianRational
from .poly import ONE_POLY, Poly, ZERO_POLY, _as_gr, _as_poly, divmod_poly, poly_gcd


class PoleError(ZeroDivisionError):
    pass


@dataclass(frozen=True, slots=True)
class RatFun:
    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = divmod_poly(num, g)[0]
            den = divmod_poly(den, g)[0]
        if den.lead() != _as_gr(1):
            lead = den.lead()
            num = num.scale(_as_gr(1) / lead)
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den == ONE_POLY

    def to_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError("not a polynomial")
        return self.num

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den == ONE_POLY

    @property
    def map_degree(self) -> int:
        """Degree as a rational map: max of numerator and denominator degrees."""
        return max(self.num.degree, self.den.degree)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (RF_ONE / self) ** (-k)
        return dense.power(self, k, RF_ONE)

    def eval(self, x: GaussianRational) -> GaussianRational:
        d = self.den.eval(x)
        if not d:
            raise PoleError(f"pole at {x}")
        return self.num.eval(x) / d

    def __call__(self, x):
        return self.eval(x)

    def compose(self, other: "RatFun") -> "RatFun":
        """self(other(z))"""
        n = poly_at_ratfun(self.num, other)
        d = poly_at_ratfun(self.den, other)
        if d.is_zero():
            raise ZeroDivisionError("composition collapses the denominator")
        return n / d

    def derivative(self) -> "RatFun":
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    p = _as_poly(x)
    if p is NotImplemented:
        return NotImplemented
    return RatFun(p, ONE_POLY)


def ratfun(num, den=None) -> RatFun:
    num = _as_poly(num)
    den = ONE_POLY if den is None else _as_poly(den)
    return RatFun(num, den)


def from_poly(p: Poly) -> RatFun:
    return RatFun(p, ONE_POLY)


def poly_at_ratfun(p: Poly, g: RatFun) -> RatFun:
    """Evaluate the polynomial p at the rational function g."""
    return dense.horner([RatFun(Poly((c,)), ONE_POLY) for c in p.coeffs], g, RF_ZERO)


RF_ZERO = RatFun(ZERO_POLY, ONE_POLY)
RF_ONE = RatFun(ONE_POLY, ONE_POLY)
RF_X = RatFun(Poly((_as_gr(0), _as_gr(1))), ONE_POLY)
