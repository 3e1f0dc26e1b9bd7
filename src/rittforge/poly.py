"""Exact univariate polynomials over the Gaussian rationals, plus affine maps.

Coefficients are stored ascending with no trailing zeros, so two equal
polynomials are structurally equal tuples.  The zero polynomial is the empty
tuple and reports degree -1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import dense
from .gaussian import GR_ONE, GR_ZERO, GaussianRational, convolve, gr


def _as_gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x), Fraction(0))


@dataclass(frozen=True, slots=True)
class Poly:
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", dense.trim(map(_as_gr, self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lead(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussianRational:
        """Coefficient of z^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def constant_value(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else GR_ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(dense.add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return dense.power(self, k, ONE_POLY)

    def scale(self, s) -> "Poly":
        s = _as_gr(s)
        return Poly(tuple(c * s for c in self.coeffs))

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == GR_ONE:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def eval(self, x: GaussianRational) -> GaussianRational:
        return dense.horner(self.coeffs, _as_gr(x), GR_ZERO)

    def __call__(self, x):
        return self.eval(x)

    def compose(self, other: "Poly") -> "Poly":
        """self(other(z)); constants absorb."""
        return dense.horner([constant(c) for c in self.coeffs], other, ZERO_POLY)

    def derivative(self) -> "Poly":
        return Poly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def conj(self) -> "Poly":
        return Poly(tuple(c.conjugate() for c in self.coeffs))

    def valuation(self) -> int:
        """z-adic valuation; the zero polynomial raises."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise ValueError("zero polynomial has infinite valuation")

    def to_complex_coeffs(self):
        return [c.to_complex() for c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if k == 0:
                parts.append(f"({c})")
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return constant(_as_gr(x))
    return NotImplemented


def poly(*coeffs) -> Poly:
    """Build from ascending coefficients given as ints, Fractions, or strings."""
    return Poly(tuple(_as_gr(Fraction(c) if isinstance(c, str) else c) for c in coeffs))


def constant(c) -> Poly:
    return Poly((_as_gr(c),))


def monomial(k: int, c=1) -> Poly:
    """c * z^k"""
    return Poly(tuple([GR_ZERO] * k + [_as_gr(c)]))


ZERO_POLY = Poly(())
ONE_POLY = Poly((GR_ONE,))
X = Poly((GR_ZERO, GR_ONE))


def divmod_poly(p: Poly, d: Poly):
    """Exact field division: p = q*d + r with deg r < deg d."""
    q, r = dense.long_divmod(p.coeffs, d.coeffs, operator.truediv, GR_ZERO)
    return Poly(q), Poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0.

    Each remainder is made monic before the next division.  Left as they
    come, the remainders carry scalar factors whose heights grow from step
    to step, and the cost of the gcd with them.
    """

    def rem(x, y):
        r = divmod_poly(x, y)[1]
        return r.monic() if r else r

    g = dense.euclid_gcd(a, b, rem)
    return g.monic() if g else g


def chebyshev(n: int) -> Poly:
    """T_n with T_n(cos t) = cos nt, by the recurrence T_{n+1} = 2z T_n - T_{n-1}."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    t0, t1 = ONE_POLY, X
    if n == 0:
        return t0
    for _ in range(n - 1):
        t0, t1 = t1, X.scale(2) * t1 - t0
    return t1


@dataclass(frozen=True, slots=True)
class AffineMap:
    """z -> a*z + b with a != 0."""

    a: GaussianRational
    b: GaussianRational

    def __post_init__(self):
        object.__setattr__(self, "a", _as_gr(self.a))
        object.__setattr__(self, "b", _as_gr(self.b))
        if not self.a:
            raise ValueError("affine map needs a nonzero linear coefficient")

    def __call__(self, x):
        return self.a * _as_gr(x) + self.b

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self(other(z))"""
        return AffineMap(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> "AffineMap":
        return AffineMap(GR_ONE / self.a, -self.b / self.a)

    def to_poly(self) -> Poly:
        return Poly((self.b, self.a))

    def is_identity(self) -> bool:
        return self.a == GR_ONE and not self.b

    def __str__(self):
        return f"({self.a})*z + ({self.b})"


IDENTITY_MAP = AffineMap(GR_ONE, GR_ZERO)


def affine_from_poly(p: Poly) -> AffineMap:
    if p.degree != 1:
        raise ValueError("not an affine polynomial")
    return AffineMap(p.coeffs[1], p.coeffs[0])


def conjugate_by(f: AffineMap, p: Poly) -> Poly:
    """f o p o f^-1 as a polynomial."""
    finv = f.inverse()
    return f.to_poly().compose(p).compose(finv.to_poly())
