"""Exact Gaussian rational arithmetic.

A GaussianRational is an integer triple (a, b, d) standing for (a + b*i)/d,
kept canonical: d > 0 and gcd(a, b, d) == 1, with zero as (0, 0, 1).  Equal
numbers are therefore equal triples, and equality and hashing act on the
triple.  Arithmetic is on plain ints; a gcd runs only when a result's
denominator is not 1, so sums and products of Gaussian integers need none.
The real and imaginary parts are available as reduced Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import dense


@dataclass(frozen=True, slots=True, init=False)
class GaussianRational:
    a: int
    b: int
    d: int

    def __init__(self, re, im):
        re, im = Fraction(re), Fraction(im)
        q, s = re.denominator, im.denominator
        a, b, d = re.numerator * s, im.numerator * q, q * s
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (GR_ONE / self) ** (-k)
        return dense.power(self, k, GR_ONE)

    def conjugate(self):
        return _new(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """re^2 + im^2, the exact squared modulus."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_rational(self) -> bool:
        return self.b == 0

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational.__dict__["a"].__set__
_set_b = GaussianRational.__dict__["b"].__set__
_set_d = GaussianRational.__dict__["d"].__set__
_alloc = object.__new__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """The number (a + b*i)/d from a triple that is already canonical."""
    x = _alloc(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The number (a + b*i)/d for any d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def convolve(xs, ys) -> list:
    """Coefficients of the product of two polynomials given ascending.

    Each side is brought to one denominator, the lcm of its coefficients'
    denominators, so the products and sums run on plain ints and every
    output coefficient is reduced once.
    """
    if not xs or not ys:
        return []
    dx, xs = _common_denominator(xs)
    dy, ys = _common_denominator(ys)
    n = len(xs) + len(ys) - 1
    re, im = [0] * n, [0] * n
    for i, (a, b) in enumerate(xs):
        if not (a or b):
            continue
        for j, (c, e) in enumerate(ys, i):
            re[j] += a * c - b * e
            im[j] += a * e + b * c
    return [_reduced(r, s, dx * dy) for r, s in zip(re, im)]


def _common_denominator(xs):
    """(D, [(a * D/d, b * D/d)]) with D the lcm of the denominators d."""
    dd = lcm(*[x.d for x in xs])
    if dd == 1:
        return 1, [(x.a, x.b) for x in xs]
    return dd, [(x.a * (dd // x.d), x.b * (dd // x.d)) for x in xs]


def _coerce(x):
    if type(x) is GaussianRational:
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    return NotImplemented


GR_ZERO = _new(0, 0, 1)
GR_ONE = _new(1, 0, 1)
GR_I = _new(0, 1, 1)


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor from ints, Fractions, or 'p/q' strings."""
    return GaussianRational(Fraction(re), Fraction(im))


def _frac_str(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def format_gaussian(x: GaussianRational) -> str:
    """Render as 'p/q' or 'p/q+r/s i' ('-' when the imaginary part is negative)."""
    if not x.b:
        return _frac_str(x.a, x.d)
    sign = "+" if x.b > 0 else "-"
    return f"{_frac_str(x.a, x.d)}{sign}{_frac_str(abs(x.b), x.d)} i"


def parse_gaussian(s: str) -> GaussianRational:
    """Inverse of format_gaussian; also accepts bare integers like '3'."""
    s = s.strip()
    if s.endswith("i"):
        body = s[:-1].strip()
        # split at the sign separating the two fraction parts; skip a leading sign
        for k in range(1, len(body)):
            if body[k] in "+-":
                re_part, sign, im_part = body[:k], body[k], body[k + 1 :]
                im = Fraction(im_part.strip())
                return GaussianRational(
                    Fraction(re_part.strip()), -im if sign == "-" else im
                )
        # pure imaginary, e.g. '1/2 i'
        return GaussianRational(Fraction(0), Fraction(body))
    return GaussianRational(Fraction(s), Fraction(0))
