"""Exact Gaussian rational arithmetic.

A GaussianRational is a pair of reduced big rationals (re, im) standing for
re + im*i.  All operations are exact; equality is structural because the
Fraction components are always in lowest terms with positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dense


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x), Fraction(0))
    return NotImplemented


@dataclass(frozen=True, slots=True)
class GaussianRational:
    re: Fraction
    im: Fraction

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, the exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def is_rational(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def gr(re, im=0) -> GaussianRational:
    """Shorthand constructor from ints, Fractions, or 'p/q' strings."""
    return GaussianRational(Fraction(re), Fraction(im))


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def format_gaussian(x: GaussianRational) -> str:
    """Render as 'p/q' or 'p/q+r/s i' ('-' when the imaginary part is negative)."""
    if x.im == 0:
        return _frac_str(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{_frac_str(x.re)}{sign}{_frac_str(abs(x.im))} i"


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
