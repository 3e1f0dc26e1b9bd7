"""Bivariate polynomials and the Sylvester resultant used for elimination.

Two representations:

- BiPoly: polynomial in a fiber variable W with RatFun coefficients in the
  input variable; used for correspondences.
- BivarPoly: polynomial in an outer variable with exact Poly coefficients in
  the base variable; used internally so the Sylvester determinant can run
  fraction-free (Bareiss) over the polynomial ring instead of the fraction
  field.

Both are thin shells over the dense univariate core in dense.py, which does
their addition, multiplication, long division, evaluation and gcd.

resultant_in_W(f, g) reads f as sum f_i(z) W^i and g as sum g_j(W) U^j and
eliminates the shared W.  Denominators in the coefficients are cleared first
and the known extraneous factors are divided back out at the end, so the
return value is the exact field resultant.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import dense
from .poly import ONE_POLY, Poly, ZERO_POLY, constant, divmod_poly, poly_gcd
from .ratfun import RF_ONE, RF_ZERO, RatFun, _as_ratfun


def _exact_poly_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod_poly(a, b)
    if not r.is_zero():
        raise ArithmeticError("inexact polynomial division")
    return q


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return ZERO_POLY
    g = poly_gcd(a, b)
    return (_exact_poly_div(a, g) * b).monic()


@dataclass(frozen=True, slots=True)
class BivarPoly:
    """Polynomial in an outer variable with Poly coefficients, ascending."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", dense.trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lead(self) -> Poly:
        return self.coeffs[-1]

    def coeff(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO_POLY

    def __add__(self, other):
        return BivarPoly(dense.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BivarPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        return BivarPoly(dense.mul(self.coeffs, other.coeffs, ZERO_POLY))

    def exact_div(self, d: "BivarPoly") -> "BivarPoly":
        """Exact division in the bivariate polynomial ring."""
        q, r = dense.long_divmod(self.coeffs, d.coeffs, _exact_poly_div, ZERO_POLY)
        if any(r):
            raise ArithmeticError("inexact bivariate division")
        return BivarPoly(q)

    def content(self) -> Poly:
        """Monic gcd of the coefficients over the base variable."""
        g = ZERO_POLY
        for c in sorted(self.coeffs, key=lambda c: c.degree):
            g = poly_gcd(g, c)
            if g == ONE_POLY:
                break
        return g

    def primitive(self) -> "BivarPoly":
        g = self.content()
        if g.is_zero() or g == ONE_POLY:
            return self
        return BivarPoly(tuple(_exact_poly_div(c, g) for c in self.coeffs))

    def to_bipoly(self) -> "BiPoly":
        return BiPoly(tuple(RatFun(c, ONE_POLY) for c in self.coeffs))


BIVAR_ZERO = BivarPoly(())
BIVAR_ONE = BivarPoly((ONE_POLY,))


def bareiss_det(rows) -> BivarPoly:
    """Fraction-free determinant of a square matrix of BivarPoly entries."""
    m = [list(r) for r in rows]
    s = len(m)
    if s == 0:
        return BIVAR_ONE
    sign = 1
    prev = BIVAR_ONE
    for k in range(s - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, s):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return BIVAR_ZERO
        pivot = m[k][k]
        for i in range(k + 1, s):
            for j in range(k + 1, s):
                num = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = BIVAR_ZERO
        prev = pivot
    det = m[s - 1][s - 1]
    return -det if sign < 0 else det


@dataclass(frozen=True, slots=True)
class BiPoly:
    """Polynomial in the fiber variable with RatFun coefficients."""

    coeffs_in_W: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs_in_W", dense.trim(map(_as_ratfun, self.coeffs_in_W)))

    @property
    def degree(self) -> int:
        return len(self.coeffs_in_W) - 1

    def is_zero(self) -> bool:
        return not self.coeffs_in_W

    def __bool__(self):
        return bool(self.coeffs_in_W)

    def lead(self) -> RatFun:
        return self.coeffs_in_W[-1]

    def coeff(self, k: int) -> RatFun:
        if 0 <= k < len(self.coeffs_in_W):
            return self.coeffs_in_W[k]
        return RF_ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs_in_W) and self.lead() == RF_ONE

    def __add__(self, other):
        return BiPoly(dense.add(self.coeffs_in_W, other.coeffs_in_W))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiPoly(tuple(-c for c in self.coeffs_in_W))

    def __mul__(self, other):
        return BiPoly(dense.mul(self.coeffs_in_W, other.coeffs_in_W, RF_ZERO))

    def monic(self) -> "BiPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.lead()
        if lead == RF_ONE:
            return self
        return BiPoly(tuple(c / lead for c in self.coeffs_in_W))

    def derivative(self) -> "BiPoly":
        return BiPoly(tuple(c * k for k, c in enumerate(self.coeffs_in_W) if k))

    def eval_at(self, r: RatFun) -> RatFun:
        """Substitute the fiber variable."""
        return dense.horner(self.coeffs_in_W, r, RF_ZERO)

    def clear_denominators(self):
        """Return (BivarPoly over the input variable, lcm L) with self = result / L."""
        lcm = ONE_POLY
        for c in self.coeffs_in_W:
            lcm = poly_lcm(lcm, c.den)
        cleared = tuple(
            c.num * _exact_poly_div(lcm, c.den) for c in self.coeffs_in_W
        )
        return BivarPoly(cleared), lcm

    def squarefree(self) -> "BiPoly":
        """Divide out repeated fiber-variable factors; preserves monicity."""
        if self.degree <= 0:
            return self
        g = bipoly_gcd(self, self.derivative())
        if g.degree <= 0:
            return self
        q, _ = bipoly_divmod(self, g)
        return q


def bipoly_divmod(a: BiPoly, b: BiPoly):
    """Long division in the fiber variable over the coefficient field."""
    q, r = dense.long_divmod(a.coeffs_in_W, b.coeffs_in_W, operator.truediv, RF_ZERO)
    return BiPoly(q), BiPoly(r)


def bipoly_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    g = dense.euclid_gcd(a, b, lambda x, y: bipoly_divmod(x, y)[1])
    return g.monic() if g else g


def _sylvester_det(a_coeffs, d_list) -> BivarPoly:
    """Determinant of the Sylvester matrix of sum a_i W^i and sum d_k W^k.

    a_coeffs: Poly entries (no outer variable); d_list: BivarPoly entries.
    """
    m = len(a_coeffs) - 1
    n = len(d_list) - 1
    size = m + n
    if size == 0:
        return BIVAR_ONE
    a_rows = [BivarPoly((c,)) for c in a_coeffs]
    rows = []
    for i in range(n):
        row = [BIVAR_ZERO] * size
        for t in range(m + 1):
            row[i + t] = a_rows[m - t]
        rows.append(row)
    for i in range(m):
        row = [BIVAR_ZERO] * size
        for t in range(n + 1):
            row[i + t] = d_list[n - t]
        rows.append(row)
    return bareiss_det(rows)


def resultant_in_W(f: BiPoly, g: BiPoly) -> BiPoly:
    """Eliminate the shared variable: f = sum f_i(z) W^i, g = sum g_j(W) U^j.

    Returns the exact resultant with respect to W as a polynomial in U with
    RatFun coefficients in z.  Zero output means f and g share a component.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    f_cleared, l1 = f.clear_denominators()
    g_cleared, l2 = g.clear_denominators()
    # reorganize g_cleared (coefficients in W, ascending U) as a W-polynomial
    # with scalar-in-U coefficients
    w_deg = max(c.degree for c in g_cleared.coeffs)
    d_list = []
    for k in range(w_deg + 1):
        d_list.append(
            BivarPoly(tuple(constant(gj.coeff(k)) for gj in g_cleared.coeffs))
        )
    while len(d_list) > 1 and d_list[-1].is_zero():
        d_list.pop()
    det = _sylvester_det(list(f_cleared.coeffs), d_list)
    n_g = len(d_list) - 1
    correction = RatFun(ONE_POLY, ONE_POLY)
    if l1 != ONE_POLY and n_g > 0:
        correction = correction * RatFun(l1, ONE_POLY) ** n_g
    if l2 != ONE_POLY:
        res_f_l2 = resultant_in_W(f, BiPoly((RatFun(l2, ONE_POLY),)))
        if res_f_l2.is_zero():
            raise ValueError("degenerate input: component inside a denominator locus")
        correction = correction * res_f_l2.coeff(0)
    if det.is_zero():
        return BiPoly(())
    if correction == RF_ONE:
        return det.to_bipoly()
    return BiPoly(tuple(RatFun(c, ONE_POLY) / correction for c in det.coeffs))
