"""Exact root enumeration over the Gaussian rationals.

Degrees 1 and 2 are solved in closed form.  Candidates for degree >= 3 come
from p-adic lifting (Loos 1983, "Computing rational zeros of integral
polynomials by p-adic expansion"):

- the squarefree part p / gcd(p, p') is cleared of denominators and scaled
  by y = a_n z into a monic q in Z[i][y], whose roots in Q(i) are Gaussian
  integers dividing q(0), so each part is at most B = ceil(sqrt(N(q(0)))) in
  absolute value;
- for the first prime p = 3 (mod 4) (inert in Z[i], so Z[i]/(p) is the field
  with p^2 elements) at which every root of q is simple, the roots mod p are
  found by evaluating q at all p^2 residues; q is squarefree, so only the
  primes dividing its discriminant are skipped and the search ends;
- each root is Newton-lifted until p^k > 2B and read off as the symmetric
  residue.

A Gaussian-integer root of q reduces to a simple root mod p, and a simple
root has exactly one lift mod p^k, so every root of p is among the
candidates.  Every candidate is verified by exact evaluation before it is
returned, so the list is sound and complete over Q(i), and the prime choice
and the verdicts are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .gaussian import GR_ZERO, GaussianRational, _common_denominator
from .poly import Poly, divmod_poly, poly_gcd


def rational_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    n, d = f.numerator, f.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def gaussian_sqrt(c: GaussianRational):
    """One exact square root of c in Q(i), or None if no such root exists."""
    s, t = c.re, c.im
    if t == 0:
        if s == 0:
            return GR_ZERO
        if s > 0:
            r = rational_sqrt(s)
            return None if r is None else GaussianRational(r, Fraction(0))
        r = rational_sqrt(-s)
        return None if r is None else GaussianRational(Fraction(0), r)
    r = rational_sqrt(s * s + t * t)
    if r is None:
        return None
    u2 = (s + r) / 2
    u = rational_sqrt(u2)
    if u is None or u == 0:
        return None
    v = t / (2 * u)
    cand = GaussianRational(u, v)
    if cand * cand == c:
        return cand
    return None


def _sort_key(x: GaussianRational):
    return (x.re, x.im)


def _quadratic_roots(a, b, c):
    """Roots in Q(i) of a x^2 + b x + c with a != 0."""
    disc = b * b - 4 * a * c
    sq = gaussian_sqrt(disc)
    if sq is None:
        return []
    two_a = a + a
    r1 = (-b + sq) / two_a
    r2 = (-b - sq) / two_a
    return [r1] if r1 == r2 else [r1, r2]


def gaussian_roots(p: Poly):
    """All distinct roots of p in Q(i), sorted, each verified exactly."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    if p.degree <= 0:
        return []
    roots = set()
    v = p.valuation()
    if v > 0:
        roots.add(GR_ZERO)
        p = Poly(p.coeffs[v:])
    if p.degree == 1:
        roots.add(-p.coeffs[0] / p.coeffs[1])
    elif p.degree == 2:
        roots.update(_quadratic_roots(p.coeffs[2], p.coeffs[1], p.coeffs[0]))
    elif p.degree >= 3:
        for cand in _lifted_candidates(p):
            if not p.eval(cand):
                roots.add(cand)
    return sorted(roots, key=_sort_key)


def _lifted_candidates(p: Poly):
    """Every root in Q(i) of p, p(0) != 0, among candidates still to verify."""
    g = poly_gcd(p, p.derivative())
    if g.degree > 0:
        p = divmod_poly(p, g)[0]
    _, c = _common_denominator(p.coeffs)
    content = math.gcd(*(x for pair in c for x in pair))
    c = [(a // content, b // content) for a, b in c]
    n = len(c) - 1
    la, lb = c[n]
    # q(y) = a_n^(n-1) p(y / a_n): coefficient k is c_k a_n^(n-1-k)
    q = [(1, 0)] * (n + 1)
    wa, wb = 1, 0
    for k in range(n - 1, -1, -1):
        a, b = c[k]
        q[k] = (a * wa - b * wb, a * wb + b * wa)
        wa, wb = wa * la - wb * lb, wa * lb + wb * la
    dq = [(k * a, k * b) for k, (a, b) in enumerate(q) if k]
    q0a, q0b = q[0]
    bound = 2 * (math.isqrt(q0a * q0a + q0b * q0b) + 1)
    for prime in _inert_primes():
        residues = _simple_roots_mod(q, dq, prime)
        if residues is not None:
            break
    lead = GaussianRational(la, lb)
    cands = []
    for r in residues:
        m = prime
        while m <= bound:
            # Newton step: a root mod m lifts to one mod m^2
            m *= m
            va, vb = _eval_mod(q, r, m)
            ia, ib = _inverse_mod(_eval_mod(dq, r, m), m)
            r = ((r[0] - va * ia + vb * ib) % m, (r[1] - va * ib - vb * ia) % m)
        ya, yb = (x - m if 2 * x > m else x for x in r)
        cands.append(GaussianRational(ya, yb) / lead)
    return cands


def _inert_primes():
    """The primes p = 3 (mod 4), ascending."""
    p = 3
    while True:
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 4


def _simple_roots_mod(q, dq, p):
    """The roots of q in Z[i]/(p) as pairs, or None if one is not simple."""
    qp = [(a % p, b % p) for a, b in q]
    dp = [(a % p, b % p) for a, b in dq]
    roots = []
    for x in product(range(p), repeat=2):
        if _eval_mod(qp, x, p) == (0, 0):
            if _eval_mod(dp, x, p) == (0, 0):
                return None
            roots.append(x)
    return roots


def _eval_mod(coeffs, x, m):
    """q(x) mod m for Gaussian-integer pairs, coefficients ascending."""
    xa, xb = x
    ra = rb = 0
    for a, b in reversed(coeffs):
        ra, rb = (ra * xa - rb * xb + a) % m, (ra * xb + rb * xa + b) % m
    return ra, rb


def _inverse_mod(x, m):
    """1/x mod m as (a - bi)/(a^2 + b^2); x must be a unit mod m."""
    a, b = x
    t = pow(a * a + b * b, -1, m)
    return a * t % m, -b * t % m
