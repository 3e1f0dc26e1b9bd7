"""Dense univariate arithmetic over any coefficient ring.

A polynomial is a sequence of coefficients in ascending order; the zero
polynomial is the empty sequence.  Coefficients need only implement
``+ - *`` and be falsy at zero, so the same code serves Gaussian rationals,
polynomials, rational functions and complex floats.  Results are lists that
may end in zeros; ``trim`` gives the canonical tuple.  This module imports
nothing from the package: every dense polynomial class wraps it.
"""

from __future__ import annotations


def trim(coeffs) -> tuple:
    """The coefficients as a tuple without trailing zeros."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def mul(a, b, zero) -> list:
    """Schoolbook product; zero coefficients of a are skipped."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if not ci:
            continue
        for j, cj in enumerate(b):
            out[i + j] = out[i + j] + ci * cj
    return out


def long_divmod(a, b, div, zero):
    """(q, r) with a = q*b + r and len(r) < len(b).

    ``div(c, lead)`` divides one coefficient by the leading coefficient of b;
    it may raise when the ring division is inexact.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    lead = b[-1]
    rem = list(a)
    q = [zero] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem[k + db]
        if not c:
            continue
        f = div(c, lead)
        q[k] = f
        for j, bc in enumerate(b):
            rem[k + j] = rem[k + j] - f * bc
    return q, rem[:db]


def horner(coeffs, x, zero):
    """The value of the polynomial at x, which may itself be a ring element."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def power(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply, in at most 2*floor(log2 k) products.

    The result starts at the lowest set bit of k, and x is squared only up
    to the top bit, so neither a product by ``one`` nor a discarded square
    is made.
    """
    if not k:
        return one
    while not k & 1:
        x = x * x
        k >>= 1
    result = x
    k >>= 1
    while k:
        x = x * x
        if k & 1:
            result = result * x
        k >>= 1
    return result


def euclid_gcd(a, b, rem):
    """Last nonzero remainder of Euclid's algorithm; ``rem(a, b)`` is a mod b."""
    while b:
        a, b = b, rem(a, b)
    return a
