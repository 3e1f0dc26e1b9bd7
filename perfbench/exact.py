"""Independent exact arithmetic for generating inputs and certifying outputs.

Nothing here imports rittforge: the benchmark builds the program's inputs and
checks its answers with this separate implementation, so a defect in the
program's own arithmetic cannot certify itself.

A Gaussian rational is a pair (re, im) of ints or Fractions.  A polynomial is
a tuple of such pairs in ascending degree with no trailing zeros; the zero
polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gneg(a):
    return (-a[0], -a[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return (
        Fraction(a[0] * b[0] + a[1] * b[1], 1) / n,
        Fraction(a[1] * b[0] - a[0] * b[1], 1) / n,
    )


def gnonzero(a):
    return a[0] != 0 or a[1] != 0


def gcomplex(a):
    return complex(float(a[0]), float(a[1]))


# --- polynomials -------------------------------------------------------------


def trim(cs):
    cs = list(cs)
    while cs and not gnonzero(cs[-1]):
        cs.pop()
    return tuple(cs)


def degree(p):
    return len(p) - 1


def coeff(p, k):
    return p[k] if 0 <= k < len(p) else ZERO


def padd(p, q):
    n = max(len(p), len(q))
    return trim(gadd(coeff(p, k), coeff(q, k)) for k in range(n))


def psub(p, q):
    n = max(len(p), len(q))
    return trim(gsub(coeff(p, k), coeff(q, k)) for k in range(n))


def pscale(p, c):
    return trim(gmul(a, c) for a in p)


def pmul(p, q):
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not gnonzero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = gadd(out[i + j], gmul(a, b))
    return trim(out)


def ppow(p, k):
    out = (ONE,)
    for _ in range(k):
        out = pmul(out, p)
    return out


def pcompose(p, q):
    """p(q(z)) by Horner's rule."""
    acc = ()
    for c in reversed(p):
        acc = padd(pmul(acc, q), (c,))
    return acc


def peval_complex(p, z):
    acc = 0j
    for c in reversed(p):
        acc = acc * z + gcomplex(c)
    return acc


def affine(a, b):
    """The polynomial a*z + b."""
    return trim((b, a))


def pdivmod(p, d):
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    q = [ZERO] * max(len(p) - len(d) + 1, 0)
    lead = d[-1]
    for k in range(len(p) - len(d), -1, -1):
        c = rem[k + len(d) - 1]
        if not gnonzero(c):
            continue
        f = gdiv(c, lead)
        q[k] = f
        for j, dc in enumerate(d):
            rem[k + j] = gsub(rem[k + j], gmul(f, dc))
    return trim(q), trim(rem)


def pgcd_degree(p, q):
    """Degree of gcd(p, q); -1 when both are zero."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    return degree(p)


def normal_form_support(p):
    """Support of the monic, centred, zero-constant affine normal form.

    If q = A o p o B for affine A and B, the normal forms differ only by a
    scaling z -> lam*z, so their supports agree; differing supports certify
    that no witness exists.
    """
    n = degree(p)
    lead = p[-1]
    shift = gneg(gdiv(coeff(p, n - 1), gmul((n, 0), lead)))
    moved = pcompose(p, affine(ONE, shift))
    return frozenset(k for k in range(1, n - 1) if gnonzero(coeff(moved, k)))


# --- the program's text formats ------------------------------------------------


def _frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def fmt(a) -> str:
    """A Gaussian rational as 'p/q' or 'p/q+r/s i'."""
    if a[1] == 0:
        return _frac_str(a[0])
    sign = "+" if a[1] > 0 else "-"
    return f"{_frac_str(a[0])}{sign}{_frac_str(abs(a[1]))} i"


def parse(s: str):
    s = s.strip()
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1].strip()
    for k in range(1, len(body)):
        if body[k] in "+-":
            im = Fraction(body[k + 1 :].strip())
            return (Fraction(body[:k].strip()), -im if body[k] == "-" else im)
    return (Fraction(0), Fraction(body))


def poly_json(p):
    return {"coeffs": [fmt(c) for c in p]}


def poly_from_json(obj):
    return trim(parse(c) for c in obj["coeffs"])


def ratfun_json(num, den):
    return {"num": poly_json(num), "den": poly_json(den)}


def affine_from_json(obj):
    return parse(obj["a"]), parse(obj["b"])
