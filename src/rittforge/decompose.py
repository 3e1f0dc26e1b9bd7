"""Functional decomposition into indecomposables and the rewrite moves.

A polynomial splits as q(h(z)) exactly when its h-adic expansion has constant
coefficients, where h is the unique monic candidate with h(0) = 0 whose top
coefficients match.  Degrees below 2 are rejected: factors of a prime
decomposition have degree at least 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GR_ONE, GR_ZERO
from .poly import (
    AffineMap,
    IDENTITY_MAP,
    Poly,
    chebyshev,
    constant,
    divmod_poly,
    monomial,
)


class CertificateError(Exception):
    """A computed result failed the exact check that certifies it."""


def certify_composition(left: Poly, right: Poly, target: Poly, what: str):
    """Raise CertificateError unless left(right) == target; holds under -O too."""
    if left.compose(right) != target:
        raise CertificateError(f"{what}: the composition differs")


def decompose_once(p: Poly, r: int):
    """Split p = q(h) with deg h = r, h monic, h(0) = 0; None if no such split.

    Raises on invalid r: r must be a proper divisor of deg p with
    2 <= r <= deg(p)/2.
    """
    n = p.degree
    if n < 2:
        raise ValueError("decomposition needs degree >= 2")
    if n % r != 0:
        raise ValueError(f"{r} does not divide the degree {n}")
    if not 2 <= r <= n // 2:
        raise ValueError(f"factor degree {r} out of range for degree {n}")
    lead = p.lead()
    pm = p.monic()
    m = n // r
    # unique monic candidate with h(0) = 0: fix the coefficients of
    # z^(n-1), ..., z^(n-r+1) one at a time; adding d*z^(r-j) to h moves the
    # z^(n-j) coefficient of h^m by exactly m*d and nothing above it
    h = monomial(r)
    for j in range(1, r):
        cur = h**m
        delta = pm.coeff(n - j) - cur.coeff(n - j)
        if delta:
            h = h + monomial(r - j, delta / m)
    # h-adic expansion; the split exists iff every digit is constant
    digits = []
    cur = pm
    while cur.degree >= r:
        cur, rem = divmod_poly(cur, h)
        digits.append(rem)
    digits.append(cur)
    if any(not d.is_constant() for d in digits):
        return None
    q = Poly(tuple(d.constant_value() for d in digits))
    if lead != GR_ONE:
        q = q.scale(lead)
    certify_composition(q, h, p, f"split with right factor degree {r}")
    return q, h


def proper_divisors(n: int):
    return [r for r in range(2, n // 2 + 1) if n % r == 0]


def is_indecomposable(p: Poly) -> bool:
    """No split q(h) with both degrees >= 2 exists over Q(i)."""
    if p.degree < 2:
        raise ValueError("primality is defined for degree >= 2")
    return all(decompose_once(p, r) is None for r in proper_divisors(p.degree))


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Ordered factors f_1 o f_2 o ... o f_k, each indecomposable of degree >= 2."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("empty decomposition")
        for f in self.factors:
            _check_factor(f)

    @property
    def length(self) -> int:
        return len(self.factors)

    def compose(self) -> Poly:
        acc = self.factors[-1]
        for f in reversed(self.factors[:-1]):
            acc = f.compose(acc)
        return acc

    def degree_multiset(self):
        return tuple(sorted(f.degree for f in self.factors))


def _check_factor(f: Poly):
    if f.degree < 2:
        raise ValueError("factors must have degree >= 2")
    if not is_indecomposable(f):
        raise ValueError(f"factor {f} is decomposable")


def _trusted(factors: tuple) -> Decomposition:
    """A Decomposition of factors already known to be indecomposable."""
    d = object.__new__(Decomposition)
    object.__setattr__(d, "factors", factors)
    return d


@dataclass(frozen=True, slots=True)
class RittInvariants:
    length: int
    degree_multiset: tuple

    def __post_init__(self):
        if self.length != len(self.degree_multiset):
            raise ValueError("length must match the degree multiset size")


def complete_decomposition(p: Poly) -> Decomposition:
    """Factor into indecomposables, trying smaller right factors first.

    The search proves every factor indecomposable: a right factor h split
    off at the smallest degree that works has no split of its own, since
    h = h1(h2) would give a split at the smaller degree of h2, and the left
    part that splits at no degree is indecomposable by definition.  So the
    result is built without validating the factors again.
    """
    if p.degree < 2:
        raise ValueError("no prime decomposition below degree 2")
    cur = p
    stack = []
    while True:
        split = None
        for r in proper_divisors(cur.degree):
            split = decompose_once(cur, r)
            if split is not None:
                break
        if split is None:
            stack.append(cur)
            break
        q, h = split
        stack.append(h)
        cur = q
    return _trusted(tuple(reversed(stack)))


def ritt_invariants(d: Decomposition) -> RittInvariants:
    return RittInvariants(d.length, d.degree_multiset())


@dataclass(frozen=True, slots=True)
class AffineShuffle:
    """Replace (f_j, f_{j+1}) by (f_j o A, A^-1 o f_{j+1}); 1-based position."""

    position: int
    A: AffineMap


@dataclass(frozen=True, slots=True)
class ChebyshevSwap:
    position: int


@dataclass(frozen=True, slots=True)
class MonomialSwap:
    """Swap z^k past z^r P(z^k), rewriting the pair to (z^r P(z)^k, z^k)."""

    position: int
    k: int
    r: int


def _as_power_of(f: Poly, k: int):
    """If f(z) = P(z^k), return P; else None."""
    coeffs = {}
    for e in range(f.degree + 1):
        c = f.coeff(e)
        if not c:
            continue
        if e % k != 0:
            return None
        coeffs[e // k] = c
    return Poly(tuple(coeffs.get(i, GR_ZERO) for i in range(max(coeffs) + 1)))


def _detect_monomial_swap(f: Poly, g: Poly):
    """MonomialSwap data for the pair (f, g) = (z^k, z^r P(z^k)), or None."""
    k = f.degree
    if k < 2 or f != monomial(k):
        return None
    r = g.valuation()
    shifted = Poly(g.coeffs[r:])
    p_inner = _as_power_of(shifted, k)
    if p_inner is None:
        return None
    return MonomialSwap(0, k, r), p_inner


def _is_chebyshev(f: Poly) -> bool:
    return f == chebyshev(f.degree)


def available_moves(d: Decomposition, j: int):
    """Moves applicable at position j (1-based, j < length).

    The affine shuffle is always applicable for any caller-chosen map and is
    reported with the identity as a placeholder.
    """
    if not 1 <= j < d.length:
        raise ValueError(f"position {j} out of range")
    f, g = d.factors[j - 1], d.factors[j]
    moves = [AffineShuffle(j, IDENTITY_MAP)]
    if _is_chebyshev(f) and _is_chebyshev(g):
        moves.append(ChebyshevSwap(j))
    det = _detect_monomial_swap(f, g)
    if det is not None:
        swap, _ = det
        moves.append(MonomialSwap(j, swap.k, swap.r))
    return moves


def apply_move(d: Decomposition, move) -> Decomposition:
    """Rewrite the pair at the move's position; the composition is unchanged.

    Composition is associative, so f_j(f_{j+1}) == f'_j(f'_{j+1}) for the
    rewritten pair certifies that the whole chain composes to the same
    polynomial; only the two new factors need validating.
    """
    j = move.position
    if not 1 <= j < d.length:
        raise ValueError(f"position {j} out of range")
    f, g = d.factors[j - 1], d.factors[j]
    if isinstance(move, AffineShuffle):
        a_poly = move.A.to_poly()
        ainv_poly = move.A.inverse().to_poly()
        new_pair = (f.compose(a_poly), ainv_poly.compose(g))
    elif isinstance(move, ChebyshevSwap):
        if not (_is_chebyshev(f) and _is_chebyshev(g)):
            raise ValueError("pair is not a Chebyshev pair")
        new_pair = (g, f)
    elif isinstance(move, MonomialSwap):
        det = _detect_monomial_swap(f, g)
        if det is None or (det[0].k, det[0].r) != (move.k, move.r):
            raise ValueError("pair does not have the monomial form")
        _, p_inner = det
        q_new = monomial(move.r) * p_inner**move.k
        new_pair = (q_new, monomial(move.k))
    else:
        raise TypeError(f"unknown move {move!r}")
    certify_composition(*new_pair, f.compose(g), f"rewritten pair at position {j}")
    for h in new_pair:
        _check_factor(h)
    return _trusted(d.factors[: j - 1] + new_pair + d.factors[j + 1 :])
