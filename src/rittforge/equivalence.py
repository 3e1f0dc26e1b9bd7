"""Affine equivalence decisions and sandwich products.

The bi-orbit test q = A o p o B eliminates everything but the linear
coefficient alpha of B: matching the top two coefficients and the constant
term forces gamma, beta, delta as rational expressions of alpha, and each
remaining coefficient equation becomes a polynomial constraint F_j(alpha).
The common roots of the F_j are exactly the witnesses, so the test is sound
and complete over the Gaussian rationals: a zero gcd means every nonzero
alpha works, otherwise the finitely many Gaussian rational roots are
enumerated and each candidate is verified by full recomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .decompose import CertificateError
from .gaussian import GR_ONE, GaussianRational
from .poly import AffineMap, Poly, constant, monomial, poly_gcd
from .ratfun import RatFun, _as_ratfun
from .roots import gaussian_roots


@dataclass(frozen=True, slots=True)
class BiEquivWitness:
    A: AffineMap
    B: AffineMap

    def transports(self, p: Poly, q: Poly) -> bool:
        return self.A.to_poly().compose(p).compose(self.B.to_poly()) == q


def _gr_key(x: GaussianRational):
    """Total order preferring small denominators, then small magnitudes,
    then nonnegative values."""
    re, im = x.re, x.im
    return (
        re.denominator,
        im.denominator,
        abs(re.numerator),
        abs(im.numerator),
        0 if re.numerator >= 0 else 1,
        0 if im.numerator >= 0 else 1,
    )


def _witness_key(alpha, witness):
    return (
        _gr_key(alpha),
        _gr_key(witness.A.a),
        _gr_key(witness.B.b),
        _gr_key(witness.A.b),
    )


def _constraint_system(p: Poly, q: Poly):
    """Return (beta_poly, g) in the variable alpha.

    beta_poly gives B's constant term as a linear polynomial in alpha; g is
    the gcd of the constraints F_j, which vanish exactly at the witnesses.
    """
    n = p.degree
    pn, qn = p.lead(), q.lead()
    beta_poly = Poly(
        (
            -p.coeff(n - 1) / (n * pn),
            q.coeff(n - 1) / (n * qn),
        )
    )
    g = Poly(())
    for j in range(1, n - 1):
        # alpha^j * sum_m p_m C(m,j) beta^(m-j), compared against q_j
        acc = Poly(())
        for m in range(j, n + 1):
            term = beta_poly ** (m - j)
            acc = acc + term.scale(p.coeff(m) * comb(m, j))
        c_j = acc * monomial(j)
        f_j = c_j.scale(qn) - monomial(n, q.coeff(j) * pn)
        g = poly_gcd(g, f_j)
    return beta_poly, g


def _candidate(p: Poly, q: Poly, beta_poly: Poly, alpha: GaussianRational):
    """The unique possible witness with B = alpha z + beta(alpha)."""
    n = p.degree
    gamma = q.lead() / (p.lead() * alpha**n)
    beta = beta_poly.eval(alpha)
    delta = q.coeff(0) - gamma * p.eval(beta)
    return BiEquivWitness(AffineMap(gamma, delta), AffineMap(alpha, beta))


def _verified_candidates(p: Poly, q: Poly, beta_poly: Poly, alphas):
    out = []
    for alpha in alphas:
        if not alpha:
            continue
        w = _candidate(p, q, beta_poly, alpha)
        if w.transports(p, q):
            out.append((alpha, w))
    return out


_UNIT_SAMPLES = (
    GR_ONE,
    -GR_ONE,
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(2, 0),
)


def affine_biequiv(p: Poly, q: Poly):
    """A witness (A, B) with q = A o p o B over Q(i), or None.

    Degrees must match and be at least 2; a degree mismatch returns None.
    """
    if p.degree < 2 or q.degree < 2:
        raise ValueError("bi-orbit equivalence needs degree >= 2")
    if p.degree != q.degree:
        return None
    beta_poly, g = _constraint_system(p, q)
    if g.is_zero():
        # every alpha works; return the canonical representative
        w = _candidate(p, q, beta_poly, GR_ONE)
        if not w.transports(p, q):
            raise CertificateError("bi-orbit witness: the composition differs")
        return w
    if g.degree == 0:
        return None
    found = _verified_candidates(p, q, beta_poly, gaussian_roots(g))
    if not found:
        return None
    return min(found, key=lambda aw: _witness_key(*aw))[1]


def has_symmetries(p: Poly):
    """Witnesses of p = A o p o B besides the identity pair.

    When the witness family is infinite (the constraint gcd vanishes), a
    deterministic sample at alpha in {-1, i, -i, 2} is returned instead.
    """
    if p.degree < 2:
        raise ValueError("symmetry search needs degree >= 2")
    beta_poly, g = _constraint_system(p, p)
    if g.is_zero():
        alphas = [a for a in _UNIT_SAMPLES if a != GR_ONE]
    elif g.degree == 0:
        return []
    else:
        alphas = gaussian_roots(g)
    found = _verified_candidates(p, p, beta_poly, alphas)
    out = [
        w
        for _, w in sorted(found, key=lambda aw: _witness_key(*aw))
        if not (w.A.is_identity() and w.B.is_identity())
    ]
    return out


def affine_conjugate(p: Poly, q: Poly):
    """An affine f with f o p o f^-1 = q over Q(i), or None."""
    if p.degree < 2 or q.degree < 2:
        raise ValueError("conjugacy needs degree >= 2")
    if p.degree != q.degree:
        return None
    n = p.degree
    # f = a z + b with f o p = q o f: leading terms force a^(n-1) = p_n/q_n,
    # the z^(n-1) terms force b linearly for each a
    target = monomial(n - 1) - constant(p.lead() / q.lead())
    witnesses = []
    for a in gaussian_roots(target):
        if not a:
            continue
        an1 = a ** (n - 1)
        b = (a * p.coeff(n - 1) - an1 * q.coeff(n - 1)) / (n * q.lead() * an1)
        f = AffineMap(a, b)
        if f.to_poly().compose(p) == q.compose(f.to_poly()):
            witnesses.append((a, f))
    if not witnesses:
        return None
    return min(witnesses, key=lambda af: (_gr_key(af[0]), _gr_key(af[1].b)))[1]


@dataclass(frozen=True, slots=True)
class SandwichSemigroup:
    """Product f *_g h = f o g o h for a fixed kernel g (Poly or RatFun)."""

    g: object

    def compose(self, f, h):
        if isinstance(self.g, RatFun) or isinstance(f, RatFun) or isinstance(h, RatFun):
            rf = _as_ratfun(f)
            rg = _as_ratfun(self.g)
            rh = _as_ratfun(h)
            return rf.compose(rg).compose(rh)
        return f.compose(self.g).compose(h)


def sandwich_compose(s: SandwichSemigroup, f, h):
    return s.compose(f, h)


@dataclass(frozen=True, slots=True)
class SandwichIsomorphism:
    """P -> f o P o f^-1 o B^-1 between sandwich semigroups.

    Pushes the kernel P1 to P2 = B o f o P1 o f^-1, the unique kernel for
    which the homomorphism law holds.
    """

    f: AffineMap
    B: AffineMap
    P1: Poly
    P2: Poly

    def apply(self, p: Poly) -> Poly:
        chain = self.f.inverse().to_poly().compose(self.B.inverse().to_poly())
        return self.f.to_poly().compose(p).compose(chain)

    def check_pair(self, p: Poly, q: Poly) -> bool:
        lhs = self.apply(SandwichSemigroup(self.P1).compose(p, q))
        rhs = SandwichSemigroup(self.P2).compose(self.apply(p), self.apply(q))
        return lhs == rhs

    def verify(self, samples):
        """Raise on the first sample pair violating the homomorphism law."""
        for p, q in samples:
            if not self.check_pair(p, q):
                raise AssertionError(f"homomorphism law fails on ({p}, {q})")
        return True


def sandwich_isomorphism(f: AffineMap, B: AffineMap, P1: Poly) -> SandwichIsomorphism:
    p2 = (
        B.to_poly()
        .compose(f.to_poly())
        .compose(P1)
        .compose(f.inverse().to_poly())
    )
    return SandwichIsomorphism(f, B, P1, p2)
