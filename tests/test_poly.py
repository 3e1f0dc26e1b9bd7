from fractions import Fraction

from rittforge.gaussian import GR_ONE, GR_ZERO, gr
from rittforge.poly import (
    AffineMap,
    IDENTITY_MAP,
    ONE_POLY,
    Poly,
    X,
    ZERO_POLY,
    affine_from_poly,
    chebyshev,
    conjugate_by,
    constant,
    divmod_poly,
    monomial,
    poly,
    poly_gcd,
)

from util import make_rng, rand_poly


def test_canonical_form():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert Poly((GR_ZERO,)) == ZERO_POLY
    assert ZERO_POLY.degree == -1
    assert poly(5).degree == 0
    assert X.degree == 1


def test_compose_examples():
    # monomials compose by exponent multiplication
    assert monomial(2).compose(monomial(3)) == monomial(6)
    # (z+1)^2 + 1 = z^2 + 2z + 2
    assert poly(1, 0, 1).compose(poly(1, 1)) == poly(2, 2, 1)
    # constants absorb
    assert constant(7).compose(poly(3, 4, 5)) == constant(7)
    assert poly(1, 2).compose(constant(3)) == constant(7)


def test_eval_examples():
    p = poly(-1, 0, 1)  # z^2 - 1
    assert p.eval(gr(0)) == gr(-1)
    assert p.eval(gr(-1)) == GR_ZERO
    assert monomial(2).eval(gr(Fraction(3, 2))) == gr(Fraction(9, 4))


def test_compose_associative_and_degree_multiplicative():
    rng = make_rng(3)
    for _ in range(25):
        p = rand_poly(rng, rng.randint(1, 3))
        q = rand_poly(rng, rng.randint(1, 3))
        r = rand_poly(rng, rng.randint(1, 2))
        assert p.compose(q).compose(r) == p.compose(q.compose(r))
        assert p.compose(q).degree == p.degree * q.degree


def test_divmod():
    rng = make_rng(4)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 6))
        d = rand_poly(rng, rng.randint(0, 3))
        q, r = divmod_poly(p, d)
        assert q * d + r == p
        assert r.degree < d.degree


def test_gcd():
    a = poly(-1, 1) * poly(-2, 1)  # (z-1)(z-2)
    b = poly(-1, 1) * poly(-3, 1)  # (z-1)(z-3)
    assert poly_gcd(a, b) == poly(-1, 1)
    assert poly_gcd(a, ZERO_POLY) == a.monic()
    assert poly_gcd(ZERO_POLY, ZERO_POLY) == ZERO_POLY


def test_gcd_of_products_with_a_common_factor():
    rng = make_rng(69)
    for _ in range(20):
        c = rand_poly(rng, rng.randint(1, 3))
        a = rand_poly(rng, rng.randint(2, 5)) * c
        b = rand_poly(rng, rng.randint(2, 5)) * c
        g = poly_gcd(a, b)
        assert g.lead() == GR_ONE
        assert divmod_poly(a, g)[1] == ZERO_POLY
        assert divmod_poly(b, g)[1] == ZERO_POLY
        assert divmod_poly(g, c)[1] == ZERO_POLY


def test_chebyshev():
    assert chebyshev(0) == ONE_POLY
    assert chebyshev(1) == X
    assert chebyshev(2) == poly(-1, 0, 2)
    assert chebyshev(3) == poly(0, -3, 0, 4)
    # commuting pair expands to 32z^6 - 48z^4 + 18z^2 - 1
    t2t3 = chebyshev(2).compose(chebyshev(3))
    t3t2 = chebyshev(3).compose(chebyshev(2))
    expected = poly(-1, 0, 18, 0, -48, 0, 32)
    assert t2t3 == expected
    assert t3t2 == expected
    # nesting identity T_m(T_n) = T_{mn}
    assert chebyshev(2).compose(chebyshev(5)) == chebyshev(10)


def test_affine_inverse_examples():
    a = AffineMap(gr(2), gr(1))
    inv = a.inverse()
    assert inv.a == gr(Fraction(1, 2))
    assert inv.b == gr(Fraction(-1, 2))
    assert a.compose(inv) == IDENTITY_MAP
    assert inv.compose(a) == IDENTITY_MAP
    assert IDENTITY_MAP.inverse() == IDENTITY_MAP
    neg = AffineMap(gr(-1), GR_ZERO)
    assert neg.inverse() == neg


def test_affine_roundtrip_and_conjugation():
    f = AffineMap(gr(1), gr(1))  # z + 1
    p = poly(0, 2, 1)  # z^2 + 2z
    assert conjugate_by(f, p) == monomial(2)
    g = affine_from_poly(poly(3, 2))
    assert g.a == gr(2) and g.b == gr(3)


def test_valuation_and_derivative():
    p = poly(0, 0, 3, 1)
    assert p.valuation() == 2
    assert p.derivative() == poly(0, 6, 3)
    assert constant(5).derivative() == ZERO_POLY


def test_monic_and_scale():
    p = poly(2, 0, 4)
    assert p.monic() == poly(Fraction(1, 2), 0, 1)
    assert p.scale(gr(Fraction(1, 2))) == poly(1, 0, 2)


def test_pow():
    assert (X + ONE_POLY) ** 2 == poly(1, 2, 1)
    assert X**0 == ONE_POLY
