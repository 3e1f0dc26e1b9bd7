from rittforge.bipoly import (
    BIVAR_ONE,
    BIVAR_ZERO,
    BiPoly,
    BivarPoly,
    bareiss_det,
    bipoly_divmod,
    bipoly_gcd,
    poly_lcm,
    resultant_in_W,
)
from rittforge.poly import ONE_POLY, Poly, constant, poly
from rittforge.ratfun import RF_ONE, RatFun, ratfun

from util import make_rng, rand_poly


def bp(*coeffs):
    """BiPoly from ascending fiber-variable coefficients."""
    return BiPoly(tuple(coeffs))


W_MINUS_Z2 = bp(ratfun(poly(0, 0, -1)), RF_ONE)  # W - z^2
U_MINUS_W_MINUS_1 = bp(ratfun(poly(-1, -1)), RF_ONE)  # (-1 - w) + U


def test_resultant_substitution_example():
    res = resultant_in_W(W_MINUS_Z2, U_MINUS_W_MINUS_1)
    # U - z^2 - 1
    assert res == bp(ratfun(poly(-1, 0, -1)), RF_ONE)


def test_resultant_shared_factor_is_zero():
    w_only = bp(ratfun(poly(0, 1)))  # the polynomial W, read in (W, U) variables
    f_w = bp(ratfun(poly(0)), RF_ONE)  # W as a fiber polynomial over z
    assert resultant_in_W(f_w, w_only).is_zero()


def test_resultant_square_substitution():
    f = bp(ratfun(poly(0, -1)), RF_ONE)  # W - z
    g = bp(ratfun(poly(0, 0, -1)), RF_ONE)  # U - w^2 read as (W, U)
    res = resultant_in_W(f, g)
    assert res == bp(ratfun(poly(0, 0, -1)), RF_ONE)  # U - z^2


def test_resultant_common_component_case():
    # f = (W - 2)(W - z), g = (w - 2)(U - w): shared root W = 2
    f = bp(ratfun(poly(0, 2)), ratfun(poly(-2, -1)), RF_ONE)
    g = bp(ratfun(poly(0, 2, -1)), ratfun(poly(-2, 1)))
    assert resultant_in_W(f, g).is_zero()


def test_resultant_with_denominator_in_z():
    # f = W - 1/z, g = U - w  ->  U - 1/z
    f = bp(RatFun(poly(-1), poly(0, 1)), RF_ONE)
    g = bp(ratfun(poly(0, -1)), RF_ONE)
    res = resultant_in_W(f, g)
    assert res == bp(RatFun(poly(-1), poly(0, 1)), RF_ONE)


def test_resultant_with_denominator_in_w():
    # f = W - z, g = U - 1/w  ->  U - 1/z
    f = bp(ratfun(poly(0, -1)), RF_ONE)
    g = bp(RatFun(poly(-1), poly(0, 1)), RF_ONE)
    res = resultant_in_W(f, g)
    assert res == bp(RatFun(poly(-1), poly(0, 1)), RF_ONE)


def test_resultant_rejects_zero():
    try:
        resultant_in_W(BiPoly(()), W_MINUS_Z2)
        assert False
    except ValueError:
        pass


def test_bivar_exact_div_round_trip():
    rng = make_rng(8)
    for _ in range(15):
        a = BivarPoly(tuple(rand_poly(rng, rng.randint(0, 2), 3) for _ in range(3)))
        b = BivarPoly(tuple(rand_poly(rng, rng.randint(0, 2), 3) for _ in range(2)))
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def _naive_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = BIVAR_ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _naive_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_bareiss_matches_cofactor_expansion():
    rng = make_rng(9)
    for size in (2, 3, 4):
        for _ in range(5):
            rows = [
                [
                    BivarPoly(tuple(rand_poly(rng, rng.randint(0, 1), 2) for _ in range(rng.randint(1, 2))))
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert bareiss_det(rows) == _naive_det(rows)


def test_bareiss_trivial_cases():
    assert bareiss_det([]) == BIVAR_ONE
    z_row = BivarPoly((poly(0, 1),))
    assert bareiss_det([[z_row]]) == z_row
    assert bareiss_det([[BIVAR_ZERO, BIVAR_ONE], [BIVAR_ZERO, BIVAR_ONE]]) == BIVAR_ZERO


def test_bipoly_divmod_and_gcd():
    w_minus_z = bp(ratfun(poly(0, -1)), RF_ONE)
    w_plus_1 = bp(ratfun(poly(1)), RF_ONE)
    prod = w_minus_z * w_minus_z * w_plus_1
    q, r = bipoly_divmod(prod, w_minus_z)
    assert r.is_zero()
    assert q == w_minus_z * w_plus_1
    g = bipoly_gcd(prod, w_minus_z * w_plus_1)
    assert g == w_minus_z * w_plus_1


def test_bipoly_squarefree():
    w_minus_z = bp(ratfun(poly(0, -1)), RF_ONE)
    w_plus_1 = bp(ratfun(poly(1)), RF_ONE)
    sq = (w_minus_z * w_minus_z * w_plus_1).squarefree()
    assert sq == w_minus_z * w_plus_1
    assert (w_minus_z * w_plus_1).squarefree() == w_minus_z * w_plus_1


def test_bipoly_eval_at():
    # (W - z^2) at W = z^2 vanishes
    assert W_MINUS_Z2.eval_at(ratfun(poly(0, 0, 1))).is_zero()


def test_clear_denominators():
    f = bp(RatFun(poly(1), poly(0, 1)), RF_ONE)  # 1/z + W
    cleared, lcm = f.clear_denominators()
    assert lcm == poly(0, 1)
    assert cleared == BivarPoly((poly(1), poly(0, 1)))


def test_poly_lcm():
    a = poly(-1, 1) * poly(-2, 1)
    b = poly(-2, 1) * poly(-3, 1)
    assert poly_lcm(a, b) == (poly(-1, 1) * poly(-2, 1) * poly(-3, 1)).monic()


def test_content_is_the_common_factor_in_any_coefficient_order():
    rng = make_rng(71)
    cofactors = [poly(-1, 1), poly(-2, 1) * poly(3, 1), poly(5, 1), poly(7)]
    for _ in range(5):
        c = rand_poly(rng, rng.randint(1, 3))
        coeffs = [c * f for f in cofactors]
        assert BivarPoly(tuple(coeffs)).content() == c.monic()
        assert BivarPoly(tuple(coeffs[:3])).content() == c.monic()
        assert BivarPoly(tuple(reversed(coeffs[:3]))).content() == c.monic()
    assert BivarPoly((poly(0, 1), poly(3), poly(1, 1))).content() == ONE_POLY
    assert BIVAR_ZERO.content() == Poly(())
