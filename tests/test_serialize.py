"""Wire format round trips and the map expression parser."""

import json
from fractions import Fraction

import pytest
from util import make_rng, rand_gaussian, rand_poly, rand_ratfun

from rittforge.characters import ZERO, Exact, PowerOfBase
from rittforge.corrfinite import FinSet, FiniteCorr
from rittforge.decompose import available_moves, complete_decomposition
from rittforge.equivalence import BiEquivWitness
from rittforge.gaussian import gr
from rittforge.hcorr import from_branches
from rittforge.poly import AffineMap, Poly, X
from rittforge.ratfun import RatFun
from rittforge.serialize import (
    affine_from_json,
    affine_to_json,
    charvalue_from_json,
    charvalue_to_json,
    corr_from_json,
    corr_to_json,
    decomposition_from_json,
    decomposition_to_json,
    holcorr_from_json,
    holcorr_to_json,
    move_from_json,
    move_to_json,
    parse_complex_pair,
    parse_map,
    poly_from_json,
    poly_to_json,
    ratfun_from_json,
    ratfun_to_json,
    witness_from_json,
    witness_to_json,
)


def through_json(obj):
    return json.loads(json.dumps(obj))


class TestRoundTrips:
    def test_poly_fixed(self):
        p = Poly((gr(1, 2), gr(Fraction(-3, 4)), gr(0, Fraction(5, 7))))
        j = poly_to_json(p)
        assert j == {"coeffs": ["1/1+2/1 i", "-3/4", "0/1+5/7 i"]}
        assert poly_from_json(through_json(j)) == p

    def test_poly_random(self):
        rng = make_rng(71)
        for _ in range(25):
            p = rand_poly(rng, rng.randrange(0, 5), height=9)
            assert poly_from_json(through_json(poly_to_json(p))) == p

    def test_ratfun_random(self):
        rng = make_rng(72)
        for _ in range(25):
            r = rand_ratfun(rng, rng.randrange(0, 4), rng.randrange(0, 3))
            assert ratfun_from_json(through_json(ratfun_to_json(r))) == r

    def test_holcorr(self):
        k = from_branches([Poly((1, 1)), RatFun(Poly((1,)), Poly((0, 1)))])
        j = holcorr_to_json(k)
        # leading 1 stored explicitly
        assert j["coeffs_in_W"][-1] == {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}}
        assert holcorr_from_json(through_json(j)).poly == k.poly

    def test_affine_and_witness(self):
        w = BiEquivWitness(AffineMap(2, 1), AffineMap(gr(0, 1), -1))
        j = witness_to_json(w)
        assert witness_from_json(through_json(j)) == w
        assert witness_to_json(None) == {"result": "none"}
        assert witness_from_json({"result": "none"}) is None
        m = AffineMap(Fraction(1, 3), gr(2, 5))
        assert affine_from_json(through_json(affine_to_json(m))) == m

    def test_charvalues(self):
        cases = [ZERO, Exact(gr(35)), Exact(gr(Fraction(2, 3), 1)), PowerOfBase("e", 2), PowerOfBase(gr(3), 4)]
        for v in cases:
            assert charvalue_from_json(through_json(charvalue_to_json(v))) == v
        assert charvalue_to_json(ZERO) == {"value": "0"}
        assert charvalue_to_json(PowerOfBase("e", 2)) == {"value": {"base": "e", "exp": 2}}

    def test_decomposition_and_moves(self):
        d = complete_decomposition(Poly((1, 0, 0, 0, 0, 0, 1)))
        assert decomposition_from_json(through_json(decomposition_to_json(d))) == d
        for j in range(1, len(d.factors)):
            for m in available_moves(d, j):
                assert move_from_json(through_json(move_to_json(m))) == m

    def test_corr(self):
        c = FiniteCorr(FinSet(3), (0b011, 0b100, 0b100))
        j = corr_to_json(c)
        assert j == {"n": 3, "matrix": [[1, 1, 0], [0, 0, 1], [0, 0, 1]]}
        assert corr_from_json(through_json(j)) == c


class TestValidation:
    def test_missing_fields(self):
        with pytest.raises(ValueError):
            poly_from_json({})
        with pytest.raises(ValueError):
            ratfun_from_json({"num": {"coeffs": ["1/1"]}})
        with pytest.raises(ValueError):
            witness_from_json({"A": {"a": "1/1", "b": "0/1"}})

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            poly_from_json({"coeffs": ["nope"]})
        with pytest.raises(ValueError):
            ratfun_from_json({"num": {"coeffs": ["1/1"]}, "den": {"coeffs": []}})

    def test_nonmonic_corr_poly(self):
        with pytest.raises(ValueError):
            holcorr_from_json(
                {"coeffs_in_W": [
                    {"num": {"coeffs": ["1/1"]}, "den": {"coeffs": ["1/1"]}},
                    {"num": {"coeffs": ["2/1"]}, "den": {"coeffs": ["1/1"]}},
                ]}
            )

    def test_bad_matrix_shape(self):
        with pytest.raises(ValueError):
            corr_from_json({"n": 2, "matrix": [[1, 0]]})

    def test_unknown_move(self):
        with pytest.raises(ValueError):
            move_from_json({"kind": "teleport", "position": 1})


class TestMapParser:
    def test_basic(self):
        assert parse_map("z^2-1") == Poly((-1, 0, 1))
        assert parse_map("z") == X
        assert parse_map("3") == Poly((3,))

    def test_decimals_exact(self):
        assert parse_map("0.25z") == Poly((0, Fraction(1, 4)))
        assert parse_map("0.1 z^2") == Poly((0, 0, Fraction(1, 10)))

    def test_fractions_and_spacing(self):
        assert parse_map("1/2 z^3 + 2z - 1/3") == Poly((Fraction(-1, 3), 2, 0, Fraction(1, 2)))

    def test_parentheses_and_products(self):
        assert parse_map("-(z+1)(z-1)") == Poly((1, 0, -1))
        assert parse_map("2 * z ^ 2") == Poly((0, 0, 2))
        assert parse_map("(z^2)^3") == Poly((0, 0, 0, 0, 0, 0, 1))

    def test_power_is_right_associative(self):
        assert parse_map("z^2^3") == parse_map("z^8")
        assert parse_map("2^3^2") == Poly((512,))

    def test_exponent_budget(self):
        assert parse_map("z^1^100000") == X
        for bad in ("z^9^9^9", "z^2^2^2^2^2", "z^65537"):
            with pytest.raises(ValueError):
                parse_map(bad)

    def test_errors(self):
        for bad in ("z^", "q+1", "(z", "z^-2", "", "z z +"):
            with pytest.raises(ValueError):
                parse_map(bad)


class TestComplexPair:
    def test_parse(self):
        assert parse_complex_pair("0.5,-1.25") == (Fraction(1, 2), Fraction(-5, 4))
        assert parse_complex_pair("1/3, 2") == (Fraction(1, 3), Fraction(2))

    def test_errors(self):
        for bad in ("1", "1,2,3", "a,b"):
            with pytest.raises(ValueError):
                parse_complex_pair(bad)
