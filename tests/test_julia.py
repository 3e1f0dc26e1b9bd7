"""Orbit classification: exact preperiodicity, escape certificates, rendering."""

import math
from fractions import Fraction

import pytest
from util import make_rng, rand_poly

from rittforge.gaussian import gr
from rittforge.julia import (
    ATTRACTED,
    ESCAPE,
    FINITE,
    UNDECIDED,
    AttractedNumeric,
    FiniteExact,
    GridClassification,
    InfiniteCertified,
    Undecided,
    exact_escape_radius,
    exact_orbit,
    float_orbit,
    render,
    replay_finite,
    to_csv,
    to_pgm,
)
from rittforge.poly import Poly
from rittforge.ratfun import RatFun


def poly(*cs):
    return Poly(tuple(cs))


Z2 = poly(0, 0, 1)
Z2M1 = poly(-1, 0, 1)
Z2M2 = poly(-2, 0, 1)
ONE_OVER_Z = RatFun(poly(1), poly(0, 1))


class TestExactOrbit:
    def test_two_cycle(self):
        assert exact_orbit(Z2M1, gr(0)) == FiniteExact(0, 2)

    def test_fixed_point(self):
        assert exact_orbit(Z2, gr(1)) == FiniteExact(0, 1)

    def test_escape(self):
        assert exact_orbit(Z2, gr(2)) == InfiniteCertified(1)

    def test_preperiodic(self):
        # i -> -1 -> 1 -> 1
        assert exact_orbit(Z2, gr(0, 1)) == FiniteExact(2, 1)
        assert exact_orbit(Z2M2, gr(0)) == FiniteExact(2, 1)

    def test_orbit_through_infinity(self):
        # 0 and the point at infinity form a two-cycle for 1/z
        assert exact_orbit(ONE_OVER_Z, gr(0)) == FiniteExact(0, 2)
        assert exact_orbit(ONE_OVER_Z, gr(3)) == FiniteExact(0, 2)
        # (z^2+1)/z sends 0 to infinity, which it fixes
        pm = RatFun(poly(1, 0, 1), poly(0, 1))
        assert exact_orbit(pm, gr(0)) == FiniteExact(1, 1)

    def test_iteration_budget(self):
        assert exact_orbit(poly(1, 1), gr(0), max_iter=10) == Undecided(10)

    def test_height_budget(self):
        # no escape certificate for a non-polynomial map, heights double
        pm = RatFun(poly(1, 0, 1), poly(0, 1))
        assert exact_orbit(pm, gr(Fraction(1, 3)), height_bound=64) == Undecided(64)

    def test_degree_one_expanding(self):
        assert exact_orbit(poly(0, 2), gr(1)) == InfiniteCertified(1)

    def test_degree_one_contraction_stays_undecided(self):
        r = exact_orbit(poly(0, Fraction(1, 2)), gr(1), max_iter=20)
        assert r == Undecided(20)


class TestEscapeRadius:
    def test_known_values(self):
        assert exact_escape_radius(Z2) == 2
        assert exact_escape_radius(Z2M2) == 4

    def test_affine_fixed_point_distance_included(self):
        # 2z+100 has its fixed point at -100; naive formula would give 51.5
        assert exact_escape_radius(poly(100, 2)) >= 100

    def test_affine_without_expansion_has_no_radius(self):
        assert exact_escape_radius(poly(3, 1)) is None
        assert exact_escape_radius(poly(0, Fraction(1, 2))) is None

    def test_radius_forces_growth(self):
        # exact check: norm beyond the radius strictly grows in one step
        rng = make_rng(61)
        units = [gr(1), gr(-1), gr(0, 1), gr(Fraction(3, 5), Fraction(4, 5))]
        for _ in range(20):
            p = rand_poly(rng, rng.randrange(2, 4), height=4)
            m = exact_escape_radius(p)
            assert m is not None and m >= 1
            z = units[rng.randrange(4)] * (m + 1)
            assert z.norm() > m * m
            assert p.eval(z).norm() > z.norm()


class TestReplay:
    def test_reported_repeats_are_exact(self):
        cases = [
            (Z2M1, gr(0)),
            (Z2, gr(0, 1)),
            (Z2M2, gr(0)),
            (ONE_OVER_Z, gr(0)),
            (RatFun(poly(1, 0, 1), poly(0, 1)), gr(0)),
        ]
        for R, a in cases:
            report = exact_orbit(R, a)
            assert isinstance(report, FiniteExact)
            assert replay_finite(R, a, report)


class TestFloatOrbit:
    def test_superattracting_fixed_point(self):
        r = float_orbit(Z2, 0.5)
        assert isinstance(r, AttractedNumeric)
        assert r.period == 1
        assert r.multiplier_modulus < 1e-6

    def test_escape(self):
        assert float_orbit(Z2, 2) == InfiniteCertified(1)

    def test_superattracting_two_cycle(self):
        r = float_orbit(Z2M1, 0.0)
        assert r == AttractedNumeric(2, 0.0)

    def test_repelling_landing_is_finite_evidence(self):
        # 0 -> -2 -> 2 -> 2 exactly in floats; multiplier |2*2| = 4
        assert float_orbit(Z2M2, 0.0) == FiniteExact(2, 1)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            float_orbit(Z2, 0.5, eps=0.0)

    def test_rational_map_rejected(self):
        with pytest.raises(ValueError):
            float_orbit(ONE_OVER_Z, 1.0)

    def test_escape_radius_override(self):
        assert float_orbit(Z2, 0.9, escape_radius=0.5) == InfiniteCertified(1)

    def test_budget(self):
        # boundary point of the unit circle never settles
        r = float_orbit(Z2, complex(math.cos(1.0), math.sin(1.0)), max_iter=30)
        assert r == Undecided(30)

    def test_exact_float_period_agreement(self):
        samples = [
            (Z2, gr(0, 1)),
            (Z2, gr(-1)),
            (Z2M1, gr(0)),
            (Z2M1, gr(-1)),
            (Z2M2, gr(0)),
        ]
        for P, a in samples:
            e = exact_orbit(P, a)
            assert isinstance(e, FiniteExact)
            f = float_orbit(P, complex(a.re, a.im))
            assert isinstance(f, (FiniteExact, AttractedNumeric))
            assert f.period == e.period


class TestRender:
    def test_degenerate_grid_matches_float_orbit(self):
        g = render(Z2, center=0.5 + 0j, width=1.0, nx=1, max_iter=50)
        f = float_orbit(Z2, 0.5, max_iter=50)
        assert g.codes == (ATTRACTED,)
        assert g.periods == (f.period,)

    def test_grid_agrees_with_scalar_orbits(self):
        g = render(Z2M2, center=0.1 + 0.05j, width=3.0, height=2.0, nx=8, ny=6, max_iter=25)
        by_type = {
            FiniteExact: FINITE,
            InfiniteCertified: ESCAPE,
            AttractedNumeric: ATTRACTED,
            Undecided: UNDECIDED,
        }
        for pos, (x, y) in enumerate(g.cell_coords()):
            f = float_orbit(Z2M2, complex(x, y), max_iter=25)
            assert g.codes[pos] == by_type[type(f)]
            if isinstance(f, (FiniteExact, AttractedNumeric)):
                assert g.periods[pos] == f.period

    @pytest.mark.parametrize("R, width", [
        (poly(Fraction(1, 4), 0, 1), 3.0),
        (Z2M1, 5.0),
        (Z2M2, 6.0),
    ])
    def test_grid_agrees_with_scalar_orbits_as_cells_drop_out(self, R, width):
        # wide views: most cells escape at different iterations, so the
        # history rows are compacted several times during the render
        g = render(R, center=0.05 + 0.02j, width=width, nx=24, ny=16, max_iter=60)
        for pos, (x, y) in enumerate(g.cell_coords()):
            f = float_orbit(R, complex(x, y), max_iter=60)
            if isinstance(f, InfiniteCertified):
                assert g.codes[pos] == ESCAPE
            elif isinstance(f, AttractedNumeric):
                assert (g.codes[pos], g.periods[pos]) == (ATTRACTED, f.period)
            elif isinstance(f, FiniteExact):
                assert (g.codes[pos], g.periods[pos], g.preperiods[pos]) == (
                    FINITE, f.period, f.preperiod)
            else:
                assert g.codes[pos] == UNDECIDED

    def test_determinism(self):
        a = render(Z2, width=4.0, nx=64, max_iter=12)
        b = render(Z2, width=4.0, nx=64, max_iter=12)
        assert a == b
        assert to_pgm(a) == to_pgm(b)

    def test_unit_circle_classification(self):
        g = render(Z2, center=0j, width=4.0, nx=101, max_iter=12)
        esc = out = att = inn = und = 0
        for pos, (x, y) in enumerate(g.cell_coords()):
            r = math.hypot(x, y)
            if r > 1.05:
                out += 1
                esc += g.codes[pos] == ESCAPE
            elif r < 0.95:
                inn += 1
                att += g.codes[pos] == ATTRACTED
            elif g.codes[pos] == UNDECIDED:
                und += 1
        assert esc / out > 0.99
        assert att / inn > 0.99
        assert und > 0

    def test_real_segment_julia_set(self):
        # the undecided band for z^2-2 hugs the segment [-2, 2]
        g = render(Z2M2, center=0j, width=5.0, nx=41, max_iter=40)
        cw = 5.0 / 40
        for pos, (x, y) in enumerate(g.cell_coords()):
            if g.codes[pos] in (UNDECIDED, FINITE):
                assert abs(y) <= 2 * cw + 1e-12
                assert -2 - 2 * cw <= x <= 2 + 2 * cw

    def test_exact_mode_overrides(self):
        g = render(Z2M1, center=0j, width=2.0, nx=3, ny=3, max_iter=30, exact=True)
        assert g.codes == (ESCAPE,) * 3 + (FINITE,) * 3 + (ESCAPE,) * 3
        assert g.periods == (0, 0, 0, 2, 2, 2, 0, 0, 0)
        assert g.preperiods == (0, 0, 0, 0, 0, 1, 0, 0, 0)

    def test_row_major_top_left_first(self):
        g = render(Z2, center=0j, width=2.0, nx=3, ny=3, max_iter=5)
        coords = list(g.cell_coords())
        assert coords[0] == (-1.0, 1.0)
        assert coords[-1] == (1.0, -1.0)

    def test_resolution_budget(self):
        with pytest.raises(ValueError):
            render(Z2, nx=8193)
        with pytest.raises(ValueError):
            render(Z2, nx=0)


class TestOutputs:
    def fixture_grid(self):
        return render(Z2M1, center=0j, width=2.0, nx=3, ny=3, max_iter=30, exact=True)

    def test_pgm_binary(self):
        g = self.fixture_grid()
        data = to_pgm(g)
        assert data.startswith(b"P5\n3 3\n255\n")
        assert data[len(b"P5\n3 3\n255\n"):] == bytes(g.codes)

    def test_pgm_ascii(self):
        g = self.fixture_grid()
        text = to_pgm(g, ascii_format=True).decode()
        assert text == "P2\n3 3\n255\n255 255 255\n0 0 0\n255 255 255\n"

    def test_csv(self):
        g = self.fixture_grid()
        lines = to_csv(g).splitlines()
        assert lines[0] == "re,im,class,period,preperiod"
        assert lines[1] == "-1.0,1.0,ESCAPE,0,0"
        assert lines[5] == "0.0,0.0,FINITE,2,0"
        assert lines[6] == "1.0,0.0,FINITE,2,1"
        assert len(lines) == 10
