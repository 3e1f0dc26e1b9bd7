"""Orbit classification for iterated maps over Q(i) and the complex plane.

The forward orbit of a point decides whether the semigroup it generates with
the map is finite: an exact revisit certifies finiteness, escape past the
polynomial escape radius certifies an infinite orbit, and everything else is
budget-limited. The exact path iterates in big-rational arithmetic; the float
path is a numerical surrogate whose FINITE verdicts are evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dense
from .gaussian import GR_ZERO, GaussianRational, gr
from .poly import Poly
from .ratfun import RatFun, _as_ratfun

DEFAULT_MAX_ITER = 1000
DEFAULT_EPS = 1e-9
DEFAULT_HEIGHT_BOUND = 4096
MAX_GRID_SIDE = 8192

# grid class codes, doubling as PGM gray levels
FINITE = 0
UNDECIDED = 85
ATTRACTED = 170
ESCAPE = 255
CLASS_NAMES = {FINITE: "FINITE", UNDECIDED: "UNDECIDED", ATTRACTED: "ATTRACTED", ESCAPE: "ESCAPE"}


@dataclass(frozen=True, slots=True)
class FiniteExact:
    preperiod: int
    period: int


@dataclass(frozen=True, slots=True)
class InfiniteCertified:
    escape_iterate: int


@dataclass(frozen=True, slots=True)
class AttractedNumeric:
    period: int
    multiplier_modulus: float


@dataclass(frozen=True, slots=True)
class Undecided:
    budget: int


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INF"


INF = _Infinity()


def _abs_over(x: GaussianRational) -> Fraction:
    # |x| <= |re| + |im|
    return abs(x.re) + abs(x.im)


def _abs_under(x: GaussianRational) -> Fraction:
    # |x| >= max(|re|, |im|)
    return max(abs(x.re), abs(x.im))


def exact_escape_radius(p: Poly):
    """Rational upper bound M for max(1, (1 + sum|c_i|)/|lead|) such that
    |z| > M forces |p(z)| > |z|, or None when no sound bound applies.

    Valid for degree >= 2; for degree 1 only when the leading coefficient
    provably exceeds 1 in modulus, with the fixed-point distance folded in.
    """
    d = p.degree
    if d < 1:
        return None
    total = Fraction(1) + sum(_abs_over(c) for c in p.coeffs)
    lead_under = _abs_under(p.lead())
    if lead_under == 0:
        return None
    if d == 1:
        if lead_under <= 1:
            return None
        pull = _abs_over(p.coeff(0)) / (lead_under - 1)
        return max(Fraction(1), total / lead_under, pull)
    return max(Fraction(1), total / lead_under)


def _exact_step(R: RatFun, z):
    """One application of R on the Riemann sphere, in exact arithmetic."""
    if z is INF:
        dn, dd = R.num.degree, R.den.degree
        if dn > dd:
            return INF
        if dn == dd:
            return R.num.lead() / R.den.lead()
        return GR_ZERO
    dv = R.den.eval(z)
    return INF if not dv else R.num.eval(z) / dv


def exact_orbit(R, a, max_iter: int = DEFAULT_MAX_ITER, height_bound: int = DEFAULT_HEIGHT_BOUND):
    """Classify the exact forward orbit of a under R.

    A pole sends the orbit to the point at infinity, where the map acts by
    degree comparison; every rational map is defined there, so the orbit
    continues and an exact revisit (possibly at infinity) is still finite.
    """
    R = _as_ratfun(R)
    a = a if isinstance(a, GaussianRational) else gr(a)
    radius_sq = None
    if R.den.is_constant():
        effective = R.num.scale(1 / R.den.constant_value())
        m = exact_escape_radius(effective)
        if m is not None:
            radius_sq = m * m
    visited = {}
    z = a
    for n in range(max_iter + 1):
        if z in visited:
            first = visited[z]
            return FiniteExact(first, n - first)
        if z is not INF:
            if radius_sq is not None and z.norm() > radius_sq:
                return InfiniteCertified(n)
            if _height_bits(z) > height_bound:
                return Undecided(height_bound)
        visited[z] = n
        z = _exact_step(R, z)
    return Undecided(max_iter)


def _height_bits(z: GaussianRational) -> int:
    re, im = z.re, z.im
    return max(
        re.numerator.bit_length(),
        re.denominator.bit_length(),
        im.numerator.bit_length(),
        im.denominator.bit_length(),
    )


def replay_finite(R, a, report: FiniteExact) -> bool:
    """Re-run the reported preperiod and period; the repeat must be exact."""
    R = _as_ratfun(R)
    z = a if isinstance(a, GaussianRational) else gr(a)
    seq = [z]
    for _ in range(report.preperiod + report.period):
        z = _exact_step(R, z)
        seq.append(z)
    return seq[report.preperiod] == seq[report.preperiod + report.period]


def _complex_coeffs(R):
    if isinstance(R, Poly):
        cs = R.to_complex_coeffs()
    elif isinstance(R, RatFun):
        if not R.is_poly():
            raise ValueError("float orbit handles polynomial maps only")
        cs = R.to_poly().to_complex_coeffs()
    else:
        cs = [complex(c) for c in R]
    return cs or [0.0 + 0.0j]


def _float_radius(cs) -> float:
    d = len(cs) - 1
    if d < 2:
        return float("inf")
    return max(1.0, (1.0 + sum(abs(c) for c in cs)) / abs(cs[-1]))


def float_orbit(R, a, max_iter: int = DEFAULT_MAX_ITER, eps: float = DEFAULT_EPS, escape_radius=None):
    """Numerical orbit classification by escape and eps-revisit.

    An eps-revisit at an attracting multiplier is a converging infinite orbit
    (AttractedNumeric); at a repelling multiplier the shadowing indicates a
    true landing and is reported as FINITE evidence; near-indifferent
    multipliers stay Undecided.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cs = _complex_coeffs(R)
    if escape_radius is None:
        escape_radius = _float_radius(cs)
    der = [i * cs[i] for i in range(1, len(cs))]
    z = complex(a)
    pts = [z]
    for n in range(1, max_iter + 1):
        z = dense.horner(cs, z, 0j)
        if abs(z) > escape_radius:
            return InfiniteCertified(n)
        for j, w in enumerate(pts):
            if abs(z - w) <= eps:
                mult = 1.0
                for k in range(j, n):
                    mult = mult * abs(dense.horner(der, pts[k], 0j))
                period = n - j
                if mult < 1.0 - eps:
                    return AttractedNumeric(period, mult)
                if mult > 1.0 + eps:
                    return FiniteExact(j, period)
                return Undecided(max_iter)
        pts.append(z)
    return Undecided(max_iter)


@dataclass(frozen=True, slots=True)
class GridClassification:
    """Row-major cell classes over a rectangle; row 0 is the top edge
    (largest imaginary part), columns scan left to right."""

    center: complex
    width: float
    height: float
    nx: int
    ny: int
    codes: tuple
    periods: tuple
    preperiods: tuple

    def cell_coords(self):
        xs, ys = _grid_axes(
            Fraction(self.center.real), Fraction(self.center.imag),
            Fraction(self.width), Fraction(self.height), self.nx, self.ny,
        )
        for y in ys:
            for x in xs:
                yield float(x), float(y)


def _grid_axes(cx, cy, w, h, nx, ny):
    if nx == 1:
        xs = [cx]
    else:
        xs = [cx - w / 2 + Fraction(i, nx - 1) * w for i in range(nx)]
    if ny == 1:
        ys = [cy]
    else:
        ys = [cy + h / 2 - Fraction(r, ny - 1) * h for r in range(ny)]
    return xs, ys


def render(
    R,
    center=0j,
    width=4.0,
    height=None,
    nx=256,
    ny=None,
    max_iter: int = DEFAULT_MAX_ITER,
    eps: float = DEFAULT_EPS,
    escape_radius=None,
    exact: bool = False,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
) -> GridClassification:
    """Classify every grid point with float_orbit semantics; with exact mode,
    additionally run the exact orbit at each (rational) grid point and let
    certified FINITE and ESCAPE verdicts override.

    Cells are independent; this implementation is sequential and the output is
    a pure function of the inputs.
    """
    ny = nx if ny is None else ny
    height = width if height is None else height
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be positive")
    if nx > MAX_GRID_SIDE or ny > MAX_GRID_SIDE:
        raise ValueError("budget exceeded: resolution above 8192 per side")
    if eps <= 0:
        raise ValueError("eps must be positive")
    center = complex(center)
    cx, cy = Fraction(center.real), Fraction(center.imag)
    w, h = Fraction(width), Fraction(height)
    xs, ys = _grid_axes(cx, cy, w, h, nx, ny)

    cs = _complex_coeffs(R)
    if escape_radius is None:
        escape_radius = _float_radius(cs)
    der = [i * cs[i] for i in range(1, len(cs))]
    cells = nx * ny
    z0 = np.array([complex(x, y) for y in ys for x in xs], dtype=complex)
    codes = np.full(cells, UNDECIDED, dtype=np.int64)
    periods = np.zeros(cells, dtype=np.int64)
    preperiods = np.zeros(cells, dtype=np.int64)

    active = np.ones(cells, dtype=bool)
    # hist[j][at[c]] is the j-th iterate at cell c while c is active.  The
    # rows hold the cells that were active when they were last compacted,
    # which happens whenever fewer than half of those are still active.
    hist = [z0]
    at = np.arange(cells)
    for n in range(1, max_iter + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        if 2 * idx.size < hist[0].size:
            keep = at[idx]
            for k, row in enumerate(hist):
                hist[k] = row[keep]
            at[idx] = np.arange(idx.size)
        zn = dense.horner(cs, hist[-1][at[idx]], 0j)
        esc = np.abs(zn) > escape_radius
        codes[idx[esc]] = ESCAPE
        live = idx[~esc]
        live_at = at[live]
        zlive = zn[~esc]
        unmatched = np.ones(live.size, dtype=bool)
        for j in range(n):
            if not unmatched.any():
                break
            hit = unmatched & (np.abs(zlive - hist[j][live_at]) <= eps)
            if not hit.any():
                continue
            cells_j = live[hit]
            rows_j = live_at[hit]
            mult = np.ones(cells_j.size)
            for k in range(j, n):
                mult = mult * np.abs(dense.horner(der, hist[k][rows_j], 0j))
            att = mult < 1.0 - eps
            rep = mult > 1.0 + eps
            codes[cells_j[att]] = ATTRACTED
            codes[cells_j[rep]] = FINITE
            landed = np.concatenate([cells_j[att], cells_j[rep]])
            periods[landed] = n - j
            preperiods[landed] = j
            active[cells_j] = False
            unmatched = unmatched & ~hit
        active[idx[esc]] = False
        row = np.zeros(hist[0].size, dtype=complex)
        row[at[idx]] = zn
        hist.append(row)

    if exact:
        R_exact = _exact_map(R, cs)
        pos = 0
        for y in ys:
            for x in xs:
                report = exact_orbit(R_exact, gr(x, y), max_iter=max_iter, height_bound=height_bound)
                if isinstance(report, FiniteExact):
                    codes[pos] = FINITE
                    periods[pos] = report.period
                    preperiods[pos] = report.preperiod
                elif isinstance(report, InfiniteCertified):
                    codes[pos] = ESCAPE
                    periods[pos] = 0
                    preperiods[pos] = 0
                pos += 1

    return GridClassification(
        center, float(width), float(height), nx, ny,
        tuple(int(c) for c in codes),
        tuple(int(p) for p in periods),
        tuple(int(p) for p in preperiods),
    )


def _exact_map(R, cs):
    if isinstance(R, (Poly, RatFun)):
        return R
    return Poly(tuple(gr(Fraction(c.real), Fraction(c.imag)) for c in cs))


def to_pgm(grid: GridClassification, ascii_format: bool = False) -> bytes:
    header = f"{'P2' if ascii_format else 'P5'}\n{grid.nx} {grid.ny}\n255\n"
    if ascii_format:
        rows = []
        for r in range(grid.ny):
            row = grid.codes[r * grid.nx : (r + 1) * grid.nx]
            rows.append(" ".join(str(c) for c in row))
        return header.encode() + ("\n".join(rows) + "\n").encode()
    return header.encode() + bytes(grid.codes)


def to_csv(grid: GridClassification) -> str:
    lines = ["re,im,class,period,preperiod"]
    for pos, (x, y) in enumerate(grid.cell_coords()):
        lines.append(
            f"{x!r},{y!r},{CLASS_NAMES[grid.codes[pos]]},{grid.periods[pos]},{grid.preperiods[pos]}"
        )
    return "\n".join(lines) + "\n"
