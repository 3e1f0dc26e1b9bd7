"""Seeded job lists and output checks for the four workloads.

A job is a dict with the argv handed to ``rittforge.cli.main`` and the data
its check needs.  A workload's *round* is its whole job list; the timed loop
repeats rounds.  Every job list is built from ``random.Random(seed)`` with
the independent arithmetic in ``exact``, so the program sees only argv.

Rounds are stratified: the seed draws coefficients, points, orderings and
pairings, while the shapes that set the cost (degrees, kernel sizes, grid
sizes) are fixed per round.  That keeps the work per round, and so the
reported rates, comparable across seeds.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from fractions import Fraction

import exact as E

HERE = os.path.dirname(os.path.abspath(__file__))

# --- shared helpers ------------------------------------------------------------


def _gint(rng, h):
    return (rng.randint(-h, h), rng.randint(-h, h))


def _gint_nz(rng, h):
    while True:
        x = _gint(rng, h)
        if E.gnonzero(x):
            return x


def _rand_poly(rng, d, h):
    """Degree-d polynomial with Gaussian-integer coefficients of height <= h."""
    return tuple([_gint(rng, h) for _ in range(d)] + [_gint_nz(rng, h)])


def _chain(factors):
    """f_1 o f_2 o ... o f_k."""
    acc = factors[-1]
    for f in reversed(factors[:-1]):
        acc = E.pcompose(f, acc)
    return acc


def _pj(p) -> str:
    return json.dumps(E.poly_json(p))


def _monomial(k):
    return tuple([E.ZERO] * k + [E.ONE])


def _chebyshev(n):
    t0, t1 = (E.ONE,), (E.ZERO, E.ONE)
    for _ in range(n - 1):
        t0, t1 = t1, E.psub(E.pmul(((0, 0), (2, 0)), t1), t0)
    return t1


def _affine_json(a, b):
    return {"a": E.fmt(a), "b": E.fmt(b)}


def _parse_out(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# --- ritt: the composition-semigroup side ------------------------------------------

# Right-factor degrees are the primes 2, 3, 5, so every generated factor is
# indecomposable and the decomposition length is known in advance.
DECOMPOSE_SHAPES = (
    (2, 3), (3, 2), (2, 5), (5, 3), (3, 3),
    (2, 2, 3), (3, 2, 2), (2, 3, 5), (5, 2, 3), (3, 5, 2),
)
INDECOMPOSABLE_N = (32, 48, 64)
BIORBIT_DEGREES = (4, 5, 6, 7, 8)
NONPAIR_DEGREES = (4, 6, 8)
CONJ_DEGREES = (3, 4, 5)
PRIMES = (2, 3, 5)


def _decompose_job(p, degrees, argv_poly=None):
    return {
        "kind": "decompose",
        "argv": ["decompose", argv_poly or _pj(p)],
        "poly": p,
        "degrees": sorted(degrees),
    }


def _apply_jobs(rng, factors, special):
    """Every move listed for the chain, plus one random affine shuffle."""
    dec = json.dumps({"factors": [E.poly_json(f) for f in factors]})
    moves = [({"kind": "affine_shuffle", "position": j, "A": _affine_json(E.ONE, E.ZERO)},
              list(factors)) for j in range(1, len(factors))]
    moves += special
    j = rng.randint(1, len(factors) - 1)
    a, b = _gint_nz(rng, 2), _gint(rng, 2)
    out = list(factors)
    out[j - 1] = E.pcompose(factors[j - 1], E.affine(a, b))
    ainv = E.gdiv(E.ONE, a)
    out[j] = E.pcompose(E.affine(ainv, E.gneg(E.gmul(b, ainv))), factors[j])
    moves.append(({"kind": "affine_shuffle", "position": j, "A": _affine_json(a, b)}, out))
    return [
        {"kind": "ritt_apply", "argv": ["ritt", "apply", dec, json.dumps(move)],
         "factors": expect, "composite": _chain(factors)}
        for move, expect in moves
    ]


def _swap(factors, j, pair):
    out = list(factors)
    out[j - 1], out[j] = pair
    return out


RITT_DRAWS = 3


def ritt_round(rng):
    """Three draws of the random jobs, and the fixed indecomposables once."""
    jobs = [job for k in range(RITT_DRAWS) for job in _ritt_draw(rng, k)]
    for n in INDECOMPOSABLE_N:
        p = E.padd(_monomial(n), ((1, 0), (1, 0), (0, 0), (0, 0), (0, 0), (3, 0)))
        jobs.append(_decompose_job(p, (n,), f"z^{n}+3z^5+z+1"))
    rng.shuffle(jobs)
    return jobs


def _ritt_draw(rng, k):
    jobs = []
    for shape in DECOMPOSE_SHAPES:
        jobs.append(_decompose_job(_chain([_rand_poly(rng, d, 3) for d in shape]), shape))

    # a random chain of degrees 2, 3, 5; draw k rotates their order
    chain = [_rand_poly(rng, d, 3) for d in PRIMES[k:] + PRIMES[:k]]
    jobs += _apply_jobs(rng, chain, [])
    # a Chebyshev pair followed by a random cubic
    a, b = rng.sample((2, 3), 2)
    chain = [_chebyshev(a), _chebyshev(b), _rand_poly(rng, 3, 2)]
    swap = {"kind": "chebyshev_swap", "position": 1}
    jobs += _apply_jobs(rng, chain, [(swap, _swap(chain, 1, (chain[1], chain[0])))])
    # a monomial pair (z^k, z^r P(z^k)) with P(0) != 0 and degree 5, then a cubic
    k, r, dp = rng.choice(((2, 1, 2), (3, 2, 1), (2, 3, 1)))
    pk = _rand_poly(rng, dp, 2)
    if not E.gnonzero(pk[0]):
        pk = ((1, 0),) + pk[1:]
    g = E.pmul(_monomial(r), E.pcompose(pk, _monomial(k)))
    chain = [_monomial(k), g, _rand_poly(rng, 3, 2)]
    swap = {"kind": "monomial_swap", "position": 1, "k": k, "r": r}
    new_pair = (E.pmul(_monomial(r), E.ppow(pk, k)), _monomial(k))
    jobs += _apply_jobs(rng, chain, [(swap, _swap(chain, 1, new_pair))])

    for d in BIORBIT_DEGREES:
        p = _rand_poly(rng, d, 3)
        jobs.append(_biorbit_job(p, _transport(rng, p), pair=True))
    for d in NONPAIR_DEGREES:
        p = _rand_poly(rng, d, 3)
        jobs.append(_biorbit_job(p, _transport(rng, _perturb_support(rng, p)), pair=False))
    for d in CONJ_DEGREES:
        p = _rand_poly(rng, d, 3)
        a, b = _gint_nz(rng, 2), _gint(rng, 2)
        ainv = E.gdiv(E.ONE, a)
        q = E.pcompose(E.pcompose(E.affine(a, b), p), E.affine(ainv, E.gneg(E.gmul(b, ainv))))
        jobs.append({"kind": "conj", "argv": ["equiv", "conj", _pj(p), _pj(q)], "p": p, "q": q})
    for shape in ((2, 3), (3, 2, 2)):
        p = _chain([_rand_poly(rng, d, 2) for d in shape])
        jobs.append({"kind": "char", "argv": ["char", "eval", "--kind", "length", _pj(p)],
                     "value": {"base": "e", "exp": len(shape)}})
    for d in (2, 3):
        base = _rand_poly(rng, d, 2)
        p = _transport(rng, E.pcompose(base, base))
        jobs.append({"kind": "char",
                     "argv": ["char", "eval", "--kind", "orbit", "--prime", _pj(base),
                              "--base", "2", _pj(p)],
                     "value": {"base": "2/1", "exp": 2}})
    for shape in ((2, 3, 2), (3, 2, 2), (2, 2, 3)):
        gk, f, h = (_rand_poly(rng, d, 2) for d in shape)
        jobs.append({"kind": "sandwich", "argv": ["sandwich", "compose", _pj(gk), _pj(f), _pj(h)],
                     "poly": E.pcompose(f, E.pcompose(gk, h))})
    return jobs


def _transport(rng, p):
    """A o p o B for random affine A, B with Gaussian-integer coefficients."""
    a1, b1, a2, b2 = _gint_nz(rng, 2), _gint(rng, 2), _gint_nz(rng, 2), _gint(rng, 2)
    return E.padd(E.pscale(E.pcompose(p, E.affine(a2, b2)), a1), (b1,))


def _perturb_support(rng, p):
    """Centre p and toggle one interior coefficient between zero and one, so
    the affine normal forms of p and the result have different supports."""
    n = E.degree(p)
    shift = E.gneg(E.gdiv(p[n - 1], E.gmul((n, 0), p[n])))
    moved = list(E.pcompose(p, E.affine(E.ONE, shift)))
    j = rng.randint(1, n - 2)
    moved[j] = E.ZERO if E.gnonzero(moved[j]) else E.ONE
    return E.trim(moved)


def _biorbit_job(p, q, pair):
    return {"kind": "biorbit", "argv": ["equiv", "biorbit", _pj(p), _pj(q)],
            "p": p, "q": q, "pair": pair}


def _check_decompose(job, out):
    factors = [E.poly_from_json(f) for f in out["factors"]]
    if sorted(E.degree(f) for f in factors) != job["degrees"]:
        return f"degree multiset {[E.degree(f) for f in factors]} != {job['degrees']}"
    if out["length"] != len(job["degrees"]) or sorted(out["degree_multiset"]) != job["degrees"]:
        return "reported length or degree multiset is wrong"
    if _chain(factors) != job["poly"]:
        return "factors do not recompose to the input"
    return None


def _check_ritt_apply(job, out):
    factors = [E.poly_from_json(f) for f in out["factors"]]
    if factors != job["factors"]:
        return "rewritten chain differs from the expected pair"
    if _chain(factors) != job["composite"]:
        return "rewritten chain changed the composite"
    return None


def _transports(p, q, A, B):
    (aa, ab), (ba, bb) = A, B
    return E.padd(E.pscale(E.pcompose(p, E.affine(ba, bb)), aa), (ab,)) == q


def _check_biorbit(job, out):
    if out.get("result") == "none":
        if job["pair"]:
            return "no witness for a constructed pair"
        if E.normal_form_support(job["p"]) == E.normal_form_support(job["q"]):
            return "'none' is not certified by the normal-form supports"
        return None
    if not _transports(job["p"], job["q"], E.affine_from_json(out["A"]), E.affine_from_json(out["B"])):
        return "witness does not transport p to q"
    return None


def _check_conj(job, out):
    if "A" not in out:
        return "no conjugacy witness for a constructed pair"
    f = E.affine(*E.affine_from_json(out["A"]))
    if E.pcompose(f, job["p"]) != E.pcompose(job["q"], f):
        return "witness does not conjugate p to q"
    return None


def _check_char(job, out):
    return None if out == {"value": job["value"]} else f"value {out} != {job['value']}"


def _check_sandwich(job, out):
    return None if E.poly_from_json(out) == job["poly"] else "f o g o h mismatch"


# --- hcorr: the elimination side -----------------------------------------------------

# (branches of k1, branches of k2, branch degrees, Gaussian coefficients,
# squarefree, kernel with a repeated branch).  Degree-2 branches at 3x3 are real:
# Gaussian ones of the same height make one Bareiss determinant take 3-16 s
# instead of about 0.7 s.  Squarefree runs stay at 2x2 linear, because the
# squarefree reduction of a 3x2 composite does not finish within a minute,
# and with a repeated branch, because without one a 2x2 takes 0.6-1.3 s.
BRANCH_SHAPES = (
    (2, 2, (1,), True, False, None),
    (2, 2, (1,), True, False, None),
    (2, 2, (1, 2), True, False, None),
    (2, 2, (1, 2), True, False, None),
    (3, 3, (1,), True, False, None),
    (3, 3, (1,), True, False, None),
    (3, 3, (1,), True, False, None),
    (2, 2, (1,), True, True, "k1"),
    (2, 2, (1,), True, True, "k2"),
)
# about 0.8 s and 1.2 s each: once per round, where the light jobs run twice
HEAVY_BRANCH_SHAPES = (
    (3, 3, (2,), False, False, None),
    (4, 4, (1,), True, False, None),
)
HCORR_DRAWS = 2
# (numerator, denominator) degrees of f and of g for compose(graph f, graph g)
GRAPH_SHAPES = (
    ((1, 1), (1, 1)), ((2, 0), (1, 1)), ((1, 1), (2, 0)), ((2, 1), (1, 0)),
    ((1, 0), (2, 1)), ((2, 1), (2, 0)), ((2, 0), (2, 1)), ((1, 1), (1, 0)),
)
# fiber kernels: None is the graph of a (2, 1) map, k is a k-branch kernel
FIBER_SHAPES = (None, None, 2, 3, 4, 2, 3, 4)


def _rand_ratmap(rng, num_deg=2, den_deg=1):
    """Coprime numerator and denominator with Gaussian-integer coefficients."""
    while True:
        num = _rand_poly(rng, num_deg, 3)
        den = _rand_poly(rng, den_deg, 3)
        if E.pgcd_degree(num, den) == 0:
            return num, den


def _graph_json(num, den):
    return {"coeffs_in_W": [E.ratfun_json(E.pscale(num, (-1, 0)), den),
                            E.ratfun_json((E.ONE,), (E.ONE,))]}


def _branches_json(branches):
    coeffs = _expand_branches(branches)
    return {"coeffs_in_W": [E.ratfun_json(c, (E.ONE,)) for c in coeffs]}


def _expand_branches(branches):
    """Coefficients in W (ascending) of prod (W - b_i), each a polynomial in z."""
    acc = [(E.ONE,)]
    for b in branches:
        nxt = [()] * (len(acc) + 1)
        for k, c in enumerate(acc):
            nxt[k + 1] = E.padd(nxt[k + 1], c)
            nxt[k] = E.psub(nxt[k], E.pmul(c, b))
        acc = nxt
    return acc


def _distinct_branches(rng, count, degrees, gaussian=True):
    """Branch i has degree degrees[i % len(degrees)]."""
    out = []
    while len(out) < count:
        b = _rand_poly(rng, degrees[len(out) % len(degrees)], 2)
        if not gaussian:
            b = E.trim((re, 0) for re, _ in b)
        if E.degree(b) >= 1 and b not in out:
            out.append(b)
    return out


def hcorr_round(rng):
    jobs = []
    for _ in range(HCORR_DRAWS):
        jobs += _hcorr_draw(rng, BRANCH_SHAPES, light=True)
    jobs += _hcorr_draw(rng, HEAVY_BRANCH_SHAPES, light=False)
    rng.shuffle(jobs)
    return jobs


def _hcorr_draw(rng, branch_shapes, light):
    jobs = []
    for f_shape, g_shape in GRAPH_SHAPES if light else ():
        (fn, fd), (gn, gd) = _rand_ratmap(rng, *f_shape), _rand_ratmap(rng, *g_shape)
        m = max(E.degree(fn), E.degree(fd))
        powers = [E.pmul(E.ppow(gn, k), E.ppow(gd, m - k)) for k in range(m + 1)]
        num = E.trim([])
        den = E.trim([])
        for k in range(m + 1):
            num = E.padd(num, E.pscale(powers[k], E.coeff(fn, k)))
            den = E.padd(den, E.pscale(powers[k], E.coeff(fd, k)))
        jobs.append({"kind": "hcorr_graph",
                     "argv": ["hcorr", "compose", json.dumps(_graph_json(gn, gd)),
                              json.dumps(_graph_json(fn, fd))],
                     "num": num, "den": den})
    for n1, n2, degrees, gaussian, squarefree, repeated in branch_shapes:
        b1 = _distinct_branches(rng, n1 - (repeated == "k1"), degrees, gaussian)
        b2 = _distinct_branches(rng, n2 - (repeated == "k2"), degrees, gaussian)
        if repeated == "k1":
            b1.append(b1[0])
        if repeated == "k2":
            b2.append(b2[0])
        composed = [E.pcompose(y, x) for x in b1 for y in b2]
        if squarefree:
            composed = list(dict.fromkeys(composed))
        argv = ["hcorr", "compose", json.dumps(_branches_json(b1)), json.dumps(_branches_json(b2))]
        if squarefree:
            argv.append("--squarefree")
        jobs.append({"kind": "hcorr_branches", "argv": argv,
                     "coeffs": _expand_branches(composed), "bound": n1 * n2})
    if light:
        jobs += [_fiber_job(rng, branches) for branches in FIBER_SHAPES]
    return jobs


def _fiber_job(rng, branches):
    while True:
        z0 = (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
        zc = E.gcomplex(z0)
        if branches is None:
            num, den = _rand_ratmap(rng)
            dv = E.peval_complex(den, zc)
            if abs(dv) < 0.25:
                continue
            kernel, values = _graph_json(num, den), [E.peval_complex(num, zc) / dv]
        else:
            bs = _distinct_branches(rng, branches, (1, 2))
            values = [E.peval_complex(b, zc) for b in bs]
            if min(abs(u - v) for i, u in enumerate(values) for v in values[:i]) < 0.1:
                continue
            kernel = _branches_json(bs)
        return {"kind": "hcorr_fiber",
                "argv": ["hcorr", "fiber", json.dumps(kernel), f"--at={z0[0]},{z0[1]}"],
                "values": values}


def _check_hcorr_graph(job, out):
    cs = out["coeffs_in_W"]
    if len(cs) != 2:
        return f"graph composite has fiber degree {len(cs) - 1}, bound 1"
    one = E.poly_from_json(cs[1]["num"]), E.poly_from_json(cs[1]["den"])
    if one != ((E.ONE,), (E.ONE,)):
        return "graph composite is not monic in W"
    n0, d0 = E.poly_from_json(cs[0]["num"]), E.poly_from_json(cs[0]["den"])
    # c0 = -(f o g): n0 * den + d0 * num must vanish
    if not d0 or E.padd(E.pmul(n0, job["den"]), E.pmul(d0, job["num"])):
        return "compose(graph f, graph g) != graph(f o g)"
    return None


def _check_hcorr_branches(job, out):
    cs = out["coeffs_in_W"]
    if len(cs) - 1 > job["bound"]:
        return f"fiber degree {len(cs) - 1} exceeds the bound {job['bound']}"
    got = []
    for c in cs:
        if E.poly_from_json(c["den"]) != (E.ONE,):
            return "branch composite has a nontrivial denominator"
        got.append(E.poly_from_json(c["num"]))
    if got != job["coeffs"]:
        return "composite differs from the product over composed branches"
    return None


def _check_hcorr_fiber(job, out):
    got = [complex(re, im) for re, im in out["fiber"]]
    want = list(job["values"])
    if len(got) != len(want):
        return f"fiber has {len(got)} points, expected {len(want)}"
    for w in got:
        best = min(range(len(want)), key=lambda k: abs(want[k] - w))
        if abs(want[best] - w) > 1e-6 * (1 + abs(w)):
            return f"fiber point {w} matches no branch value"
        want.pop(best)
    return None


# --- orbit: the renderer --------------------------------------------------------------

# (map, |c|, parabolic); the z^2 + c parameters 1/4 and -3/4 are parabolic
ORBIT_MAPS = (
    ("z^2+1/4", 0.25, True), ("z^2-3/4", 0.75, True), ("z^2-1", 1.0, False),
    ("z^2", 0.0, False), ("z^2+0.3", 0.3, False), ("z^2-2", 2.0, False),
    ("z^3+1/4", 0.25, False), ("z^3-3/4", 0.75, False), ("z^3-1", 1.0, False),
    ("z^3", 0.0, False), ("z^3+0.3", 0.3, False), ("z^3-2", 2.0, False),
)
# each map meets every (side, max_iter) pair once per round; the pairs trade
# side against iterations so no single job dominates a round
ORBIT_SIZES = ((48, 250), (64, 200), (96, 150), (128, 100), (160, 50))
FULL_VIEW = ((0.0, 0.0), 4.0)
# every map also in three zoomed windows, small and cheap, at 32x32 / 100
ZOOM_VIEWS = (((0.25, 0.5), 1.0), ((-0.5, 0.0), 1.0), ((0.0, 0.0), 2.5))
ZOOM_SIZE = (32, 100)
# every map once in exact mode, on a small grid: exact cells cost ~1 ms each
EXACT_SIZE = (12, 40)
# run once per run, before the rounds: it sets the RSS peak (about 200 MB)
BIG_RENDER = ("z^2+1/4", 256, 200)


def _render_argv(workdir, m, side, iters, view=FULL_VIEW, exact=False, csv=False):
    (cx, cy), width = view
    argv = ["julia", "render", "--map", m, f"--center={cx},{cy}", "--width", str(width),
            "--res", str(side), "--max-iter", str(iters), "--out", os.path.join(workdir, "grid.pgm")]
    if exact:
        argv.append("--exact")
    if csv:
        argv += ["--csv", os.path.join(workdir, "grid.csv")]
    return argv


def digest_key(argv):
    """The argv without output paths: the key of the recorded class counts."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--out", "--csv"):
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def _render_job(workdir, m, side, iters, view=FULL_VIEW, exact=False, csv=False):
    radius, parabolic = next((c, par) for name, c, par in ORBIT_MAPS if name == m)
    return {"kind": "render", "argv": _render_argv(workdir, m, side, iters, view, exact, csv),
            "map": m, "side": side, "iters": iters, "view": view, "escape_radius": 2.0 + radius,
            "parabolic": parabolic, "exact": exact, "workdir": workdir}


def orbit_round(rng, workdir):
    """The whole menu once: the seed orders it and picks the CSV exports."""
    jobs = [_render_job(workdir, m, s, it) for m, _, _ in ORBIT_MAPS for s, it in ORBIT_SIZES]
    # one CSV export per size, on a random map
    for s, it in ORBIT_SIZES:
        job = rng.choice([j for j in jobs if (j["side"], j["iters"]) == (s, it)])
        job.update(_render_job(workdir, job["map"], s, it, csv=True))
    jobs += [_render_job(workdir, m, *ZOOM_SIZE, view) for m, _, _ in ORBIT_MAPS for view in ZOOM_VIEWS]
    jobs += [_render_job(workdir, m, *EXACT_SIZE, exact=True) for m, _, _ in ORBIT_MAPS]
    rng.shuffle(jobs)
    return jobs


def orbit_menu(workdir):
    """Every render any seed can produce, for recording digests."""
    jobs = orbit_round(random.Random(0), workdir) + make_prelude("orbit", workdir)
    return [job["argv"] for job in jobs]


@functools.cache
def _digests():
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)["counts"]


def _read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError("not a binary PGM")
    nx, ny = (int(v) for v in parts[1].split())
    return nx, ny, parts[3]


def _check_render(job, out):
    import numpy as np

    side = job["side"]
    counts = out["counts"]
    if out["cells"] != side * side or sum(counts.values()) != side * side:
        return "cell counts do not add up to the grid"
    want = _digests().get(digest_key(job["argv"]))
    if want is None:
        return "no digest recorded for this render"
    if counts != want:
        return f"class counts {counts} != recorded {want}"
    nx, ny, body = _read_pgm(os.path.join(job["workdir"], "grid.pgm"))
    codes = np.frombuffer(body, dtype=np.uint8)
    if (nx, ny) != (side, side) or codes.size != side * side:
        return "PGM size mismatch"
    names = {0: "FINITE", 85: "UNDECIDED", 170: "ATTRACTED", 255: "ESCAPE"}
    hist = {names[int(v)]: int(n) for v, n in zip(*np.unique(codes, return_counts=True))}
    if hist != counts:
        return "PGM classes differ from the reported counts"
    (cx, cy), width = job["view"]
    xs = cx + np.linspace(-width / 2, width / 2, side)
    ys = cy + np.linspace(width / 2, -width / 2, side)
    r = np.hypot(xs[None, :], ys[:, None]).ravel()
    # far field: beyond the escape radius every cell escapes on the first step
    if np.any(codes[r > job["escape_radius"] * (1 + 1e-9)] != 255):
        return "a far-field cell did not escape"
    if job["map"] in ("z^2", "z^3"):
        # the grid-render criterion: |z| = 1 is the only indifferent circle
        outer, inner = r > 1.05, r < 0.95
        if np.count_nonzero(codes[outer] == 255) < 0.99 * np.count_nonzero(outer):
            return "outer cells did not escape"
        if np.count_nonzero(codes[inner] == 170) < 0.99 * np.count_nonzero(inner):
            return "inner cells were not attracted"
        if np.any((codes == 85) & ~((r >= 0.95) & (r <= 1.05))):
            return "undecided cell outside the indifferent annulus"
    if "--csv" in job["argv"]:
        with open(os.path.join(job["workdir"], "grid.csv")) as fh:
            rows = fh.read().splitlines()
        if rows[0] != "re,im,class,period,preperiod" or len(rows) != side * side + 1:
            return "CSV shape mismatch"
        csv_hist = {}
        for row in rows[1:]:
            cls = row.split(",")[2]
            csv_hist[cls] = csv_hist.get(cls, 0) + 1
        if csv_hist != counts:
            return "CSV classes differ from the reported counts"
    return None


# --- finite: the integer-bitmask layer --------------------------------------------------

SUITES = ("schreier", "alpha", "blocks", "ideal", "aut")


def _finite_checked(suite, n):
    """Independent count of the cases each exhaustive suite must check."""
    subsets = 2**n - 1
    if suite == "alpha":
        return subsets**n
    if suite == "ideal":
        return subsets ** (n + 1)
    if suite == "schreier":
        return math.factorial(n)
    if suite == "blocks":
        covering = sum((-1) ** k * math.comb(n, k) * (2 ** (n - k) - 1) ** n for k in range(n + 1))
        return covering * subsets**n
    return None


def finite_round(rng):
    jobs = [{"kind": "corr", "argv": ["corr", "verify", "--n", str(n), "--suite", s],
             "suite": s, "n": n} for s in SUITES for n in (1, 2, 3)]
    jobs.append({"kind": "corr", "argv": ["corr", "verify", "--n", "4", "--suite", "aut"],
                 "suite": "aut", "n": 4})
    rng.shuffle(jobs)
    return jobs


def _check_corr(job, out):
    n, suite = job["n"], job["suite"]
    if suite == "aut":
        want = {"automorphisms": math.factorial(n), "expected": math.factorial(n), "pass": True}
        return None if out == want else f"aut report {out} != {want}"
    if not out.get("passed") or out.get("suite") != suite or out.get("n") != n:
        return f"suite report {out} did not pass"
    if out.get("checked") != _finite_checked(suite, n):
        return f"checked {out.get('checked')} cases, expected {_finite_checked(suite, n)}"
    return None


# --- registry ------------------------------------------------------------------------

WORKLOADS = {
    # (round builder, tail percentile): the highest of p50/p75/p90 with at
    # least ten distinct jobs of the round beyond it; finite's 16 jobs are
    # every input its subcommand accepts, and its tail is their p75
    "ritt": (lambda rng, workdir: ritt_round(rng), 90),
    "hcorr": (lambda rng, workdir: hcorr_round(rng), 75),
    "orbit": (orbit_round, 90),
    "finite": (lambda rng, workdir: finite_round(rng), 75),
}

CHECKS = {
    "decompose": _check_decompose,
    "ritt_apply": _check_ritt_apply,
    "biorbit": _check_biorbit,
    "conj": _check_conj,
    "char": _check_char,
    "sandwich": _check_sandwich,
    "hcorr_graph": _check_hcorr_graph,
    "hcorr_branches": _check_hcorr_branches,
    "hcorr_fiber": _check_hcorr_fiber,
    "render": _check_render,
    "corr": _check_corr,
}


def make_round(workload, seed, workdir):
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"), workdir)


def tail_pct(workload):
    return WORKLOADS[workload][1]


def make_prelude(workload, workdir):
    """Jobs run once per run before the timed rounds, checked but not timed."""
    return [_render_job(workdir, *BIG_RENDER)] if workload == "orbit" else []


def check(job, rc, text):
    """None when the job's output is certified, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}: {text.strip()[-200:]}"
    try:
        return CHECKS[job["kind"]](job, _parse_out(text))
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def label(job):
    """A short human-readable name of a job for per-job listings."""
    argv = job["argv"]
    if job["kind"] == "render":
        flags = "".join(f" {a}" for a in argv if a in ("--exact", "--csv"))
        (cx, cy), width = job["view"]
        return f"render {job['map']} {job['side']}^2/{job['iters']} at {cx},{cy} w{width}{flags}"
    if job["kind"] == "corr":
        return f"corr verify {job['suite']} n={job['n']}"
    if job["kind"] == "decompose":
        return f"decompose degree {E.degree(job['poly'])} ({'x'.join(map(str, job['degrees']))})"
    if job["kind"] == "hcorr_branches":
        return f"hcorr compose branches, fiber degree {job['bound']}{' --squarefree' if argv[-1] == '--squarefree' else ''}"
    return " ".join(a for a in argv[:2] if not a.startswith("{"))


def properties(workload, jobs):
    """Input properties an optimisation might target, with their shares."""
    props = {"jobs": len(jobs), "kinds": {}}
    for job in jobs:
        props["kinds"][job["kind"]] = props["kinds"].get(job["kind"], 0) + 1
    hists = {}

    def bump(name, d):
        h = hists.setdefault(name, {})
        h[str(d)] = h.get(str(d), 0) + 1

    for job in jobs:
        for key in ("poly", "p", "q"):
            if key in job and isinstance(job[key], tuple):
                bump("degree_histogram", E.degree(job[key]))
        if job["kind"] == "hcorr_graph":
            bump("composite_map_degree_histogram", max(E.degree(job["num"]), E.degree(job["den"])))
        if job["kind"] == "hcorr_branches":
            bump("fiber_degree_bound_histogram", job["bound"])
    for name, h in hists.items():
        props[name] = dict(sorted(h.items(), key=lambda kv: int(kv[0])))
    renders = [j for j in jobs if j["kind"] == "render"]
    if renders:
        work = [j["side"] ** 2 * j["iters"] for j in renders]
        props["cells_x_max_iter_total"] = sum(work)
        props["cells_x_max_iter_max"] = max(work)
        props["parabolic_job_share"] = sum(j["parabolic"] for j in renders) / len(renders)
        props["parabolic_work_share"] = sum(
            w for w, j in zip(work, renders) if j["parabolic"]) / sum(work)
        props["exact_job_share"] = sum(j["exact"] for j in renders) / len(renders)
        props["csv_job_share"] = sum("--csv" in j["argv"] for j in renders) / len(renders)
    return props
