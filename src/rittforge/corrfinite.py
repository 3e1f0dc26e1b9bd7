"""Total correspondences on a finite set, with desk-scale structure checks.

A correspondence assigns every point a nonempty image set; rows are stored
as bitmasks. Composition applies the right factor first: compose(k2, k1)
sends x to k2(k1(x)). The module provides blocks, the minimal ideal of
constants, the alpha embedding into maps on the ideal, extraction of the
point map realizing a homomorphism, and exhaustive automorphism
enumeration, plus the named verification suites behind `corr verify`.

Automorphism candidates are certified once: a bijective f with
phi(K) o f = f o K for all K (`schreier_extract`) gives phi(K) = f K f^-1, so
phi(K) phi(L) = f K f^-1 f L f^-1 = f KL f^-1 = phi(KL) on the closed domain
Map(X) or Corr(X); only other candidates get the all-pairs HomTable scan.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from math import factorial

from .decompose import CertificateError


@dataclass(frozen=True, slots=True)
class FinSet:
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ground set must be nonempty")

    def full_mask(self) -> int:
        return (1 << self.size) - 1


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compose_rows(rows2, rows1):
    out = []
    for r in rows1:
        acc = 0
        for b in _bits(r):
            acc |= rows2[b]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class FiniteCorr:
    ground: FinSet
    rows: tuple

    def __post_init__(self):
        full = self.ground.full_mask()
        if len(self.rows) != self.ground.size:
            raise ValueError("one row per point required")
        for r in self.rows:
            if not 0 < r <= full:
                raise ValueError("every point needs a nonempty image inside the ground set")

    def image(self, x: int) -> set:
        return set(_bits(self.rows[x]))

    def matrix(self):
        n = self.ground.size
        return [[(r >> y) & 1 for y in range(n)] for r in self.rows]


def from_sets(ground: FinSet, sets) -> FiniteCorr:
    return FiniteCorr(ground, tuple(sum(1 << y for y in set(s)) for s in sets))


def graph_of_map(ground: FinSet, values) -> FiniteCorr:
    return FiniteCorr(ground, tuple(1 << v for v in values))


def identity_corr(ground: FinSet) -> FiniteCorr:
    return graph_of_map(ground, range(ground.size))


def full_corr(ground: FinSet) -> FiniteCorr:
    return FiniteCorr(ground, (ground.full_mask(),) * ground.size)


def constant_corr(ground: FinSet, image) -> FiniteCorr:
    mask = sum(1 << y for y in set(image))
    return FiniteCorr(ground, (mask,) * ground.size)


def compose(k2: FiniteCorr, k1: FiniteCorr) -> FiniteCorr:
    """(k2 o k1)(x) = k2(k1(x)), right factor applied first."""
    if k2.ground != k1.ground:
        raise ValueError("ground sets differ")
    return FiniteCorr(k1.ground, _compose_rows(k2.rows, k1.rows))


def inverse(k: FiniteCorr):
    n = k.ground.size
    cols = [0] * n
    for x, r in enumerate(k.rows):
        for y in _bits(r):
            cols[y] |= 1 << x
    if not all(cols):
        return None
    return FiniteCorr(k.ground, tuple(cols))


def is_map(k: FiniteCorr) -> bool:
    return all(r & (r - 1) == 0 for r in k.rows)


def is_surjective(k: FiniteCorr) -> bool:
    acc = 0
    for r in k.rows:
        acc |= r
    return acc == k.ground.full_mask()


def degree(k: FiniteCorr) -> int:
    """Maximum image-set cardinality over the ground set."""
    return max(r.bit_count() for r in k.rows)


def block(r1: FiniteCorr, r2: FiniteCorr) -> FiniteCorr:
    """r1 o r2^-1: apply the fiber correspondence of r2 first."""
    if not (is_map(r1) and is_map(r2)):
        raise ValueError("blocks need two maps")
    if not is_surjective(r2):
        raise ValueError("the fiber factor of a block must be surjective")
    return compose(r1, inverse(r2))


@cache
def minimal_ideal(X: FinSet) -> tuple:
    """All constant correspondences, one per nonempty subset of X.

    Built once per ground set; the tuple is shared by every caller.
    """
    n = X.size
    return tuple(FiniteCorr(X, (mask,) * n) for mask in range(1, 1 << n))


def alpha(k: FiniteCorr):
    """Left-translation table of k on the minimal ideal, in ideal order."""
    return tuple(compose(k, c) for c in minimal_ideal(k.ground))


def all_maps(X: FinSet):
    return [graph_of_map(X, values) for values in product(range(X.size), repeat=X.size)]


def all_corrs(X: FinSet):
    full = X.full_mask()
    return [FiniteCorr(X, rows) for rows in product(range(1, full + 1), repeat=X.size)]


@dataclass(frozen=True)
class HomTable:
    domain: tuple
    images: dict

    def __post_init__(self):
        if set(self.images) != set(self.domain):
            raise ValueError("images must cover exactly the domain")
        img_rows = {k.rows: self.images[k].rows for k in self.domain}
        dom_rows = set(img_rows)
        for ka in self.domain:
            for kb in self.domain:
                prod = _compose_rows(ka.rows, kb.rows)
                if prod not in dom_rows:
                    raise ValueError("domain is not closed under composition")
                if img_rows[prod] != _compose_rows(img_rows[ka.rows], img_rows[kb.rows]):
                    raise ValueError("table is not multiplicative")


def _unscanned_table(domain: tuple, images: dict) -> HomTable:
    """A HomTable built without the all-pairs scan; the caller certifies it."""
    table = object.__new__(HomTable)
    object.__setattr__(table, "domain", domain)
    object.__setattr__(table, "images", images)
    return table


@dataclass(frozen=True, slots=True)
class SchreierReport:
    f: tuple
    bijective: bool
    conjugation_verified: bool


def schreier_extract(phi: HomTable) -> SchreierReport:
    """Point map realizing phi, from its action on the constant maps.

    Raises if the table lacks the constants, sends a constant to a
    non-constant, or fails the geometric law phi(K) o f = f o K, which for
    bijective f is phi(K) = f o K o f^-1 (`conjugation_verified`).
    """
    ground = phi.domain[0].ground
    n = ground.size
    values = []
    for x in range(n):
        cx = constant_corr(ground, [x])
        if cx not in phi.images:
            raise ValueError("table does not contain the ideal of constants")
        img = phi.images[cx]
        first = img.rows[0]
        if any(r != first for r in img.rows) or first & (first - 1):
            raise ValueError("image of a constant is not a constant map")
        values.append(first.bit_length() - 1)
    f = graph_of_map(ground, values)
    for k in phi.domain:
        if compose(phi.images[k], f) != compose(f, k):
            raise ValueError("table is not geometric: phi(K) o f != f o K")
    bijective = len(set(values)) == n
    return SchreierReport(tuple(values), bijective, bijective)


def _ambient(X: FinSet, ambient: str):
    if ambient == "MapX":
        if X.size > 4:
            raise ValueError("MapX enumeration budget is n <= 4")
        elements = all_maps(X)
        ideal = [constant_corr(X, [x]) for x in range(X.size)]
    elif ambient == "CorrX":
        if X.size > 3:
            raise ValueError("CorrX enumeration budget is n <= 3")
        elements = all_corrs(X)
        ideal = minimal_ideal(X)
    else:
        raise ValueError("ambient must be MapX or CorrX")
    return elements, ideal


def enumerate_automorphisms(X: FinSet, ambient: str):
    """All bijective multiplicative self-tables of Map(X) or Corr(X).

    Any automorphism permutes the constants (the algebraic right zeros)
    within classes of the invariant T(c) = #{(K, d) : K o d = c}; its other
    values are forced through alpha, injective or CertificateError, so the
    enumeration is exhaustive. Schreier's f certifies a candidate once:
    phi(K) phi(L) = f K f^-1 f L f^-1 = phi(KL); the all-pairs scan decides
    the rest, and a non-inner automorphism it passes is kept (count > n!).
    """
    elements, ideal = _ambient(X, ambient)
    m = len(ideal)
    ideal_pos = {c.rows: i for i, c in enumerate(ideal)}
    tables = {}
    hits = Counter()
    for k in elements:
        t = []
        for c in ideal:
            prod = _compose_rows(k.rows, c.rows)
            pos = ideal_pos[prod]
            t.append(pos)
            hits[pos] += 1
        tables[k.rows] = tuple(t)
    lookup = {}
    for k in elements:
        key = tables[k.rows]
        if key in lookup:
            raise CertificateError("alpha embedding is not injective")
        lookup[key] = k
    classes = defaultdict(list)
    for i in range(m):
        classes[hits[i]].append(i)
    domain = tuple(elements)
    autos = []
    for parts in product(*(permutations(c) for c in classes.values())):
        p = [0] * m
        for members, perm in zip(classes.values(), parts):
            for src, dst in zip(members, perm):
                p[src] = dst
        pinv = [0] * m
        for i, j in enumerate(p):
            pinv[j] = i
        images = {}
        seen = set()
        for k in elements:
            t = tables[k.rows]
            key = tuple(p[t[pinv[j]]] for j in range(m))
            target = lookup.get(key)
            if target is None:
                images = None
                break
            images[k] = target
            seen.add(target.rows)
        if images is None or len(seen) != len(elements):
            continue
        table = _unscanned_table(domain, images)
        try:
            inner = schreier_extract(table).bijective
        except ValueError:
            inner = False
        if not inner:
            try:
                table = HomTable(domain, images)
            except ValueError:
                continue
        autos.append(table)
    autos.sort(key=lambda t: tuple(t.images[k].rows for k in elements))
    return autos


def conjugation_table(X: FinSet, values, ambient: str = "MapX") -> HomTable:
    """The inner automorphism K -> f o K o f^-1 for a bijection f."""
    if len(set(values)) != X.size:
        raise ValueError("conjugation needs a bijection")
    elements, _ = _ambient(X, ambient)
    f = graph_of_map(X, values)
    f_inv = inverse(f)
    images = {k: compose(f, compose(k, f_inv)) for k in elements}
    return HomTable(tuple(elements), images)


def _suite_alpha(X: FinSet):
    corrs = all_corrs(X)
    ideal = minimal_ideal(X)
    seen = {}
    bad = []
    for k in corrs:
        key = alpha(k)
        if key in seen:
            bad.append((seen[key], k))
        else:
            seen[key] = k
    fixed_ok = all(
        all(entry == c for entry in alpha(c)) for c in ideal
    )
    return {
        "checked": len(corrs),
        "passed": not bad and fixed_ok,
        "counterexamples": [[a.matrix(), b.matrix()] for a, b in bad],
    }


def _suite_blocks(X: FinSet):
    corrs = all_corrs(X)
    checked = 0
    bad = []
    for k2 in corrs:
        if not is_surjective(k2):
            continue
        for k1 in corrs:
            prod = _compose_rows(k1.rows, k2.rows)
            checked += 1
            if all(r & (r - 1) == 0 for r in prod) and not is_map(k1):
                bad.append((k1, k2))
    return {
        "checked": checked,
        "passed": not bad,
        "counterexamples": [[a.matrix(), b.matrix()] for a, b in bad],
    }


def _suite_ideal(X: FinSet):
    corrs = all_corrs(X)
    ideal = minimal_ideal(X)
    members = {c.rows for c in ideal}
    bad = []
    for k in corrs:
        for c in ideal:
            if compose(k, c).rows not in members:
                bad.append(("left", k, c))
            if compose(c, k) != c:
                bad.append(("absorb", k, c))
    nonprime = None
    if X.size >= 3:
        maps = all_maps(X)
        nonconstant = [g for g in maps if len(set(g.rows)) > 1]
        for g1 in nonconstant:
            for g2 in nonconstant:
                prod = compose(g2, g1)
                if len(set(prod.rows)) == 1:
                    nonprime = [g1.matrix(), g2.matrix()]
                    break
            if nonprime:
                break
    return {
        "checked": len(corrs) * len(ideal),
        "passed": not bad and (X.size < 3 or nonprime is not None),
        "counterexamples": [[k.matrix(), c.matrix()] for _, k, c in bad],
        "nonprime_pair": nonprime,
    }


def _suite_schreier(X: FinSet):
    bad = []
    for values in permutations(range(X.size)):
        report = schreier_extract(conjugation_table(X, values))
        if report.f != values or not report.bijective:
            bad.append(list(values))
    return {
        "checked": factorial(X.size),
        "passed": not bad,
        "counterexamples": bad,
    }


def _suite_aut(X: FinSet):
    autos = enumerate_automorphisms(X, "MapX")
    result = {
        "checked": len(autos),
        "passed": len(autos) == factorial(X.size),
        "counterexamples": [],
        "map_aut_count": len(autos),
    }
    if X.size <= 3:
        corr_autos = enumerate_automorphisms(X, "CorrX")
        result["corr_aut_count"] = len(corr_autos)
        result["passed"] = result["passed"] and len(corr_autos) == factorial(X.size)
    return result


_SUITES = {
    "alpha": _suite_alpha,
    "blocks": _suite_blocks,
    "ideal": _suite_ideal,
    "schreier": _suite_schreier,
    "aut": _suite_aut,
}


def run_suite(name: str, n: int):
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name != "aut" and n > 3:
        raise ValueError("exhaustive suites are budgeted to n <= 3")
    out = _SUITES[name](FinSet(n))
    out["suite"] = name
    out["n"] = n
    return out
