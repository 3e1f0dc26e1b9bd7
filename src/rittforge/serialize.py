"""JSON wire formats and small text parsers.

Every to_json function emits plain dict/list/str structures whose string
scalars use the exact 'p/q' / 'p/q+r/s i' rendering, so a dump-load cycle
reproduces the original value bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .characters import ZERO, Exact, PowerOfBase, Zero
from .corrfinite import FinSet, FiniteCorr
from .decompose import AffineShuffle, ChebyshevSwap, Decomposition, MonomialSwap
from .equivalence import BiEquivWitness
from .gaussian import format_gaussian, parse_gaussian
from .hcorr import HolCorr
from .bipoly import BiPoly
from .poly import AffineMap, Poly, X, constant
from .ratfun import RatFun


def _need(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ValueError(f"field {key!r} has the wrong type")
    return value


def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [format_gaussian(c) for c in p.coeffs]}


def poly_from_json(obj) -> Poly:
    coeffs = _need(obj, "coeffs", list)
    try:
        return Poly(tuple(parse_gaussian(c) for c in coeffs))
    except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad polynomial coefficients: {exc}") from exc


def ratfun_to_json(r: RatFun) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfun_from_json(obj) -> RatFun:
    num = poly_from_json(_need(obj, "num"))
    den = poly_from_json(_need(obj, "den"))
    if den.is_zero():
        raise ValueError("zero denominator")
    return RatFun(num, den)


def holcorr_to_json(k: HolCorr) -> dict:
    return {"coeffs_in_W": [ratfun_to_json(c) for c in k.poly.coeffs_in_W]}


def holcorr_from_json(obj) -> HolCorr:
    coeffs = _need(obj, "coeffs_in_W", list)
    try:
        return HolCorr(BiPoly(tuple(ratfun_from_json(c) for c in coeffs)))
    except ValueError as exc:
        raise ValueError(f"bad correspondence: {exc}") from exc


def affine_to_json(m: AffineMap) -> dict:
    return {"a": format_gaussian(m.a), "b": format_gaussian(m.b)}


def affine_from_json(obj) -> AffineMap:
    return AffineMap(parse_gaussian(_need(obj, "a", str)), parse_gaussian(_need(obj, "b", str)))


def witness_to_json(w) -> dict:
    if w is None:
        return {"result": "none"}
    return {"A": affine_to_json(w.A), "B": affine_to_json(w.B)}


def witness_from_json(obj):
    if obj.get("result") == "none":
        return None
    return BiEquivWitness(affine_from_json(_need(obj, "A")), affine_from_json(_need(obj, "B")))


def charvalue_to_json(v) -> dict:
    if isinstance(v, Zero):
        return {"value": "0"}
    if isinstance(v, Exact):
        return {"value": format_gaussian(v.value)}
    base = v.base if isinstance(v.base, str) else format_gaussian(v.base)
    return {"value": {"base": base, "exp": v.exp}}


def charvalue_from_json(obj):
    value = _need(obj, "value")
    if value == "0":
        return ZERO
    if isinstance(value, str):
        return Exact(parse_gaussian(value))
    base = _need(value, "base", str)
    exp = _need(value, "exp", int)
    try:
        return PowerOfBase(parse_gaussian(base), exp)
    except ValueError:
        return PowerOfBase(base, exp)


def decomposition_to_json(d: Decomposition) -> dict:
    return {"factors": [poly_to_json(f) for f in d.factors]}


def decomposition_from_json(obj) -> Decomposition:
    factors = _need(obj, "factors", list)
    return Decomposition(tuple(poly_from_json(f) for f in factors))


_MOVE_KINDS = {"affine_shuffle": AffineShuffle, "chebyshev_swap": ChebyshevSwap, "monomial_swap": MonomialSwap}


def move_to_json(move) -> dict:
    if isinstance(move, AffineShuffle):
        return {"kind": "affine_shuffle", "position": move.position, "A": affine_to_json(move.A)}
    if isinstance(move, ChebyshevSwap):
        return {"kind": "chebyshev_swap", "position": move.position}
    if isinstance(move, MonomialSwap):
        return {"kind": "monomial_swap", "position": move.position, "k": move.k, "r": move.r}
    raise ValueError(f"not a move: {move!r}")


def move_from_json(obj):
    kind = _need(obj, "kind", str)
    if kind not in _MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    position = _need(obj, "position", int)
    if kind == "affine_shuffle":
        return AffineShuffle(position, affine_from_json(_need(obj, "A")))
    if kind == "chebyshev_swap":
        return ChebyshevSwap(position)
    return MonomialSwap(position, _need(obj, "k", int), _need(obj, "r", int))


def corr_to_json(k: FiniteCorr) -> dict:
    return {"n": k.ground.size, "matrix": k.matrix()}


def corr_from_json(obj) -> FiniteCorr:
    n = _need(obj, "n", int)
    matrix = _need(obj, "matrix", list)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("incidence matrix must be n x n")
    rows = tuple(sum(1 << y for y, bit in enumerate(row) if bit) for row in matrix)
    return FiniteCorr(FinSet(n), rows)


# --- map expression parsing ------------------------------------------------

# largest power a map expression may ask for; z^65536 already has 65537 coefficients
MAX_EXPONENT = 1 << 16

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+\.\d+|\d+|[z+\-*^()])")


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"bad map expression near {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _MapParser:
    """Polynomial expressions in z; decimal coefficients become exact
    rationals. Adjacency like '2z' multiplies."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Poly:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                node = node * self.unary()
            elif tok == "z" or tok == "(" or (tok is not None and tok[0].isdigit()):
                node = node * self.unary()
            else:
                return node

    def unary(self) -> Poly:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Poly:
        """'^' is right-associative: z^2^3 is z^(2^3)."""
        node = self.atom()
        exps = []
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            exps.append(int(tok))
        if not exps:
            return node
        e = exps.pop()
        for b in reversed(exps):
            # b**e > MAX_EXPONENT is decided before the power is computed
            if b > 1 and e > MAX_EXPONENT.bit_length():
                raise ValueError(f"exponent exceeds {MAX_EXPONENT}")
            e = b**e
        if e > MAX_EXPONENT:
            raise ValueError(f"exponent exceeds {MAX_EXPONENT}")
        return node**e

    def atom(self) -> Poly:
        tok = self.take()
        if tok == "z":
            return X
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in map expression")
            return node
        if tok is not None and tok[0].isdigit():
            return constant(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r} in map expression")


def parse_map(s: str) -> Poly:
    tokens = _tokenize(s)
    if not tokens:
        raise ValueError("empty map expression")
    parser = _MapParser(tokens)
    result = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in map expression: {parser.peek()!r}")
    return result


def parse_complex_pair(s: str):
    """'x,y' with rational or decimal parts, parsed exactly."""
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("expected 're,im'")
    try:
        return Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad complex pair {s!r}: {exc}") from exc
