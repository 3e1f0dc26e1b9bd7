"""Out-of-process-code tracing: wrap rittforge's public functions from outside.

Each target is replaced, in every ``rittforge`` module namespace and class
that binds it, by a wrapper that keeps a call count and self time (its
duration minus the time of wrapped calls made inside it).  Coarse targets
also record a span (name, start, end, parent span, job id); hot arithmetic
targets only count, because they run millions of times per round.  Hooks
read sizes from arguments and results without timing themselves into the
layers.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from fractions import Fraction

SPAN_CAP = 300_000


def max_bits(obj, _depth=0):
    """Largest numerator or denominator bit length inside an exact value."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return obj.bit_length()
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if _depth > 8:
        return 0
    if isinstance(obj, (tuple, list)):
        return max((max_bits(x, _depth + 1) for x in obj), default=0)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return max((max_bits(getattr(obj, f.name), _depth + 1) for f in dataclasses.fields(obj)),
                   default=0)
    return 0


class Tracer:
    def __init__(self):
        self.stats = {}  # target name -> [calls, self seconds]
        self.extra = {}  # named values filled by hooks
        self.spans = []
        self.dropped_spans = 0
        self.absent = []
        self.job_id = -1
        self.hook_s = 0.0
        self._acc = [0.0]  # child-time accumulator per active wrapped call
        self._sids = [-1]  # span ids of the active span-recording calls
        self._next_sid = 0

    # -- wrappers -----------------------------------------------------------

    def _count_wrapper(self, fn, st):
        acc = self._acc
        clock = time.perf_counter

        def wrapper(*a, **k):
            acc.append(0.0)
            t0 = clock()
            try:
                return fn(*a, **k)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt - acc.pop()
                acc[-1] += dt

        return wrapper

    def _span_wrapper(self, fn, st, name, hook):
        acc, sids, spans = self._acc, self._sids, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*a, **k):
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            parent = sids[-1]
            sids.append(sid)
            acc.append(0.0)
            before = hook.before() if hook else None
            t0 = clock()
            result = _FAILED
            try:
                result = fn(*a, **k)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                sids.pop()
                st[0] += 1
                st[1] += dt - acc.pop()
                if len(spans) < SPAN_CAP:
                    spans.append((name, t0, t1, parent, tracer.job_id, sid))
                else:
                    tracer.dropped_spans += 1
                if hook and result is not _FAILED:
                    h0 = clock()
                    hook.after(a, k, result, before)
                    spent = clock() - h0
                    tracer.hook_s += spent
                    dt += spent
                acc[-1] += dt

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets):
        """targets: (stat name, module, attribute path, span?, hook or None)."""
        modules = []
        for name, modname, path, span, hook in targets:
            try:
                mod = importlib.import_module(modname)
                owner = mod
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{modname}.{path}")
                continue
            st = self.stats.setdefault(name, [0, 0.0])
            wrapper = (self._span_wrapper(orig, st, name, hook) if span
                       else self._count_wrapper(orig, st))
            if isinstance(owner, type):
                for attr, val in list(owner.__dict__.items()):
                    if val is orig:
                        setattr(owner, attr, wrapper)
            else:
                if not modules:
                    modules = [m for n, m in list(sys.modules.items())
                               if m is not None and (n == "rittforge" or n.startswith("rittforge."))]
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0])[1]


_FAILED = object()


# --- hooks ---------------------------------------------------------------------


class Hook:
    """Reads sizes from a wrapped call; `before` runs before the call."""

    def __init__(self, tracer, key=None):
        self.tracer, self.key = tracer, key

    def before(self):
        return None


class MaxArgLen(Hook):
    """Largest len() of the first argument (the Sylvester matrix size)."""

    def after(self, a, k, result, before):
        try:
            size = len(a[0])
        except (IndexError, TypeError):
            return
        ex = self.tracer.extra
        ex[self.key] = max(ex.get(self.key, 0), size)


class MaxResultBits(Hook):
    def after(self, a, k, result, before):
        ex = self.tracer.extra
        ex[self.key] = max(ex.get(self.key, 0), max_bits(result))


class CountTrue(Hook):
    """Counts results that are truthy (not None, not False)."""

    def after(self, a, k, result, before):
        if result is not None and result is not False:
            self.tracer.extra[self.key] = self.tracer.extra.get(self.key, 0) + 1


class RenderStats(Hook):
    def __init__(self, tracer, fn):
        super().__init__(tracer)
        self.sig = inspect.signature(fn)

    def after(self, a, k, result, before):
        ex = self.tracer.extra
        try:
            bound = self.sig.bind(*a, **k)
            bound.apply_defaults()
            max_iter = int(bound.arguments["max_iter"])
            codes = result.codes
            cells = len(codes)
            undecided = sum(1 for c in codes if c == 85)
        except (TypeError, KeyError, AttributeError):
            return
        ex["julia.cells"] = ex.get("julia.cells", 0) + cells
        ex["julia.cell_iters"] = ex.get("julia.cell_iters", 0) + cells * max_iter
        ex["julia.undecided"] = ex.get("julia.undecided", 0) + undecided


class AutStats(Hook):
    """Automorphisms found, and the HomTable checks made while finding them."""

    def before(self):
        return self.tracer.calls("corrfinite.homtable")

    def after(self, a, k, result, before):
        ex = self.tracer.extra
        ex["corrfinite.automorphisms"] = ex.get("corrfinite.automorphisms", 0) + len(result)
        ex["corrfinite.tables_checked"] = (ex.get("corrfinite.tables_checked", 0)
                                           + self.tracer.calls("corrfinite.homtable") - before)


# --- the target list -------------------------------------------------------------

GAUSSIAN_OPS = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__pow__")
RATFUN_OPS = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
              "__rtruediv__", "__pow__", "compose", "eval", "derivative")
SERIALIZE_FUNCS = (
    "poly_to_json", "poly_from_json", "ratfun_to_json", "ratfun_from_json", "holcorr_to_json",
    "holcorr_from_json", "affine_to_json", "affine_from_json", "witness_to_json",
    "charvalue_to_json", "decomposition_to_json", "decomposition_from_json", "move_to_json",
    "move_from_json", "parse_map", "parse_complex_pair",
)


def targets(tracer):
    """Every wrapped function, with the stat it feeds and how it is recorded."""
    def render_hook():
        try:
            from rittforge import julia
            return RenderStats(tracer, julia.render)
        except (ImportError, AttributeError):
            return None

    t = [("cli.main", "rittforge.cli", "main", True, None)]
    t += [("serialize", "rittforge.serialize", f, True, None) for f in SERIALIZE_FUNCS]
    t += [("gaussian", "rittforge.gaussian", f"GaussianRational.{op}", False, None)
          for op in GAUSSIAN_OPS]
    t += [
        ("poly.mul", "rittforge.poly", "Poly.__mul__", False, None),
        ("poly.divmod", "rittforge.poly", "divmod_poly", False, None),
        ("poly.compose", "rittforge.poly", "Poly.compose", False, None),
        ("poly.pow", "rittforge.poly", "Poly.__pow__", False, None),
        ("poly.gcd", "rittforge.poly", "poly_gcd", False, None),
        ("ratfun.new", "rittforge.ratfun", "RatFun.__post_init__", False, None),
    ]
    t += [("ratfun.ops", "rittforge.ratfun", f"RatFun.{op}", False, None) for op in RATFUN_OPS]
    t += [
        ("bipoly.resultant", "rittforge.bipoly", "resultant_in_W", True,
         MaxResultBits(tracer, "bipoly.resultant.coeff_bits_max")),
        ("bipoly.bareiss", "rittforge.bipoly", "bareiss_det", True,
         MaxArgLen(tracer, "bipoly.sylvester_size_max")),
        ("bipoly.exact_div", "rittforge.bipoly", "BivarPoly.exact_div", False, None),
        ("hcorr.compose", "rittforge.hcorr", "compose", True, None),
        ("hcorr.fiber", "rittforge.hcorr", "fiber", True, None),
        ("decompose.complete_decomposition", "rittforge.decompose", "complete_decomposition",
         True, None),
        ("decompose.decompose_once", "rittforge.decompose", "decompose_once", True,
         CountTrue(tracer, "decompose.splits")),
        ("decompose.is_indecomposable", "rittforge.decompose", "is_indecomposable", True, None),
        ("decompose.apply_move", "rittforge.decompose", "apply_move", True, None),
        ("equivalence.affine_biequiv", "rittforge.equivalence", "affine_biequiv", True, None),
        ("equivalence.affine_conjugate", "rittforge.equivalence", "affine_conjugate", True, None),
        ("equivalence.transports", "rittforge.equivalence", "BiEquivWitness.transports", True,
         CountTrue(tracer, "equivalence.transported")),
        ("roots.gaussian_roots", "rittforge.roots", "gaussian_roots", True, None),
        ("characters.evaluate", "rittforge.characters", "evaluate", True, None),
        ("julia.render", "rittforge.julia", "render", True, render_hook()),
        ("julia.exact_orbit", "rittforge.julia", "exact_orbit", False, None),
        ("julia.to_csv", "rittforge.julia", "to_csv", True, None),
        ("julia.to_pgm", "rittforge.julia", "to_pgm", True, None),
        ("corrfinite.run_suite", "rittforge.corrfinite", "run_suite", True, None),
        ("corrfinite.enumerate_automorphisms", "rittforge.corrfinite", "enumerate_automorphisms",
         True, AutStats(tracer)),
        ("corrfinite.minimal_ideal", "rittforge.corrfinite", "minimal_ideal", False, None),
        ("corrfinite.homtable", "rittforge.corrfinite", "HomTable.__post_init__", False, None),
    ]
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer):
    """The per-layer metrics, by the names BENCHMARK.json declares."""
    c, s, ex = tracer.calls, tracer.self_s, tracer.extra
    m = {
        "gaussian.ops": (c("gaussian"), "count"),
        "gaussian.self_s": (s("gaussian"), "s"),
    }
    for op in ("mul", "divmod", "compose", "pow", "gcd"):
        m[f"poly.{op}.calls"] = (c(f"poly.{op}"), "count")
        m[f"poly.{op}.self_s"] = (s(f"poly.{op}"), "s")
    m["ratfun.new.calls"] = (c("ratfun.new"), "count")
    m["ratfun.self_s"] = (s("ratfun.new") + s("ratfun.ops"), "s")
    m["bipoly.resultant.calls"] = (c("bipoly.resultant"), "count")
    m["bipoly.resultant.self_s"] = (s("bipoly.resultant"), "s")
    m["bipoly.bareiss.self_s"] = (s("bipoly.bareiss"), "s")
    m["bipoly.exact_div.calls"] = (c("bipoly.exact_div"), "count")
    m["bipoly.sylvester_size_max"] = (ex.get("bipoly.sylvester_size_max", 0), "count")
    m["bipoly.resultant.coeff_bits_max"] = (ex.get("bipoly.resultant.coeff_bits_max", 0), "bits")
    m["hcorr.compose.self_s"] = (s("hcorr.compose"), "s")
    m["hcorr.fiber.self_s"] = (s("hcorr.fiber"), "s")
    m["decompose.decompose_once.calls"] = (c("decompose.decompose_once"), "count")
    m["decompose.decompose_once.self_s"] = (s("decompose.decompose_once"), "s")
    m["decompose.split_ratio"] = (
        _ratio(ex.get("decompose.splits", 0), c("decompose.decompose_once")), "ratio")
    m["decompose.is_indecomposable.calls"] = (c("decompose.is_indecomposable"), "count")
    m["decompose.apply_move.self_s"] = (s("decompose.apply_move"), "s")
    m["equivalence.affine_biequiv.calls"] = (c("equivalence.affine_biequiv"), "count")
    m["equivalence.affine_biequiv.self_s"] = (s("equivalence.affine_biequiv"), "s")
    m["equivalence.transports.calls"] = (c("equivalence.transports"), "count")
    m["equivalence.witness_ratio"] = (
        _ratio(ex.get("equivalence.transported", 0), c("equivalence.transports")), "ratio")
    m["roots.gaussian_roots.calls"] = (c("roots.gaussian_roots"), "count")
    m["roots.gaussian_roots.self_s"] = (s("roots.gaussian_roots"), "s")
    m["characters.evaluate.self_s"] = (s("characters.evaluate"), "s")
    m["julia.render.calls"] = (c("julia.render"), "count")
    m["julia.render.self_s"] = (s("julia.render"), "s")
    m["julia.cells"] = (ex.get("julia.cells", 0), "count")
    m["julia.cell_iters"] = (ex.get("julia.cell_iters", 0), "count")
    m["julia.undecided_frac"] = (_ratio(ex.get("julia.undecided", 0), ex.get("julia.cells", 0)), "ratio")
    m["julia.exact_orbit.calls"] = (c("julia.exact_orbit"), "count")
    m["julia.exact_orbit.self_s"] = (s("julia.exact_orbit"), "s")
    m["julia.to_csv.self_s"] = (s("julia.to_csv"), "s")
    m["julia.to_pgm.self_s"] = (s("julia.to_pgm"), "s")
    m["corrfinite.run_suite.self_s"] = (s("corrfinite.run_suite"), "s")
    m["corrfinite.enumerate_automorphisms.self_s"] = (s("corrfinite.enumerate_automorphisms"), "s")
    m["corrfinite.minimal_ideal.calls"] = (c("corrfinite.minimal_ideal"), "count")
    m["corrfinite.homtable.calls"] = (c("corrfinite.homtable"), "count")
    m["corrfinite.homtable.self_s"] = (s("corrfinite.homtable"), "s")
    m["corrfinite.aut_ratio"] = (
        _ratio(ex.get("corrfinite.automorphisms", 0), ex.get("corrfinite.tables_checked", 0)), "ratio")
    m["serialize.self_s"] = (s("serialize"), "s")
    m["cli.main.calls"] = (c("cli.main"), "count")
    m["cli.self_s"] = (s("cli.main"), "s")
    return m
