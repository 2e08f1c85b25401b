"""Per-layer spans and counters, installed around the library from outside.

The layers are the modules under ``src/diffext``.  ``install`` wraps the
public callables of each one: the functions and classes named in its
``__all__``, with the public methods and arithmetic operators of its
classes; constant-time accessors such as ``degree`` are left out.  A
module-level function is rebound in every ``diffext`` module that imported
it, since ``from .x import y`` copies the binding; class methods are
patched on the class, which all importers share.  Nothing under ``src`` is
edited, and with tracing off each wrapper only tests a flag.

A span opens when a call crosses from one layer into another and records
its layer, name, parent span, op and start and end times.  A layer's self
time is its spans' duration minus the time covered by their child spans.
Spans of the hot ``scalars`` layer are not stored one by one: each parent
span keeps a call count and total time per hot child layer.

Counters are kept at the same boundaries.  They count every call, including
calls from inside the same layer, and depend only on the inputs, so two
traced runs of one seed give identical counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "frontend", "parsing", "autos", "dext", "diffpoly", "towers", "linalg", "scalars")
HOT = frozenset({"scalars"})
SPAN_LIMIT = 200_000

# Operators worth a span; comparisons, hashing, truth tests and printing
# stay with the caller.
_DUNDERS = frozenset(
    {
        "__init__",
        "__call__",
        "__add__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__truediv__",
        "__floordiv__",
        "__mod__",
        "__divmod__",
        "__pow__",
    }
)

# Accessors, F_p arithmetic and plain polynomial construction: millions of
# calls, mostly from inside scalars, whose span would cost more than their
# work, so they stay with the caller.
_ACCESSORS = frozenset(
    {
        "DensePoly.__init__",
        "DensePoly.zero",
        "DensePoly.one",
        "DensePoly.x",
        "DensePoly.constant",
        "PrimeField.add",
        "PrimeField.sub",
        "PrimeField.mul",
        "PrimeField.neg",
        "PrimeField.inv",
        "DensePoly.degree",
        "DensePoly.lc",
        "DensePoly.is_monic",
        "RatFunc.is_poly",
        "DiffPoly.degree",
        "DiffPoly.lc",
        "DiffPoly.coeff",
        "PPolynomial.degree",
        "Matrix.entry",
    }
)


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        # frames: [layer, child_s, span_id, hot_children]; the bottom one
        # stands for the benchmark itself.
        self.stack = [[None, 0.0, None, None]]
        self.self_s = defaultdict(float)
        self.span_counts = Counter()
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, layer) -> [n, s]
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._next_id = 0

    def wrapper(self, fn, layer, name, before=None, after=None):
        """Wrap fn in a span of layer; before/after are counter hooks."""
        tr = self
        perf = time.perf_counter
        hot = layer in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            counts = tr.counts
            token = before(counts, args) if before else None
            stack = tr.stack
            parent = stack[-1]
            if parent[0] == layer:
                result = fn(*args, **kwargs)
                if after:
                    after(counts, args, result, token)
                return result
            if hot:
                frame = [layer, 0.0, None, None]
            else:
                tr._next_id += 1
                frame = [layer, 0.0, tr._next_id, {}]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                tr.self_s[layer] += dt - frame[1]
                tr.span_counts[layer] += 1
                edge = tr.edges[(parent[0], layer)]
                edge[0] += 1
                edge[1] += dt
                parent[1] += dt
                if hot:
                    if parent[3] is not None:
                        agg = parent[3].setdefault(layer, [0, 0.0])
                        agg[0] += 1
                        agg[1] += dt
                elif len(tr.spans) < SPAN_LIMIT:
                    tr.spans.append((frame[2], parent[2], tr.op, layer, name, t0, t1, frame[3]))
                else:
                    tr.dropped += 1
            if after:
                after(counts, args, result, token)
            return result

        return traced


def _count(key):
    def before(counts, args):
        counts[key] += 1

    return before


def _gcd_after(counts, args, result, token):
    counts["scalars.gcd_calls"] += 1
    if result.degree() == 0:
        counts["scalars.gcd_trivial"] += 1


def _rref_before(counts, args):
    counts["linalg.rref_calls"] += 1
    counts["linalg.rows_in"] += args[0].nrows


def _rref_after(counts, args, result, token):
    counts["linalg.rank"] += len(result[1])


def _table_before(counts, args):
    if args[0]._table is None:
        counts["dext.table_builds"] += 1


def _search_after(counts, args, result, token):
    counts["dext.searches"] += 1
    if result is not None:
        counts["dext.search_hits"] += 1


# (module, qualified name) -> (before, after) counter hooks.
_PROBES = {
    ("scalars", "RatFunc.__init__"): (_count("scalars.ratfunc_new"), None),
    ("scalars", "poly_gcd"): (None, _gcd_after),
    ("linalg", "Matrix.rref"): (_rref_before, _rref_after),
    ("dext", "ExtAlgebra.structure_constants"): (_table_before, None),
    ("dext", "ExtAlgebra.nucleus"): (_count("dext.nucleus_calls"), None),
    ("dext", "ExtAlgebra.linear_right_factor_search"): (None, _search_after),
    ("diffpoly", "DiffPoly.__mul__"): (_count("diffpoly.mul_calls"), None),
    ("diffpoly", "DiffPoly.right_divmod"): (_count("diffpoly.divmod_calls"), None),
    ("diffpoly", "v_g"): (_count("diffpoly.v_g_calls"), None),
    ("towers", "DerivedField.delta"): (_count("towers.delta_calls"), None),
    ("towers", "DerivedField.coords"): (_count("towers.coords_calls"), None),
    ("autos", "apply_auto"): (_count("autos.apply_calls"), None),
}


def _wrap(tr, module, qualname, fn):
    layer = module.rsplit(".", 1)[-1]
    before, after = _PROBES.get((layer, qualname), (None, None))
    return tr.wrapper(fn, layer, qualname, before, after)


def _wrap_class(tr, module, cls):
    for attr, raw in list(vars(cls).items()):
        qual = "%s.%s" % (cls.__name__, attr)
        if (attr.startswith("_") and attr not in _DUNDERS) or qual in _ACCESSORS:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tr, module, qual, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(tr, module, qual, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(tr, module, qual, raw))


def install(tr):
    """Wrap every layer's public callables, in place."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "diffext" or name.startswith("diffext."))
    }
    for layer in LAYERS:
        modname = "diffext." + layer
        mod = modules[modname]
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != modname:
                continue  # re-exported from another module
            if inspect.isclass(obj):
                _wrap_class(tr, modname, obj)
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                new = _wrap(tr, modname, name, obj)
                for other in modules.values():
                    for attr, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, attr, new)
    # The factor search draws its candidates from a private generator of
    # dext; count what it yields to the search (autos keeps its own binding).
    dext = modules["diffext.dext"]
    dext._fraction_candidates = _counting_generator(tr, dext._fraction_candidates)


def _counting_generator(tr, gen_fn):
    @functools.wraps(gen_fn)
    def counted(*args, **kwargs):
        for item in gen_fn(*args, **kwargs):
            if tr.on:
                tr.counts["dext.search_candidates"] += 1
            yield item

    return counted


def per_layer_metrics(tr, traced_s, untraced_s):
    """The per-layer metrics, as {name: (value, unit)}."""
    c = tr.counts
    out = {}
    for layer in LAYERS:
        out["%s.self_s" % layer] = (tr.self_s[layer], "s")

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    out["scalars.ratfunc_new"] = (c["scalars.ratfunc_new"], "count")
    out["scalars.gcd_calls"] = (c["scalars.gcd_calls"], "count")
    out["scalars.gcd_trivial_ratio"] = (ratio("scalars.gcd_trivial", "scalars.gcd_calls"), "ratio")
    out["linalg.rref_calls"] = (c["linalg.rref_calls"], "count")
    out["linalg.rows_in"] = (c["linalg.rows_in"], "count")
    out["linalg.rank_ratio"] = (ratio("linalg.rank", "linalg.rows_in"), "ratio")
    out["dext.table_builds"] = (c["dext.table_builds"], "count")
    out["dext.nucleus_calls"] = (c["dext.nucleus_calls"], "count")
    out["dext.search_candidates"] = (c["dext.search_candidates"], "count")
    out["dext.search_hit_ratio"] = (ratio("dext.search_hits", "dext.searches"), "ratio")
    out["diffpoly.mul_calls"] = (c["diffpoly.mul_calls"], "count")
    out["diffpoly.divmod_calls"] = (c["diffpoly.divmod_calls"], "count")
    out["diffpoly.v_g_calls"] = (c["diffpoly.v_g_calls"], "count")
    out["towers.delta_calls"] = (c["towers.delta_calls"], "count")
    out["towers.coords_calls"] = (c["towers.coords_calls"], "count")
    out["autos.apply_calls"] = (c["autos.apply_calls"], "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    return out


def dump(tr):
    """Spans and per-edge aggregates as plain JSON data."""
    return {
        "layers": list(LAYERS),
        "self_s": dict(tr.self_s),
        "span_counts": dict(tr.span_counts),
        "edges": [
            {"parent": parent, "layer": layer, "calls": n, "total_s": s}
            for (parent, layer), (n, s) in sorted(tr.edges.items(), key=lambda kv: str(kv[0]))
        ],
        "counts": dict(tr.counts),
        "dropped_spans": tr.dropped,
        "span_fields": ["id", "parent", "op", "layer", "name", "start", "end", "hot_children"],
        "spans": tr.spans,
    }
