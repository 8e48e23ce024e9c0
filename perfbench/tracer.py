"""Outside-in tracer for the rslocal layers.

It replaces each traced function object with a timing wrapper wherever a
module of the package binds it (``series`` imports names from
``characters`` and ``padic`` from ``series``, so patching one module alone
would miss calls), and replaces the traced methods on their classes.

Each wrapped function keeps a call count, its self time (span time minus
the time of wrapped child spans), and its total time (outermost calls
only, so recursion is not counted twice).  Spans (function, start, end,
parent span) are kept in memory and exported when the run ends; helpers
called hundreds of thousands of times keep only the aggregate.
"""

from __future__ import annotations

import inspect
import sys
import time

#: The modules whose public functions are traced; each is a layer.
LAYERS = ("characters", "series", "coeffs", "padic", "symplectic")

#: Methods traced on their classes, as (layer, class, method).
METHODS = (
    ("characters", "LaurentPoly", "evaluate"),
    ("characters", "LaurentPoly", "__mul__"),
    ("series", "BiSeries", "__mul__"),
)

#: Helpers called up to 800k times per verdict of the orbits suite: no span per call.
AGGREGATE_ONLY = frozenset(
    {
        "symplectic.rref_q",
        "symplectic.flag_apply",
        "symplectic.mat_mul_q",
        "symplectic.mat_inv_q",
    }
)

#: Functions whose distinct argument tuples are counted.
COUNT_DISTINCT = frozenset({"characters.product_char", "series.character_value"})

#: Functions whose nonzero results are counted.
COUNT_NONZERO = frozenset({"coeffs.n_brute"})

#: Any other function stops keeping spans after this many calls.
SPAN_LIMIT = 100_000


class FunctionStats:
    __slots__ = (
        "name", "calls", "self_ns", "total_ns", "active", "distinct", "nonzero", "keep_spans",
    )

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.active = 0
        self.distinct = set() if name in COUNT_DISTINCT else None
        self.nonzero = 0
        self.keep_spans = name not in AGGREGATE_ONLY

    def as_dict(self) -> dict:
        out = {
            "calls": self.calls,
            "self_s": self.self_ns / 1e9,
            "total_s": self.total_ns / 1e9,
        }
        if self.distinct is not None:
            out["distinct"] = len(self.distinct)
        if self.name in COUNT_NONZERO:
            out["nonzero"] = self.nonzero
        return out


class Tracer:
    """Wraps functions with span timing; one tracer per process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.origin = clock()
        self.stats: dict[str, FunctionStats] = {}
        # One slot per open wrapped call: the time its wrapped children took.
        # The bottom slot collects the time of top-level calls.
        self._child_ns = [0]
        # Ids of the open spans, innermost last; -1 is "no parent".
        self._open_spans = [-1]
        self.spans: list = []

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records under ``name``."""
        st = self.stats.setdefault(name, FunctionStats(name))
        clock = self.clock
        child_ns = self._child_ns
        open_spans = self._open_spans
        spans = self.spans
        nonzero = name in COUNT_NONZERO

        def traced(*args, **kwargs):
            keep = st.keep_spans and st.calls < SPAN_LIMIT
            if keep:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1]
                open_spans.append(sid)
            if st.distinct is not None:
                st.distinct.add(args)
            st.active += 1
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                took = end - start
                inner = child_ns.pop()
                child_ns[-1] += took
                st.calls += 1
                st.self_ns += took - inner
                st.active -= 1
                if not st.active:
                    st.total_ns += took
                if keep:
                    open_spans.pop()
                    spans[sid] = (name, start, end, parent)
            if nonzero and result:
                st.nonzero += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def install(self, package: str = "rslocal"):
        """Wrap every traced function and method of ``package``, in every module binding it."""
        mods = [
            m for key, m in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (package, layer)]
            for fname, obj in sorted(vars(mod).items()):
                public = not fname.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap("%s.%s" % (layer, fname), obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))  # the originals stay alive, so ids are unique
                if hit is not None:
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules["%s.%s" % (package, layer)], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self.wrap("%s.%s.%s" % (layer, cls_name, meth), fn))

    def covered_s(self) -> float:
        """Time inside any wrapped call: the sum of all self times."""
        return sum(st.self_ns for st in self.stats.values()) / 1e9

    def export(self) -> dict:
        return {
            "functions": {name: st.as_dict() for name, st in sorted(self.stats.items())},
            "covered_s": self.covered_s(),
        }

    def export_spans(self) -> dict:
        """Spans as [function index, start ns, end ns, parent span index or -1].

        Times count from the tracer's creation; a span's index is its
        position in the list, in the order the calls began.
        """
        names = sorted(self.stats)
        index = {name: i for i, name in enumerate(names)}
        origin = self.origin
        return {
            "names": names,
            "spans": [
                [index[name], start - origin, end - origin, parent]
                for name, start, end, parent in self.spans
            ],
        }
