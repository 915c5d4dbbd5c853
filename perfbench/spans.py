"""Outside-in span tracing of the bivirus layers.

`Tracer.install` replaces every public function of the traced modules by a
wrapper that records one span per call: name, start, end, parent span,
whether it raised, and a few counters read off its result.  The library
calls its own layers through module attributes (`model.field(...)`,
`speclin.spectral_radius(...)`), so wrapping the attributes catches the
internal calls too.  `bivirus/__init__` re-exports the unwrapped objects,
so a traced op must reach the library through the module attributes.
Nothing in the library changes; `uninstall` puts the originals back.

`model.field` builds the flat vector field as a closure.  The factory call
is not a span; each call of the closure it returns is a `model.field` span,
so `model.field.evals` counts field evaluations.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("model", "speclin", "equilibria", "sim", "cli")
#: Name of the span the benchmark opens around each op.
OP_SPAN = "op"


def _integrate_counters(traj):
    return {"records": len(traj.times),
            "converged": int(traj.outcome.kind == "converged")}


def _basin_counters(probe):
    return {"unresolved": int(np.count_nonzero(probe.labels == -1))}


#: Counters read off a function's return value, keyed by span name.
OBSERVERS = {
    "sim.integrate": _integrate_counters,
    "sim.sandwich_test": lambda res: {"retries": int(sum(res.jittered))},
    "sim.basin_probe": _basin_counters,
    "equilibria.default_seed_grid": lambda seeds: {"seeds": len(seeds)},
    "equilibria.find_coexistence_newton": lambda eqs: {"roots": len(eqs)},
}


class Tracer:
    """Span recorder for one traced pass.  Spans are kept in memory as
    lists `[name, start, end, parent_index, raised, counters]`; parent
    index -1 marks a root."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = [-1]
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._saved.append((mod, attr, obj))
                if name == "model.field":
                    setattr(mod, attr, self._wrap_factory(name, obj))
                else:
                    setattr(mod, attr, self._wrap(name, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[5] = observe(out)
            return out

        return traced

    def _wrap_factory(self, name, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self._wrap(name, factory(*args, **kwargs))

        return traced_factory

    @contextmanager
    def span(self, name=OP_SPAN):
        """Record a span around benchmark code, by default the op span."""
        rec = [name, 0.0, 0.0, self._stack[-1], False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        except BaseException:
            rec[4] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    # -- output -------------------------------------------------------------

    def arrays(self):
        """The spans as parallel arrays (name table plus per-span columns)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": np.array(names),
            "name": np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
            "raised": np.array([s[4] for s in self.spans], dtype=bool),
        }


def summarize(spans):
    """Per-name aggregates of one traced pass.

    Returns `(stats, edges, op_s, covered_s)`: `stats` maps a span name
    to `{"calls", "total_s", "self_s", "errors", <counters>}`; `edges`
    counts spans by `(name, parent name)`; `op_s` is the summed op-span
    time and `covered_s` the summed time of the wrapped spans directly
    under an op span.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    stats = {}
    edges = {}
    op_s = covered_s = 0.0
    for i, (name, start, end, parent, raised, counters) in enumerate(spans):
        dur = end - start
        if name == OP_SPAN:
            op_s += dur
            continue
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "errors": 0})
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_time[i]
        st["errors"] += int(raised)
        if counters:
            for key, val in counters.items():
                st[key] = st.get(key, 0) + val
        pname = spans[parent][0] if parent >= 0 else None
        edges[name, pname] = edges.get((name, pname), 0) + 1
        if pname == OP_SPAN:
            covered_s += dur
    return stats, edges, op_s, covered_s
