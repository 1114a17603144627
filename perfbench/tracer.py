"""In-memory spans around csalin's public functions, and self times.

The traced run swaps each function in ``PUBLIC`` for a wrapper that records
a span, in every loaded csalin module that binds the function (the package
``__init__`` and the modules that import it by name).  No file under
``src/`` changes; ``installed`` restores the originals on exit.  Spans nest
because one wrapped function calls another through its module's globals,
e.g. ``verify.residual_on_trajectory`` calls ``map_trajectory``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager

# module -> public functions timed as layers
PUBLIC = {
    "csa": ("check_cr",),
    "cubic": ("extract_cubic", "check_theorem2"),
    "canon": ("transform_system", "reduce_optimal", "reduce_24_to_25",
              "reduce_25_to_28"),
    "verify": ("run_example", "integrate", "map_trajectory",
               "residual_on_trajectory"),
    "symmetry": ("classify_beta", "check_symmetry"),
    "expr": ("zero_verdict",),
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, request]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def adopt(self, spans, parent: int):
        """Append spans recorded elsewhere (a child process) under
        ``parent``, renumbering their parent links."""
        base = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end,
                               parent if p is None else base + p,
                               self.request])


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _integrate_steps(tracer, fn, result, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    steps = len(result.xs) - 1
    # the step-halving check integrates again with twice the steps
    tracer.counts["verify.integrate.steps"] += \
        3 * steps if bound.arguments["sanity"] else steps


def _classify_route(tracer, fn, result, args, kwargs):
    route = "collocation" if result.rank_report is not None else "exact"
    tracer.counts[f"symmetry.classify_beta.{route}"] += 1


def _zero_method(tracer, fn, result, args, kwargs):
    tracer.counts[f"expr.zero_verdict.{result.method}"] += 1


COUNTERS = {
    "verify.integrate": _integrate_steps,
    "symmetry.classify_beta": _classify_route,
    "expr.zero_verdict": _zero_method,
}


def _wrap(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)
    warn_key = f"{name}.numpy_warnings" if name == "symmetry.classify_beta" \
        else None

    def traced(*args, **kwargs):
        with tracer.span(name):
            if warn_key is None:
                result = fn(*args, **kwargs)
            else:
                with warnings.catch_warnings(record=True) as log:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                tracer.counts[warn_key] += sum(
                    issubclass(w.category, RuntimeWarning) for w in log)
                for w in log:  # pass them on to the caller's filters
                    warnings.warn_explicit(w.message, w.category,
                                           w.filename, w.lineno)
        if count is not None:
            count(tracer, fn, result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every csalin binding of a PUBLIC function through a span."""
    for mod in PUBLIC:
        importlib.import_module(f"csalin.{mod}")
    modules = [m for n, m in list(sys.modules.items())
               if n == "csalin" or n.startswith("csalin.")]
    patched = []
    for mod, names in PUBLIC.items():
        for fname in names:
            orig = getattr(sys.modules[f"csalin.{mod}"], fname)
            wrapper = _wrap(tracer, f"{mod}.{fname}", orig)
            for m in modules:
                if getattr(m, fname, None) is orig:
                    setattr(m, fname, wrapper)
                    patched.append((m, fname, orig))
    try:
        yield tracer
    finally:
        for m, fname, orig in patched:
            setattr(m, fname, orig)
