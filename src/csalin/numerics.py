"""Fixed-step numeric integration helpers.

Fixed-step RK4 with a fixed nominal step and Richardson step-halving
validation; coefficients on the working intervals are smooth, so
simplicity wins over adaptivity.  Callers: the trajectory verifier
(`verify.integrate`) and the rho / M rescalings of the reduction chain
(`canon`).  Their states have two to four components, so the state is a
tuple of plain Python floats: numpy's per-call cost on arrays that small
outweighs the arithmetic.

`rk4` runs one of two loops, chosen by the right-hand side alone.  Any
callable runs the closure loop, one Python call per stage.  A `ClosedForm`
field, whose inputs are all closed-form expressions, runs a loop generated
as Python source for the call, with its expressions (through
`expr.emit_code`) and the stage arithmetic inlined.  Both loops perform
the same float operations in the same order and return the same bits.  On
any exception the generated loop is dropped and the closure loop reruns
from the start: it raises the caller's typed error with its message, or
maps the value the way the caller's closure does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import EMIT_NAMESPACE, emit_code


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """A right-hand side y' = f(t, y) whose every input is closed-form.

    Calling it calls `closure`, the function the closure loop runs at each
    stage.  The generated loop computes the same stage from the other
    fields:

    * `symbols` binds each symbol of `values` to ``"t"`` (the stage time),
      to ``"s<i>"`` (component i of the stage state) or to a float, which
      is inlined as a constant;
    * `values` are expressions evaluated once per stage into ``v0, v1,
      ...``; a subtree they share is evaluated once;
    * `derivs` holds, per state component, the Python expression of its
      derivative over ``t``, ``s<i>`` and ``v<j>``, with the closure's
      float operations in the closure's order;
    * with `bound` set, each stage first requires ``abs(s<i>) <= bound``
      (NaN fails) and leaves the generated loop where the closure raises.
    """

    closure: Callable
    symbols: dict
    values: tuple
    derivs: tuple
    bound: float | None = None

    def __call__(self, t, y):
        return self.closure(t, y)


class _Leave(Exception):
    """A stage state outside the field's bound."""


def _fuse(f):
    """The generated RK4 loop of a ClosedForm field, called as
    loop(grid, y, h, h2, h6) with the closure loop's arguments and
    returning its rows; None for any other right-hand side, or where the
    field cannot be generated (the closure loop then reports why)."""
    if not isinstance(f, ClosedForm):
        return None
    d = len(f.derivs)
    symbols = {name: code if isinstance(code, str) else f"({code!r})"
               for name, code in f.symbols.items()}
    check = [] if f.bound is None else ["if not (" + " and ".join(
        f"abs(s{i}) <= {f.bound!r}" for i in range(d)) + "): raise _Leave"]
    lines = [f"{''.join(f'y{i}, ' for i in range(d))}= y", "rows = [y]",
             "for x, x_next in zip(grid, grid[1:]):"]
    # (stage time, stage state); the third stage keeps the second's time
    stages = (("x", "y{i}"), ("x + h2", "y{i} + h2 * k1_{i}"),
              (None, "y{i} + h2 * k2_{i}"), ("x_next", "y{i} + h * k3_{i}"))
    try:
        for n, (time, state) in enumerate(stages, 1):
            body = [] if time is None else [f"t = {time}"]
            body += [f"s{i} = " + state.format(i=i) for i in range(d)]
            body += check
            codes = emit_code(f.values, symbols, body)
            body += [f"v{j} = {code}" for j, code in enumerate(codes)]
            body += [f"k{n}_{i} = {code}" for i, code in enumerate(f.derivs)]
            lines += ["    " + line for line in body]
        lines += [f"    y{i} = y{i} + h6 * (((k1_{i} + 2 * k2_{i}) + "
                  f"2 * k3_{i}) + k4_{i})" for i in range(d)]
        lines += [f"    rows.append(({''.join(f'y{i}, ' for i in range(d))}))",
                  "return rows"]
        ns = {**EMIT_NAMESPACE, "_Leave": _Leave}
        exec("def _loop(grid, y, h, h2, h6):\n" + "".join(
            f"    {line}\n" for line in lines), ns)
    except Exception:
        return None
    return ns["_loop"]


def _rk4(f, loop, t0: float, y0, t1: float, h: float):
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(f"rk4 needs a 1-d initial state, got shape "
                         f"{y0.shape}")
    span = t1 - t0
    n = max(1, int(np.ceil(abs(span) / h)))
    h = span / n
    h2, h6 = h / 2, h / 6
    ts = t0 + h * np.arange(n + 1)
    grid = ts.tolist()
    y = tuple(y0.tolist())
    if loop is not None:
        try:
            return ts, np.array(loop(grid, y, h, h2, h6), dtype=float)
        except Exception:
            pass  # the closure loop reruns and raises or maps the value
    rows = [y]
    for t, t_next in zip(grid, grid[1:]):
        k1 = f(t, y)
        k2 = f(t + h2, tuple([u + h2 * k for u, k in zip(y, k1)]))
        k3 = f(t + h2, tuple([u + h2 * k for u, k in zip(y, k2)]))
        k4 = f(t_next, tuple([u + h * k for u, k in zip(y, k3)]))
        y = tuple([u + h6 * (((a + 2 * b) + 2 * c) + d)
                   for u, a, b, c, d in zip(y, k1, k2, k3, k4)])
        rows.append(y)
    return ts, np.array(rows, dtype=float)


def rk4(f, t0: float, y0, t1: float, h: float = 1e-3):
    """Integrate y' = f(t, y) from t0 to t1 with fixed-step RK4.

    y0 must be 1-d.  f is called as f(t, y) with a Python float t and the
    state y as a tuple of Python floats, and returns a sequence of the
    same length; a ClosedForm f runs its generated loop instead.  The span
    may be negative (integration backwards in t).  The step is shrunk
    slightly so the grid lands exactly on t1, and the last stage of each
    step is evaluated at the next grid point ts[i + 1].  Returns (ts, ys)
    with ys[i] the state at ts[i], ys of shape (n + 1, d).
    """
    return _rk4(f, _fuse(f), t0, y0, t1, h)


def rk4_checked(f, t0: float, y0, t1: float, h: float = 1e-3):
    """RK4 plus a step-halving Richardson error estimate.

    Returns (ts, ys, err) where err is the max-norm difference between the
    h and h/2 solutions on the coarse grid.
    """
    loop = _fuse(f)
    ts, ys = _rk4(f, loop, t0, y0, t1, h)
    ts2, ys2 = _rk4(f, loop, t0, y0, t1, h / 2)
    err = float(np.max(np.abs(ys - ys2[::2])))
    return ts, ys, err
