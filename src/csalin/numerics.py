"""Fixed-step numeric integration helpers.

The one explicit RK4 loop of the package, with a fixed nominal step and
Richardson step-halving validation; coefficients on the working intervals
are smooth, so simplicity wins over adaptivity.  Callers: the trajectory
verifier (`verify.integrate`) and the rho / M rescalings of the reduction
chain (`canon`).  Their states have two to four components, so the loop
keeps the state as a tuple of plain Python floats: numpy's per-call cost
on arrays that small outweighs the arithmetic.
"""

from __future__ import annotations

import numpy as np


def rk4(f, t0: float, y0, t1: float, h: float = 1e-3):
    """Integrate y' = f(t, y) from t0 to t1 with fixed-step RK4.

    y0 must be 1-d.  f is called as f(t, y) with a Python float t and the
    state y as a tuple of Python floats, and returns a sequence of the
    same length.  The span may be negative (integration backwards in t).
    The step is shrunk slightly so the grid lands exactly on t1, and the
    last stage of each step is evaluated at the next grid point ts[i + 1].
    Returns (ts, ys) with ys[i] the state at ts[i], ys of shape (n + 1, d).
    """
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


def rk4_checked(f, t0: float, y0, t1: float, h: float = 1e-3):
    """RK4 plus a step-halving Richardson error estimate.

    Returns (ts, ys, err) where err is the max-norm difference between the
    h and h/2 solutions on the coarse grid.
    """
    ts, ys = rk4(f, t0, y0, t1, h)
    ts2, ys2 = rk4(f, t0, y0, t1, h / 2)
    err = float(np.max(np.abs(ys - ys2[::2])))
    return ts, ys, err
