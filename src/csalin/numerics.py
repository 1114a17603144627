"""Fixed-step numeric integration helpers.

The one explicit RK4 loop of the package, with a fixed nominal step and
Richardson step-halving validation; coefficients on the working intervals
are smooth, so simplicity wins over adaptivity.  Callers: the trajectory
verifier (`verify.integrate`) and the rho / M rescalings of the reduction
chain (`canon`).
"""

from __future__ import annotations

import numpy as np


def rk4(f, t0: float, y0, t1: float, h: float = 1e-3):
    """Integrate y' = f(t, y) from t0 to t1 with fixed-step RK4.

    The span may be negative (integration backwards in t).  The step is
    shrunk slightly so the grid lands exactly on t1, and the last stage of
    each step is evaluated at the next grid point ts[i + 1].  Returns
    (ts, ys) with ys[i] the state at ts[i].
    """
    y0 = np.asarray(y0, dtype=float)
    span = t1 - t0
    n = max(1, int(np.ceil(abs(span) / h)))
    h = span / n
    ts = t0 + h * np.arange(n + 1)
    ys = np.empty((n + 1,) + y0.shape)
    ys[0] = y0
    y = y0
    for i in range(n):
        t = ts[i]
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(ts[i + 1], y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i + 1] = y
    return ts, ys


def rk4_checked(f, t0: float, y0, t1: float, h: float = 1e-3):
    """RK4 plus a step-halving Richardson error estimate.

    Returns (ts, ys, err) where err is the max-norm difference between the
    h and h/2 solutions on the coarse grid.
    """
    ts, ys = rk4(f, t0, y0, t1, h)
    ts2, ys2 = rk4(f, t0, y0, t1, h / 2)
    err = float(np.max(np.abs(ys - ys2[::2])))
    return ts, ys, err
