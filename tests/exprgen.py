"""Deterministic random expression trees for kernel tests, the
numpy-array RK4 loop that tests use as a reference integrator, the
step-doubling error of csalin's RK4 at one fixed step, and the round-trip
residual of one reduction to the reduced form."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from csalin.expr import (
    C, Expr, VarContext, add, cos, div, exp, log, mul, neg, pow_, sin,
    sqrt, sym,
)
from csalin.numerics import rk4

CTX = VarContext()
VARS = ("x", "y", "z")


def random_expr(rng: random.Random, depth: int = 3) -> Expr:
    """A random expression over (x, y, z), safe to evaluate on (0.1, 2)^3."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(3)
        if kind == 0:
            return C(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return sym(rng.choice(VARS))
    op = rng.randrange(7)
    a = random_expr(rng, depth - 1)
    if op == 0:
        return add(a, random_expr(rng, depth - 1))
    if op == 1:
        return a - random_expr(rng, depth - 1)
    if op == 2:
        return mul(a, random_expr(rng, depth - 1))
    if op == 3:
        # keep denominators bounded away from zero on the sample box
        d = add(C(2), pow_(random_expr(rng, depth - 1), 2))
        return div(a, d)
    if op == 4:
        return pow_(a, rng.choice([2, 3]))
    if op == 5:
        f = rng.choice(["sin", "cos", "exp"])
        arg = a if f != "exp" else mul(C(Fraction(1, 4)), a)
        return {"sin": sin, "cos": cos, "exp": exp}[f](arg)
    # strictly positive argument for log / sqrt
    pos = add(C(1), pow_(a, 2))
    return rng.choice([log, sqrt])(pos)


def corpus(n: int, seed: int = 2024, depth: int = 3):
    rng = random.Random(seed)
    return [random_expr(rng, depth) for _ in range(n)]


def sample_point(rng: random.Random) -> dict:
    return {v: rng.uniform(0.1, 2.0) for v in VARS}


def rk4_reference(f, t0, y0, t1, h=1e-3):
    """The numpy-array RK4 loop: f maps a float64 array to an array."""
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


def fixed_step_error(f, t0, y0, t1, h) -> float:
    """The step-doubling error of `numerics.rk4` on the Field f at the
    fixed step h, over an even number of steps: the max-norm difference
    from the run of 2h on every second grid point."""
    ys = rk4(f, t0, y0, t1, h)[1]
    return float(np.max(np.abs(ys[::2] - rk4(f, t0, y0, t1, 2 * h)[1])))


def roundtrip_residual(res) -> float:
    """The largest residual on [1.05, 1.95] of y'' = a3 y - z, z'' = y +
    a3 z, a3 = 2/t^2, which res reduces on [1, 2], by a solution of the
    reduced form mapped back as y = rho(t) Y(X(t)), quintic-interpolated.
    The package reads its tables at their knots only; here beta, rho and
    X are read between knots through scipy's not-a-knot cubic spline."""
    from scipy.interpolate import CubicSpline, make_interp_spline

    beta, rho, new_var = (CubicSpline(c.xs, c.values) for c in
                          (res.form["beta"], res.rho, res.new_var))
    lo, hi = res.form["beta"].domain

    def reduced_rhs(x, s):
        b = beta(x)
        return np.array([s[2], s[3], -b * s[1], b * s[0]])

    xs, ys = rk4_reference(reduced_rhs, lo + 1e-6,
                           np.array([0.3, -0.2, 0.1, 0.4]), hi - 1e-6, 1e-3)
    ts = np.linspace(1.05, 1.95, 300)
    rho, x_of_t, a3 = rho(ts), new_var(ts), 2.0 / ts ** 2
    y, z = (rho * make_interp_spline(xs, ys[:, k], k=5)(x_of_t)
            for k in (0, 1))
    r1 = make_interp_spline(ts, y, k=5).derivative(2)(ts) - (a3 * y - z)
    r2 = make_interp_spline(ts, z, k=5).derivative(2)(ts) - (y + a3 * z)
    return float(np.max(np.abs(r1[3:-3]) + np.abs(r2[3:-3])))
