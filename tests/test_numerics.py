"""The plain-float RK4 loop against the numpy-array loop it replaced.

`numerics.rk4` keeps its state as a tuple of Python floats.  Each stage
update keeps the array loop's operation order, so trajectories, tabulated
coefficients and Richardson errors must match the reference bit for bit.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from csalin import canon
from csalin.canon import (
    CoefficientFn, LinearForm, reduce_24_to_25, reduce_25_to_28,
    reduce_optimal,
)
from csalin.cubic import OdeSystem2
from csalin.expr import VarContext, parse
from csalin.numerics import rk4, rk4_checked
from csalin.verify import (
    Blowup, _numeric_rhs, example_case, integrate, run_example,
)


def _rk4_reference(f, t0, y0, t1, h=1e-3):
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


def _array_rhs(f):
    """Hand f the plain floats the array loop's callers converted to."""
    return lambda t, y: np.array(f(float(t), tuple(y.tolist())))


def _assert_same_as_reference(f, t0, y0, t1, h=1e-3):
    ts, ys, err = rk4_checked(f, t0, y0, t1, h)
    ref = _array_rhs(f)
    ts_ref, ys_ref = _rk4_reference(ref, t0, y0, t1, h)
    ys_half = _rk4_reference(ref, t0, y0, t1, h / 2)[1]
    assert np.array_equal(ts, ts_ref)
    assert ys.shape == ys_ref.shape
    assert np.array_equal(ys, ys_ref)
    assert err == float(np.max(np.abs(ys_ref - ys_half[::2])))


class _Captured(Exception):
    pass


def _reduction_rhs(monkeypatch, reduce, lf, interval):
    """The right-hand side, start and end a reduction hands to RK4."""
    seen = []

    def capture(rhs, t0, y0, t1, h):
        seen.append((rhs, t0, y0, t1))
        raise _Captured

    monkeypatch.setattr(canon, "_integrate_coeffs", capture)
    with pytest.raises(_Captured):
        reduce(lf, interval)
    return seen[0]


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
@pytest.mark.parametrize("backwards", [False, True],
                         ids=["forwards", "backwards"])
def test_four_state_trajectory_matches_reference(case_id, backwards):
    case = example_case(case_id)
    f = _numeric_rhs(case.system, case.param_values)
    x0, *state0 = case.init
    x1 = case.interval[1]
    if backwards:
        x0, x1 = x1, x0
    _assert_same_as_reference(f, x0, state0, x1)


_XS = np.linspace(0.0, 2.0, 201)


@pytest.mark.parametrize("reduce,lf", [
    (reduce_25_to_28, LinearForm("zero_order", {"a3": "2/x^2", "a4": 1})),
    (reduce_25_to_28, LinearForm("zero_order", {
        "a3": CoefficientFn.tabulated(_XS + 1.0, 0.5 + _XS ** 2),
        "a4": 1})),
    (reduce_optimal, LinearForm("general", {
        "d11": "x", "d22": "sin(x)", "d12": "1+x", "d21": 2})),
], ids=["symbolic-a", "tabulated-a", "optimal"])
def test_rho_system_matches_reference(monkeypatch, reduce, lf):
    rhs, t0, y0, t1 = _reduction_rhs(monkeypatch, reduce, lf, (1.0, 2.0))
    assert len(y0) == 3
    _assert_same_as_reference(rhs, t0, y0, t1)


@pytest.mark.parametrize("lf", [
    LinearForm("first_order", {"a1": "1+x", "a2": "2"}),
    LinearForm("first_order", {
        "a1": CoefficientFn.tabulated(_XS, np.cos(_XS) + 1), "a2": "x"}),
], ids=["symbolic", "tabulated"])
def test_m_pair_matches_reference(monkeypatch, lf):
    rhs, t0, y0, t1 = _reduction_rhs(monkeypatch, reduce_24_to_25, lf,
                                     (0.0, 2.0))
    assert len(y0) == 2
    _assert_same_as_reference(rhs, t0, y0, t1)


def test_rk4_returns_float_rows_of_the_state_length():
    ts, ys = rk4(lambda t, y: (y[1], -y[0]), 0.0, [1.0, 0.0], 1.0, 0.25)
    assert ts.shape == (5,) and ys.shape == (5, 2) and ys.dtype == float
    assert ys[0].tolist() == [1.0, 0.0]


def test_rk4_rejects_a_state_that_is_not_1d():
    with pytest.raises(ValueError, match="1-d"):
        rk4(lambda t, y: y, 0.0, np.eye(2), 1.0)


_CTX = VarContext()


@pytest.mark.parametrize("omega1,init", [
    ("0", (0.0, math.nan, 0.0, 0.0, 0.0)),
    ("0", (0.0, math.inf, 0.0, 0.0, 0.0)),
    ("exp(1000*dy)", (0.0, 0.0, 0.0, 1.0, 0.0)),  # k1 overflows to inf
], ids=["nan", "inf", "overflow"])
def test_integrate_raises_blowup_on_a_non_finite_state(omega1, init):
    sys = OdeSystem2(_CTX, parse(omega1, _CTX), parse("0", _CTX))
    with pytest.raises(Blowup):
        integrate(sys, init, 1.0)


@pytest.mark.parametrize("rho", [1e-200, 0.0, -0.0])
def test_rho_rhs_is_inf_where_rho_to_the_minus_2_overflows(monkeypatch, rho):
    lf = LinearForm("zero_order", {"a3": -4, "a4": 1})
    rhs = _reduction_rhs(monkeypatch, reduce_25_to_28, lf, (0.0, 2.0))[0]
    drho, d2rho, dx = rhs(0.5, (rho, 1.0, 0.5))
    assert (drho, d2rho, dx) == (1.0, -4.0 * rho, math.inf)


def test_worked_examples_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case_id in (1, 2, 3, 4):
            run_example(case_id)
