"""The plain-float RK4 loops against the numpy-array loop they replaced.

`numerics.rk4` keeps its state as a tuple of Python floats, in the closure
loop and in the loop it generates for a closed-form field.  Each stage
update keeps the array loop's operation order, so trajectories, tabulated
coefficients and Richardson errors must match the reference bit for bit,
and the generated loop must match the closure loop, errors included.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from csalin import canon, numerics, verify
from csalin.canon import (
    CoefficientFn, LinearForm, RhoVanishes, reduce_24_to_25,
    reduce_25_to_28, reduce_optimal,
)
from csalin.cubic import OdeSystem2
from csalin.expr import VarContext, parse
from csalin.numerics import ClosedForm, rk4, rk4_checked
from csalin.verify import (
    Blowup, DomainError, _numeric_rhs, example_case, integrate, run_example,
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
    """rk4_checked on f equals the array loop and, for a closed-form f,
    the closure loop on f's closure."""
    ts, ys, err = rk4_checked(f, t0, y0, t1, h)
    ref = _array_rhs(f)
    ts_ref, ys_ref = _rk4_reference(ref, t0, y0, t1, h)
    ys_half = _rk4_reference(ref, t0, y0, t1, h / 2)[1]
    assert np.array_equal(ts, ts_ref)
    assert ys.shape == ys_ref.shape
    assert np.array_equal(ys, ys_ref)
    assert err == float(np.max(np.abs(ys_ref - ys_half[::2])))
    if isinstance(f, ClosedForm):
        ts_c, ys_c, err_c = rk4_checked(f.closure, t0, y0, t1, h)
        assert np.array_equal(ts_c, ts) and np.array_equal(ys_c, ys)
        assert np.array_equal(np.signbit(ys_c), np.signbit(ys))
        assert err_c == err


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


# ---------------------------------------------------------------------------
# the loop generated for closed-form fields


def _worked_example_fields(monkeypatch):
    """Every (field, t0, y0, t1, h) that run_example(1..4) hands to RK4:
    four integrates, the M pairs of examples 2 and 3 and the rho systems
    of examples 3 and 4."""
    seen = []
    real = numerics.rk4_checked

    def recording(f, t0, y0, t1, h=1e-3):
        seen.append((f, t0, y0, t1, h))
        return real(f, t0, y0, t1, h)

    monkeypatch.setattr(verify, "rk4_checked", recording)
    monkeypatch.setattr(canon, "rk4_checked", recording)
    for case_id in (1, 2, 3, 4):
        run_example(case_id)
    monkeypatch.undo()
    return seen


def _optimal_field(monkeypatch):
    lf = LinearForm("general", {"d11": "x", "d22": "sin(x)", "d12": "1+x",
                                "d21": 2})
    return _reduction_rhs(monkeypatch, reduce_optimal, lf, (1.0, 2.0))


def _never_called(t, y):
    raise AssertionError("the closed-form field ran its closure")


def test_worked_example_fields_are_closed_form_and_bit_identical(
        monkeypatch):
    seen = _worked_example_fields(monkeypatch)
    assert [len(c[2]) for c in seen] == [4, 4, 2, 4, 2, 3, 4, 3]
    for f, t0, y0, t1, h in seen:
        assert isinstance(f, ClosedForm)
        _assert_same_as_reference(f, t0, y0, t1, h)
    f, t0, y0, t1 = _optimal_field(monkeypatch)
    assert isinstance(f, ClosedForm)
    _assert_same_as_reference(f, t0, y0, t1)


def test_closed_form_fields_never_call_their_closure(monkeypatch):
    # a silent fallback to the closure loop would hide a generated loop
    # that fails; and a closure that no loop calls compiles nothing
    compiled = []
    real = verify.compile_numeric
    monkeypatch.setattr(verify, "compile_numeric",
                        lambda e, names: compiled.append(e) or real(e, names))
    seen = _worked_example_fields(monkeypatch)
    seen.append((*_optimal_field(monkeypatch), 1e-3))
    assert compiled  # map_trajectory and the residual still compile
    assert not [v for f, *_ in seen for v in f.values
                if any(v is e for e in compiled)]
    for f, t0, y0, t1, h in seen:
        silent = dataclasses.replace(f, closure=_never_called)
        got = rk4_checked(silent, t0, y0, t1, h)
        want = rk4_checked(f.closure, t0, y0, t1, h)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_tabulated_coefficients_keep_the_closure(monkeypatch):
    lf = LinearForm("first_order", {
        "a1": CoefficientFn.tabulated(_XS, np.cos(_XS) + 1), "a2": "x"})
    rhs = _reduction_rhs(monkeypatch, reduce_24_to_25, lf, (0.0, 2.0))[0]
    assert not isinstance(rhs, ClosedForm)


def _closure_loop_only(monkeypatch):
    monkeypatch.setattr(numerics, "_fuse", lambda f: None)


def _message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("omega1,init,x_end,want", [
    ("y^3", (0.0, 5.0, 0.0, 50.0, 0.0), 10.0,
     (Blowup, "state escaped near x = 0.217")),
    ("exp(1000*dy)", (0.0, 0.0, 0.0, 1.0, 0.0), 1.0,
     (Blowup, "state escaped near x = 0.0005")),
    ("y/x", (0.0, 1.0, 0.0, 0.0, 0.0), 1.0,
     (DomainError, "right-hand side undefined near x = 0: division by zero "
      "in subterm 'y/x'")),
    ("sqrt(1-x)", (0.0, 0.0, 0.0, 1.0, 0.0), 2.0,
     (DomainError, "right-hand side undefined near x = 1.0005: sqrt of "
      "negative value in subterm 'sqrt(1 - x)'")),
], ids=["blowup", "overflow", "pole", "sqrt"])
def test_generated_loop_keeps_the_closure_loop_errors(monkeypatch, omega1,
                                                       init, x_end, want):
    sys = OdeSystem2(_CTX, parse(omega1, _CTX), parse("0", _CTX))
    assert _message(lambda: integrate(sys, init, x_end)) == want
    _closure_loop_only(monkeypatch)
    assert _message(lambda: integrate(sys, init, x_end)) == want


def test_generated_loop_keeps_the_rho_crossing(monkeypatch):
    lf = LinearForm("zero_order", {"a3": -4, "a4": 1})
    with pytest.raises(RhoVanishes) as fused:
        reduce_25_to_28(lf, (0.0, 2.0))
    _closure_loop_only(monkeypatch)
    with pytest.raises(RhoVanishes) as closure:
        reduce_25_to_28(lf, (0.0, 2.0))
    assert str(fused.value) == str(closure.value)
    assert fused.value.crossing == closure.value.crossing
    assert fused.value.safe_interval == closure.value.safe_interval


@pytest.mark.parametrize("rho", [1e-200, 0.0])
def test_generated_loop_maps_rho_overflow_to_inf(monkeypatch, rho):
    # rho^-2 raises in the generated loop; the closure loop's inf follows
    lf = LinearForm("zero_order", {"a3": -4, "a4": 1})
    rhs = _reduction_rhs(monkeypatch, reduce_25_to_28, lf, (0.0, 2.0))[0]
    assert isinstance(rhs, ClosedForm)
    ys = rk4(rhs, 0.0, (rho, 1.0, 0.0), 0.01)[1]
    want = rk4(rhs.closure, 0.0, (rho, 1.0, 0.0), 0.01)[1]
    assert ys[1, 2] == math.inf
    assert np.array_equal(ys, want, equal_nan=True)
