"""The generated RK4 loop against the numpy-array loop it replaced.

`numerics.rk4` keeps its state as a tuple of Python floats, in a loop
generated for each `Field`.  Each stage update keeps the array loop's
operation order, so trajectories, tabulated coefficients and step-doubling
(Richardson) errors must match the reference bit for bit, sign bits
included.  The reference right-hand sides are written here by hand, apart
from the fields they check.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings

import numpy as np
import pytest

from csalin import canon, numerics, verify
from csalin.canon import (
    LinearForm, RhoVanishes, reduce_24_to_25, reduce_25_to_28, reduce_optimal,
)
from csalin.cubic import OdeSystem2
from csalin.expr import VarContext, compile_rows, parse
from csalin.numerics import (
    Field, InaccurateIntegration, IntervalTooLong, rk4, rk4_checked,
)
from csalin.verify import (
    Blowup, DomainError, _numeric_rhs, example_case, integrate, run_example,
)
from exprgen import fixed_step_error, rk4_reference


def _array(ref):
    """ref, which maps a float t and the state as a tuple of floats to the
    derivatives, as a right-hand side of the array loop."""
    return lambda t, y: np.array(ref(float(t), tuple(y.tolist())))


def _assert_same_as_reference(f, ref, t0, y0, t1, h=1e-3):
    """rk4_checked on the Field f, at a step of at most h, equals the array
    loop on ref at the grid's step and, for the error, at twice that step
    on every second grid point."""
    ts, ys, err, step = rk4_checked(f, t0, y0, t1, h)
    assert step <= h
    h = abs(t1 - t0) / (len(ts) - 1)
    ts_ref, ys_ref = rk4_reference(_array(ref), t0, y0, t1, h)
    ts_2h, ys_2h = rk4_reference(_array(ref), t0, y0, t1, 2 * h)
    assert np.array_equal(ts, ts_ref)
    assert ys.shape == ys_ref.shape
    assert np.array_equal(ys, ys_ref)
    assert np.array_equal(np.signbit(ys), np.signbit(ys_ref))
    assert np.array_equal(ts_ref[::2], ts_2h)
    assert err == float(np.max(np.abs(ys_ref[::2] - ys_2h)))


def _trajectory_ref(sys: OdeSystem2, params: dict | None):
    ctx = sys.ctx
    names = (ctx.independent, *ctx.dependents, *ctx.first_derivatives)
    rows = compile_rows((sys.omega1, sys.omega2), names, params)

    def ref(t, s):
        (w1,), (w2,) = rows([t], *([v] for v in s))
        return s[2], s[3], w1, w2
    return ref


def _inv_square(rho):
    try:
        return rho ** -2
    except ArithmeticError:  # rho is 0 or tiny
        return math.inf


def _reduction_ref(reduce, lf: LinearForm):
    """The rho system of reduce_optimal / reduce_25_to_28, or the M pair
    of reduce_24_to_25, on lf's coefficients."""
    if reduce is reduce_24_to_25:
        a1, a2 = lf["a1"], lf["a2"]

        def m_pair(t, s):
            v1, v2 = a1(t), a2(t)
            return 0.5 * (v1 * s[0] - v2 * s[1]), 0.5 * (v1 * s[1] + v2 * s[0])
        return m_pair
    if reduce is reduce_optimal:
        d11, d22 = lf["d11"], lf["d22"]
        a = lambda t: 0.5 * (d11(t) + d22(t))
    else:
        a = lf["a3"]
    return lambda t, s: (s[1], a(t) * s[0], _inv_square(s[0]))


class _Captured(Exception):
    pass


def _reduction_rhs(monkeypatch, reduce, lf, interval):
    """The right-hand side, start and end a reduction hands to RK4."""
    seen = []

    def capture(rhs, t0, y0, t1, h):
        seen.append((rhs, t0, y0, t1))
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(canon, "rk4_checked", capture)
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
    _assert_same_as_reference(
        f, _trajectory_ref(case.system, case.param_values), x0, state0, x1)


_OPTIMAL = LinearForm("general", {"d11": "x", "d22": "sin(x)", "d12": "1+x",
                                  "d21": 2})


@pytest.mark.parametrize("reduce,lf", [
    (reduce_25_to_28, LinearForm("zero_order", {"a3": "2/x^2", "a4": 1})),
    (reduce_optimal, _OPTIMAL),
], ids=["symbolic-a", "optimal"])
def test_rho_system_matches_reference(monkeypatch, reduce, lf):
    rhs, t0, y0, t1 = _reduction_rhs(monkeypatch, reduce, lf, (1.0, 2.0))
    assert len(y0) == 3
    _assert_same_as_reference(rhs, _reduction_ref(reduce, lf), t0, y0, t1)


# a polynomial a1 and a2 take their closed form, not RK4
@pytest.mark.parametrize("lf", [
    LinearForm("first_order", {"a1": "1+sin(x)", "a2": "2"}),
], ids=["symbolic"])
def test_m_pair_matches_reference(monkeypatch, lf):
    rhs, t0, y0, t1 = _reduction_rhs(monkeypatch, reduce_24_to_25, lf,
                                     (0.0, 2.0))
    assert len(y0) == 2
    _assert_same_as_reference(rhs, _reduction_ref(reduce_24_to_25, lf), t0,
                              y0, t1)


_OSCILLATOR = Field({}, (), ("s1", "-s0"))


def test_rk4_returns_float_rows_of_the_state_length():
    ts, ys = rk4(_OSCILLATOR, 0.0, [1.0, 0.0], 1.0, 0.25)
    assert ts.shape == (5,) and ys.shape == (5, 2) and ys.dtype == float
    assert ys[0].tolist() == [1.0, 0.0]


# rk4_checked rounds the 13 steps of 0.1 up to an even 14, and takes more
# where their step-doubling error misses the budget
@pytest.mark.parametrize("run,steps", [(rk4, 13), (rk4_checked, 14)],
                         ids=["rk4", "rk4_checked"])
@pytest.mark.parametrize("f,ref,y0", [
    (Field({}, (), ("-s0",)), lambda t, s: (-s[0],), (1.0,)),
    (_OSCILLATOR, lambda t, s: (s[1], -s[0]), (1.0, -0.0)),
    (Field({}, (), ("s1", "-s0", "t * s0")),
     lambda t, s: (s[1], -s[0], t * s[0]), (1.0, 0.0, -2.0)),
], ids=["d1", "d2", "d3"])
def test_rk4_states_are_one_c_contiguous_float64_block(run, steps, f, ref,
                                                       y0):
    # the rows of the generated loop reach numpy as one flat buffer
    ts, ys = run(f, 0.0, y0, 1.3, 0.1)[:2]
    n = len(ts) - 1
    assert n == steps if run is rk4 else n >= steps and n % 2 == 0
    assert ys.shape == (n + 1, len(y0))
    assert ys.dtype == np.float64 and ys.flags.c_contiguous
    assert np.array_equal(ys, rk4_reference(_array(ref), 0.0, y0, 1.3,
                                            1.3 / n)[1])


def test_rk4_rejects_a_state_that_is_not_1d():
    with pytest.raises(ValueError, match="1-d"):
        rk4(Field({}, (), ("s0",)), 0.0, np.eye(2), 1.0)


_CTX = VarContext()


@pytest.mark.parametrize("x_end", [1e9, -1e9])
def test_integrate_caps_the_number_of_steps(x_end):
    # checked before any grid is built: 1e12 points would not fit in memory
    sys = OdeSystem2(_CTX, parse("0", _CTX), parse("0", _CTX))
    with pytest.raises(IntervalTooLong) as info:
        integrate(sys, (0.0, 0.0, 0.0, 1.0, 1.0), x_end, h=1e-3)
    assert str(info.value) == (f"interval [0, {x_end:g}] needs more than "
                               "200000 RK4 steps of h = 0.001")
    with pytest.raises(IntervalTooLong):
        rk4(_OSCILLATOR, 0.0, [1.0, 0.0], x_end)


@pytest.mark.parametrize("x_end", [1e9, -1e9])
def test_integrate_default_step_builds_no_grid_over_max_steps(monkeypatch,
                                                              x_end):
    # the default pilot step is at most MAX_PILOT_STEP, so this span is
    # refused in one typed line before any grid is built
    sys = OdeSystem2(_CTX, parse("-y", _CTX), parse("-z", _CTX))
    grids = []
    real = numerics._grid
    monkeypatch.setattr(numerics, "_grid", lambda t0, t1, n:
                        grids.append(n) or real(t0, t1, n))
    with pytest.raises(IntervalTooLong) as info:
        integrate(sys, (0.0, 1.0, 0.0, 0.0, 1.0), x_end)
    assert verify.MAX_PILOT_STEP == 0.05
    assert str(info.value) == (f"interval [0, {x_end:g}] needs more than "
                               "200000 RK4 steps of h = 0.05")
    assert grids == []


@pytest.mark.parametrize("x_end,steps", [(1.3, 302), (1.0125, 14)],
                         ids=["1.3", "1.0125"])
def test_step_halving_on_a_span_that_is_no_multiple_of_h(x_end, steps):
    # spans of 0.3 and 0.0125 take 301 and 13 steps of 1e-3, rounded up to
    # even so the step-doubling run's grid is every second point of the h
    # grid, which still ends exactly on x_end
    traj = integrate(OdeSystem2(_CTX, parse("-y", _CTX), parse("0", _CTX)),
                     (1.0, 1.0, 0.0, 0.0, 0.0), x_end, h=1e-3)
    assert len(traj.xs) == steps + 1 and traj.step == 1e-3
    assert traj.xs[-1] == x_end and traj.error < 1e-12


@pytest.mark.parametrize("x_end", [1.3, 1.0125], ids=["1.3", "1.0125"])
def test_default_step_on_a_span_that_is_no_multiple_of_h(x_end):
    # the default pilot, PILOT_STEPS steps of the span, is within the
    # budget here and kept
    traj = integrate(OdeSystem2(_CTX, parse("-y", _CTX), parse("0", _CTX)),
                     (1.0, 1.0, 0.0, 0.0, 0.0), x_end)
    assert len(traj.xs) == verify.PILOT_STEPS + 1 == 25
    assert traj.step == (x_end - 1.0) / verify.PILOT_STEPS
    assert traj.pilots == ()
    assert traj.xs[-1] == x_end and traj.error <= numerics.ERROR_BUDGET


def test_the_oscillator_over_0_1000_integrates_as_on_the_finest_grid():
    # y'' = -y, z'' = -z: the pilot of MAX_PILOT_STEP misses the budget,
    # its predicted step would take more than MAX_STEPS steps, and the run
    # on MAX_STEPS steps, of 5e-3, is kept within the 1e-7 gate
    sys = OdeSystem2(_CTX, parse("-y", _CTX), parse("-z", _CTX))
    traj = integrate(sys, (0.0, 1.0, 0.0, 0.0, 1.0), 1000.0)
    assert len(traj.xs) == numerics.MAX_STEPS + 1 and traj.step == 5e-3
    assert traj.xs[-1] == 1000.0 and traj.error <= 1e-7
    assert traj.error.hex() == "0x1.4f37c50b80000p-24"
    states = np.ascontiguousarray(traj.states, dtype=float).tobytes()
    assert hashlib.sha256(states).hexdigest()[:16] == "346cebd660ccbdea"
    (pilot, pilot_err), = traj.pilots
    assert pilot == verify.MAX_PILOT_STEP and pilot_err > 1e-4


def test_the_finest_rerun_takes_max_steps_where_the_division_rounds_down(
        monkeypatch):
    # with MAX_STEPS = 2000, 51 / (51 / 2000) exceeds 2000 by one rounding:
    # the pilot of 0.05 misses the budget, and the rerun on the finest grid
    # takes its step a float up, so it builds 2000 steps, not refused
    monkeypatch.setattr(numerics, "MAX_STEPS", 2000)
    monkeypatch.setattr(verify, "MAX_STEPS", 2000)
    assert 51.0 / (51.0 / 2000) > 2000
    steps = _rk4_steps(monkeypatch)
    sys = OdeSystem2(_CTX, parse("-y", _CTX), parse("-z", _CTX))
    with pytest.raises(InaccurateIntegration):
        integrate(sys, (0.0, 1.0, 0.0, 0.0, 1.0), 51.0)
    assert steps == [1020, 510, 2000, 1000]


def test_integrate_without_sanity_needs_a_step():
    sys = OdeSystem2(_CTX, parse("-y", _CTX), parse("0", _CTX))
    with pytest.raises(ValueError) as info:
        integrate(sys, (0.0, 1.0, 0.0, 0.0, 0.0), 1.0, sanity=False)
    assert str(info.value) == "integrate with sanity=False needs a step h"


@pytest.mark.parametrize("omega1,init", [
    ("0", (0.0, math.nan, 0.0, 0.0, 0.0)),
    ("0", (0.0, math.inf, 0.0, 0.0, 0.0)),
    ("exp(1000*dy)", (0.0, 0.0, 0.0, 1.0, 0.0)),  # k1 overflows to inf
], ids=["nan", "inf", "overflow"])
def test_integrate_raises_blowup_on_a_non_finite_state(omega1, init):
    sys = OdeSystem2(_CTX, parse(omega1, _CTX), parse("0", _CTX))
    with pytest.raises(Blowup):
        integrate(sys, init, 1.0)


# a3 is not constant, so rho takes RK4, not cos
_RHO_CROSSES = LinearForm("zero_order", {"a3": "-4-x", "a4": 1})


def _rho_from(monkeypatch, rho, t0, t1):
    """The rows of the rho field of reduce_25_to_28 run from (rho, 1, t0)
    to t1, checked against the reference run."""
    rhs = _reduction_rhs(monkeypatch, reduce_25_to_28, _RHO_CROSSES,
                         (0.0, 2.0))[0]
    ref = _reduction_ref(reduce_25_to_28, _RHO_CROSSES)
    ys = rk4(rhs, t0, (rho, 1.0, t0), t1)[1]
    want = rk4_reference(_array(ref), t0, (rho, 1.0, t0), t1)[1]
    assert np.array_equal(ys, want, equal_nan=True)
    assert np.array_equal(np.signbit(ys), np.signbit(want))
    return ys


@pytest.mark.parametrize("rho", [1e-200, 0.0, -0.0])
def test_rho_rhs_is_inf_where_rho_to_the_minus_2_overflows(monkeypatch, rho):
    # one step: the first stage's derivative of X = integral of rho^-2
    ys = _rho_from(monkeypatch, rho, 0.5, 0.501)
    assert ys[1, 2] == math.inf


def test_worked_examples_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case_id in (1, 2, 3, 4):
            run_example(case_id)


# ---------------------------------------------------------------------------
# the fields of the worked examples and the loop's error paths


def _worked_example_fields(monkeypatch):
    """Every (field, reference, t0, y0, t1, h) that run_example(1..4) hands
    to RK4, each with the reference of the integrate or reduction that
    built it: the four integrates.  The examples' M pairs (polynomial a1,
    a2) and rho systems (constant a3) take their closed forms."""
    seen, refs = [], []

    def entering(module, name, make_ref):
        real = getattr(module, name)

        def call(*args, **kwargs):
            refs.append(make_ref(*args, **kwargs))
            return real(*args, **kwargs)
        m.setattr(module, name, call)

    def recording(f, t0, y0, t1, h=1e-3, *discarded):
        seen.append((f, refs[-1], t0, y0, t1, h))
        return real_rk4(f, t0, y0, t1, h, *discarded)

    real_rk4 = numerics.rk4_checked
    with monkeypatch.context() as m:
        entering(verify, "integrate",
                 lambda sys, init, x_end, params=None: _trajectory_ref(
                     sys, params))
        # run_example's reduction chain calls them through canon
        for reduce in (reduce_24_to_25, reduce_25_to_28):
            entering(canon, reduce.__name__,
                     lambda lf, interval, reduce=reduce: _reduction_ref(
                         reduce, lf))
        m.setattr(verify, "rk4_checked", recording)
        m.setattr(canon, "rk4_checked", recording)
        for case_id in (1, 2, 3, 4):
            run_example(case_id)
    return seen


def test_worked_example_fields_are_closed_form_and_bit_identical(
        monkeypatch):
    seen = _worked_example_fields(monkeypatch)
    assert [len(c[3]) for c in seen] == [4, 4, 4, 4]
    for f, ref, t0, y0, t1, h in seen:
        assert all(isinstance(code, (str, float))
                   for code in f.symbols.values())
        _assert_same_as_reference(f, ref, t0, y0, t1, h)


# sha256 of the source of each worked example's generated RK4 loop
_LOOP_SOURCES = {
    1: "b70ad817beb625b403bea03e83154f576fa31583d920a5e202b30709e1e71af4",
    2: "aab21a8590089324b02df091358ca354b189c71774b25cbc4509c3cd1dab1a48",
    3: "3ecbdf4d3ae780793fc0fee7bf5c60a0571af60a81ca98bd436c8fa08909bc20",
    4: "bc0c9f992af7fbd422ff95120da98f2c71b1ab32b46a0fbd9f79b8d5ff011bea",
}


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_fuse_emits_the_stage_values_once_per_field(monkeypatch, case_id):
    # the four stages share one emitted block of stage-value code, and
    # the loop's source is pinned by hash
    emits, sources = [], []
    real_emit, real_compile = numerics.emit_code, numerics.compile_source
    monkeypatch.setattr(numerics, "emit_code", lambda *args:
                        emits.append(args) or real_emit(*args))
    monkeypatch.setattr(numerics, "compile_source", lambda src:
                        sources.append(src) or real_compile(src))
    case = example_case(case_id)
    numerics._fuse(_numeric_rhs(case.system, case.param_values))
    assert len(emits) == 1 and len(sources) == 1
    assert sources[0].count("    try:\n") == 4
    assert hashlib.sha256(sources[0].encode()).hexdigest() == \
        _LOOP_SOURCES[case_id]


def _stage_fallbacks(monkeypatch) -> list:
    """Record the time of every stage that falls back to eval_expr."""
    calls = []
    real = numerics._stage_values
    monkeypatch.setattr(numerics, "_stage_values",
                        lambda f, t, s: calls.append(t) or real(f, t, s))
    return calls


def test_closed_form_fields_never_take_the_stage_fallback(monkeypatch):
    # a silent fallback would hide generated code that fails
    calls = _stage_fallbacks(monkeypatch)
    for case_id in (1, 2, 3, 4):
        run_example(case_id)
    reduce_optimal(_OPTIMAL, (1.0, 2.0))
    assert calls == []
    sys = OdeSystem2(_CTX, parse("exp(1000*dy)", _CTX), parse("0", _CTX))
    with pytest.raises(Blowup):
        integrate(sys, (0.0, 0.0, 0.0, 1.0, 0.0), 1.0)
    # the overflowing exp is inf, as in eval_expr, in the pilot, its rerun
    # at a finer step, and integrate's second pilot and its rerun
    assert calls == [0.0, 0.0, 0.0, 0.0]


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
def test_generated_loop_keeps_the_closure_loop_errors(omega1, init, x_end,
                                                       want):
    # the locations are those of the grid of 1e-3
    sys = OdeSystem2(_CTX, parse(omega1, _CTX), parse("0", _CTX))
    assert _message(lambda: integrate(sys, init, x_end, h=1e-3)) == want


def test_generated_loop_keeps_the_rho_crossing():
    with pytest.raises(RhoVanishes) as info:
        reduce_25_to_28(_RHO_CROSSES, (0.0, 2.0))
    assert str(info.value) == ("rescaling function crosses zero near x = "
                               "0.764; safe sub-interval is [0, 0.763)")
    assert info.value.crossing == 0.764
    assert info.value.safe_interval == (0.0, 0.763)


# the last float whose ** -2 overflows, and the first that does not
@pytest.mark.parametrize("rho", [1e-200, 0.0, 7.458340731200207e-155,
                                 7.458340731200208e-155])
def test_generated_loop_maps_rho_overflow_to_inf(monkeypatch, rho):
    ys = _rho_from(monkeypatch, rho, 0.0, 0.01)
    assert (ys[1, 2] == math.inf) == (rho < 7.458340731200208e-155)


# ---------------------------------------------------------------------------
# the step-doubling check: how many steps it takes, and which run raises


def _rk4_steps(monkeypatch) -> list:
    """Record the step count of every RK4 run."""
    steps = []
    real = numerics._rk4
    monkeypatch.setattr(numerics, "_rk4", lambda loop, t0, y0, t1, ts:
                        steps.append(ts.size - 1)
                        or real(loop, t0, y0, t1, ts))
    return steps


def test_worked_examples_take_one_and_a_half_runs_of_rk4(monkeypatch):
    # four trajectories of 1,000 steps of 1e-3, each run once at h and once
    # at 2h; the reductions (polynomial a1, a2 and constant a3) take closed
    # forms
    monkeypatch.setattr(verify, "integrate",
                        functools.partial(verify.integrate, h=1e-3))
    steps = _rk4_steps(monkeypatch)
    for case_id in (1, 2, 3, 4):
        run_example(case_id)
    assert steps == [1000, 500] * 4
    assert sum(steps) == 6_000


def test_worked_examples_take_their_step_from_the_error_budget(monkeypatch):
    # each trajectory's pilot takes 24 steps of 1/24 and 12 of 1/12, misses
    # the budget and reruns once at the predicted step, which meets it
    steps = _rk4_steps(monkeypatch)
    reports = [run_example(case_id) for case_id in (1, 2, 3, 4)]
    assert steps == [24, 12, 108, 54, 24, 12, 110, 55,
                     24, 12, 250, 125, 24, 12, 180, 90]
    assert sum(steps) == 1_116
    for rep in reports:
        assert rep.integration_error <= numerics.ERROR_BUDGET
        (pilot, err), = rep.pilots
        assert pilot == 1 / 24 and err > numerics.ERROR_BUDGET


# y' = -12 y with |y| <= 1.1: at h = 0.1 every stage state stays in
# [0, 1], while at 2h the third stage state of the first step is 1.24
_STIFF = Field({}, (), ("-12.0 * s0",), bound=1.1)


def test_a_pilot_whose_step_doubling_run_escapes_reruns_at_a_finer_step(
        monkeypatch):
    ys = rk4(_STIFF, 0.0, (1.0,), 1.0, 0.1)[1]
    assert ys.shape == (11, 1) and np.all(np.abs(ys) <= 1.0)
    want = _message(lambda: rk4(_STIFF, 0.0, (1.0,), 1.0, 0.2))
    assert want == (Blowup, "state escaped near x = 0.1")
    steps = _rk4_steps(monkeypatch)
    ts, ys, err, step = rk4_checked(_STIFF, 0.0, (1.0,), 1.0, 0.1)
    # the pilot at 0.1 and its 2h run, which escapes; the pilot at 0.025,
    # which misses the budget, and one rerun at the predicted step
    assert steps[:4] == [10, 5, 40, 20] and len(steps) == 6
    assert step < 0.025 and err <= numerics.ERROR_BUDGET
    assert np.all(np.abs(ys) <= 1.0)
    assert np.allclose(ys[:, 0], np.exp(-12.0 * ts), atol=1e-7)


# y' = y^2 from y(0) = 1 is 1 / (1 - t), which blows up at t = 1
_BLOWUP = Field({}, (), ("s0 * s0",), bound=1e8)


def test_a_failing_run_at_h_raises_before_the_step_doubling_run(
        monkeypatch):
    # in the pilot at h and in its rerun at h / 4 alike; the pilot's
    # Blowup is the one raised
    want = _message(lambda: rk4(_BLOWUP, 0.0, (1.0,), 2.0, 0.25))
    assert want == (Blowup, "state escaped near x = 1.25")
    steps = _rk4_steps(monkeypatch)
    assert _message(lambda: rk4_checked(_BLOWUP, 0.0, (1.0,), 2.0,
                                        0.25)) == want
    assert steps == [8, 32]


def test_an_escaped_pilot_is_not_rerun_over_max_steps(monkeypatch):
    # the pilot takes MAX_STEPS / 2 steps, and a rerun at h / 4 would take
    # twice MAX_STEPS
    steps = _rk4_steps(monkeypatch)
    with pytest.raises(Blowup, match="near x = 1.001"):
        rk4_checked(_BLOWUP, 0.0, (1.0,), numerics.MAX_STEPS * 1e-3 / 2,
                    1e-3)
    assert steps == [numerics.MAX_STEPS // 2]


# ---------------------------------------------------------------------------
# the step from the error budget


def test_a_run_within_the_budget_is_kept(monkeypatch):
    steps = _rk4_steps(monkeypatch)
    ts, ys, err, step = rk4_checked(_OSCILLATOR, 0.0, (1.0, 0.0), 3.0, 1e-3)
    assert steps == [3000, 1500] and step == 1e-3
    assert err == fixed_step_error(_OSCILLATOR, 0.0, (1.0, 0.0), 3.0, 1e-3)
    assert err <= numerics.ERROR_BUDGET


def test_a_run_over_the_budget_reruns_once_at_the_predicted_step(
        monkeypatch):
    pilot = fixed_step_error(_OSCILLATOR, 0.0, (1.0, 0.0), 10.0, 0.1)
    assert pilot > 1e-7
    steps = _rk4_steps(monkeypatch)
    ts, ys, err, step = rk4_checked(_OSCILLATOR, 0.0, (1.0, 0.0), 10.0, 0.1)
    assert step == numerics.SAFETY * 0.1 * (
        numerics.ERROR_BUDGET / pilot) ** 0.25
    n = math.ceil(10.0 / step)
    assert steps == [100, 50, n + n % 2, (n + n % 2) // 2]
    assert len(ts) == n + n % 2 + 1 and ts[-1] == 10.0
    assert err <= numerics.ERROR_BUDGET
    # the kept run's y is cos within its step-doubling error
    assert np.max(np.abs(ys[:, 0] - np.cos(ts))) <= err


def test_a_pilot_whose_step_would_need_over_max_steps_is_kept(monkeypatch):
    # y'' = -y over 3,000 at h = 1: the h^4 law asks for about 0.0053, or
    # 566,000 steps, so no finer grid is built and the pilot is kept
    steps = _rk4_steps(monkeypatch)
    err, step = rk4_checked(_OSCILLATOR, 0.0, (1.0, 0.0), 3000.0, 1.0)[2:]
    assert steps == [3000, 1500] and step == 1.0 and err > 1e-7
