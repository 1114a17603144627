"""Trajectory integration, mapping, and the worked demonstration cases."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from csalin.canon import DxXZero, PointTransformation, transform_system
from csalin import expr, numerics, verify
from csalin.csa import check_cr
from csalin.cubic import OdeSystem2, check_theorem2, extract_cubic
from csalin.expr import (
    Add, C, TooDeep, VarContext, ZERO, ZeroVerdict, parse, simplify,
    substitute, sym, zero_verdict,
)
from csalin.verify import (
    Blowup, CaseReport, DomainError, InaccurateIntegration, NonMonotone,
    ShortTrajectory, _example_dimension, _geodesic_system, _target_form,
    example_case, integrate, map_trajectory, residual_on_trajectory,
    run_example,
)

CTX = VarContext()


def _sys(o1: str, o2: str, ctx=CTX) -> OdeSystem2:
    return OdeSystem2(ctx, parse(o1, ctx), parse(o2, ctx))


def test_integrate_free_particle_exact():
    traj = integrate(_sys("0", "0"), (0.0, 0.0, 0.0, 1.0, 1.0), 1.0)
    assert traj.states[-1][0] == pytest.approx(1.0, abs=1e-12)
    assert traj.states[-1][1] == pytest.approx(1.0, abs=1e-12)
    assert traj.states[-1][2] == pytest.approx(1.0, abs=1e-12)


def test_integrate_pole_raises_domain_error():
    s = _sys("y/x", "0")
    with pytest.raises(DomainError):
        integrate(s, (0.0, 1.0, 0.0, 0.0, 0.0), 1.0)


def _count_fallbacks(monkeypatch) -> list:
    """Record every row of compiled expressions that falls back to
    eval_expr (as the expressions), and every RK4 stage that does (as its
    Field)."""
    calls = []
    real, real_stage = expr._eval_row, numerics._stage_values

    def counting(exprs, names, params, row):
        calls.append(exprs)
        return real(exprs, names, params, row)

    def stage(f, t, state):
        calls.append(f)
        return real_stage(f, t, state)

    monkeypatch.setattr(expr, "_eval_row", counting)
    monkeypatch.setattr(numerics, "_stage_values", stage)
    return calls


def test_pole_domain_error_comes_through_the_fallback(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    s = _sys("y/x", "0")
    with pytest.raises(DomainError, match="near x = 0: division by zero"):
        integrate(s, (0.0, 1.0, 0.0, 0.0, 0.0), 1.0)
    assert len(calls) == 1 and isinstance(calls[0], numerics.Field)


def test_worked_examples_stay_on_the_compiled_path(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    for case_id in (1, 2, 3, 4):
        run_example(case_id)
    assert calls == []


def test_integrate_blowup():
    s = _sys("y^3", "0")
    with pytest.raises(Blowup):
        integrate(s, (0.0, 5.0, 0.0, 50.0, 0.0), 10.0)


def test_integrate_backward():
    # y = cos(x - 2) solves y'' = -y with y(2) = 1, y'(2) = 0
    traj = integrate(_sys("-y", "0"), (2.0, 1.0, 0.0, 0.0, 0.0), 0.0)
    assert traj.xs[-1] == 0.0 and np.all(np.diff(traj.xs) < 0)
    assert abs(traj.states[-1][0] - np.cos(-2.0)) <= 1e-10


def test_integrate_step_halving_check():
    s = _sys("-y", "0")
    # at most 0.1 over a span of 10: the run at 0.1 misses the budget and
    # the rerun at the predicted step passes the check
    traj = integrate(s, (0.0, 1.0, 0.0, 0.0, 0.0), 10.0, h=0.1)
    assert traj.step < 0.1 and traj.error <= 1e-7
    # at most 1 over 3,000: the predicted step would take more than
    # MAX_STEPS steps, so the run at 1 is checked and refused
    with pytest.raises(InaccurateIntegration):
        integrate(s, (0.0, 1.0, 0.0, 0.0, 0.0), 3000.0, h=1.0)
    traj = integrate(s, (0.0, 1.0, 0.0, 0.0, 0.0), 10.0, h=0.1,
                     sanity=False)
    assert traj.xs[-1] == 10.0
    assert traj.step == 0.1 and traj.error is None and len(traj.xs) == 101


def test_identity_transformation_residual_small():
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")
    traj = integrate(s, (1.0, 0.0, 0.0, 0.1, 0.1), 2.0)
    res = residual_on_trajectory(traj, s, PointTransformation.identity(CTX))
    assert res <= 1e-6


def test_residual_small_at_both_steps():
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")
    T = PointTransformation(CTX, parse("1/x", CTX),
                            parse("exp(y)*cos(z)", CTX),
                            parse("exp(y)*sin(z)", CTX))
    target = transform_system(s, T)
    coarse = integrate(s, (1.0, 0.0, 0.0, 0.1, 0.1), 2.0, h=4e-3)
    fine = integrate(s, (1.0, 0.0, 0.0, 0.1, 0.1), 2.0, h=2e-3)
    # the stencil's truncation error at both step sizes is far under the
    # acceptance tolerance
    assert residual_on_trajectory(coarse, target, T) <= 1e-6
    assert residual_on_trajectory(fine, target, T) <= 1e-6


def test_map_trajectory_shapes_and_values():
    s = _sys("0", "0")
    T = PointTransformation(CTX, parse("x", CTX), parse("2*y", CTX),
                            parse("3*z", CTX))
    traj = integrate(s, (0.0, 1.0, 1.0, 0.5, 0.25), 1.0)
    X, Y, Z, dY, dZ = map_trajectory(traj, T)
    assert X.shape == Y.shape == Z.shape == dY.shape == dZ.shape
    assert np.allclose(Y, 2 * traj.states[:, 0])
    assert np.allclose(Z, 3 * traj.states[:, 1])
    assert np.allclose(dY, 2 * traj.states[:, 2])
    assert np.allclose(dZ, 3 * traj.states[:, 3])


def test_map_trajectory_names_the_row_where_the_map_is_undefined(
        monkeypatch):
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1])
    assert 1.25 in traj.xs.tolist()  # a grid point inside [1, 2]
    T = PointTransformation(CTX, sym("x"), parse("y + 1/(x - 1.25)", CTX),
                            sym("z"))
    calls = _count_fallbacks(monkeypatch)
    with pytest.raises(DomainError) as err:
        map_trajectory(traj, T)
    assert str(err.value) == ("transformation undefined near x = 1.25: "
                              "division by zero in subterm '1/(x + -5/4)'")
    assert err.value.__cause__.row[0] == 1.25
    assert len(calls) == 1 and calls[0][:3] == (T.X, T.Y, T.Z)


def test_map_trajectory_refuses_a_constant_new_variable():
    # D_x X = 0 is refused before Y' = D_x(Y)/D_x(X) divides by it
    with pytest.warns(UserWarning, match="singular"):
        T = PointTransformation(CTX, parse("3", CTX), sym("y"), sym("z"))
    traj = integrate(_sys("0", "0"), (0.0, 0.0, 0.0, 1.0, 1.0), 0.1)
    with pytest.raises(DxXZero):
        map_trajectory(traj, T)


def test_residual_is_nan_on_a_nan_defect():
    # inf - inf on every row: the defect is NaN, which must not read as 0
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1])
    nctx = case.transformation.new_ctx
    w = parse("exp(exp(X+1000)) - exp(exp(X+1001))", nctx)
    res = residual_on_trajectory(traj, OdeSystem2(nctx, w, w),
                                 case.transformation)
    assert np.isnan(res)
    assert not res <= 1e-5


def test_residual_surfaces_a_target_too_deep_to_compile():
    # a 3,000-deep sum: the row loop refuses it with an ExprError, which
    # the CLI reports with exit 2, not a bare RecursionError
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1])
    nctx = case.transformation.new_ctx
    w = sym("X")
    for _ in range(3000):
        w = Add((w, sym("Y")))
    with pytest.raises(TooDeep):
        residual_on_trajectory(traj, OdeSystem2(nctx, w, ZERO),
                               case.transformation)


@pytest.mark.parametrize("h,rows", [(0.2, 6), (0.25, 5)])
def test_a_trajectory_shorter_than_the_stencil_is_refused(h, rows):
    # the stencil needs three rows on each side of the row it checks, so
    # 6 rows would check none
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1], h=h,
                     sanity=False)
    assert len(traj.xs) == rows
    with pytest.raises(ShortTrajectory, match=f"at least 7 rows, got {rows}"):
        residual_on_trajectory(traj, case.expected_target,
                               case.transformation)
    assert issubclass(ShortTrajectory, expr.ExprError)


def test_seven_rows_give_one_checked_row():
    case = example_case(1)
    traj = integrate(case.system, case.init, 1.75, h=0.125, sanity=False)
    assert len(traj.xs) == 7
    nctx = case.transformation.new_ctx
    wrong = OdeSystem2(nctx, parse("100*Y", nctx), parse("100*Z", nctx))
    assert residual_on_trajectory(traj, wrong, case.transformation) >= 1.0


# the six param_values variants of the worked examples' tests
VARIANTS = [{"c1": 1e-5, "c2": 1.0}, {"c1": 0.1, "c2": 1.0},
            {"c1": 4.0, "c2": 1.0}, {"c1": 2.0, "c2": 3.0},
            {"c1": 1.0, "c2": 1.0}, {"c1": -0.5, "c2": 0.25}]
VARIANT_IDS = ["1e-5", "0.1", "4", "2-3", "unit", "-0.5-0.25"]


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
@pytest.mark.parametrize("values", VARIANTS, ids=VARIANT_IDS)
def test_stencil_residual_tells_the_target_from_a_wrong_one(case_id, values):
    case = example_case(case_id)
    if case_id == 1:
        values = {}  # example 1 has no parameter
    traj = integrate(case.system, case.init, case.interval[1], params=values)
    T = case.transformation
    assert residual_on_trajectory(traj, case.expected_target, T,
                                  params=values) <= 1e-8
    nctx = T.new_ctx
    wrong = OdeSystem2(nctx, parse("100*Y", nctx), parse("100*Z", nctx))
    assert residual_on_trajectory(traj, wrong, T, params=values) >= 1.0


def test_residual_reads_a_decreasing_new_variable_as_it_stands():
    # X = 1/x decreases along example 1's trajectory and X = -1/x
    # increases: the stencil's ratio D(Y')/D(X) reads either as it stands
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1])
    T = case.transformation
    flipped = PointTransformation(CTX, parse("-1/x", CTX), T.Y, T.Z)
    assert np.all(np.diff(map_trajectory(traj, T)[0]) < 0)
    assert np.all(np.diff(map_trajectory(traj, flipped)[0]) > 0)
    assert residual_on_trajectory(traj, case.expected_target, T) <= 1e-8
    assert residual_on_trajectory(
        traj, OdeSystem2(flipped.new_ctx, ZERO, ZERO), flipped) <= 1e-8


def test_residual_refuses_a_new_variable_that_turns():
    case = example_case(1)
    traj = integrate(case.system, case.init, case.interval[1])
    # X' = 4 cos(4x) changes sign at x = 3 pi/8, between grid points
    T = PointTransformation(CTX, parse("sin(4*x)", CTX), sym("y"), sym("z"))
    with pytest.raises(NonMonotone):
        residual_on_trajectory(traj, OdeSystem2(T.new_ctx, ZERO, ZERO), T)


def test_complex_route_agrees_with_system_route():
    # integrate the real pair directly, and integrate the scalar complex
    # equation u'' = f(x, u, u'); the real/imaginary parts must agree
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")
    assert check_cr(s).overall  # the correspondence exists
    traj = integrate(s, (1.0, 0.0, 0.0, 0.1, 0.1), 2.0, h=1e-3)

    def complex_rhs(x, u, du):
        # u'' = -u'^2 - (2/x) u'
        return -du * du - (2.0 / x) * du

    h = 1e-3
    x = 1.0
    u = 0.0 + 0.0j
    du = 0.1 + 0.1j
    xs = [x]
    us = [u]
    n = int(round((2.0 - 1.0) / h))
    for _ in range(n):
        def f(xv, state):
            uu, dd = state
            return np.array([dd, complex_rhs(xv, uu, dd)], dtype=complex)

        sta = np.array([u, du], dtype=complex)
        k1 = f(x, sta)
        k2 = f(x + h / 2, sta + h / 2 * k1)
        k3 = f(x + h / 2, sta + h / 2 * k2)
        k4 = f(x + h, sta + h * k3)
        sta = sta + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        u, du = sta
        x += h
        xs.append(x)
        us.append(u)
    us = np.array(us)
    assert np.max(np.abs(us.real - traj.states[:, 0])) <= 1e-7
    assert np.max(np.abs(us.imag - traj.states[:, 1])) <= 1e-7


# ---------------------------------------------------------------------------
# the trajectory step from the error budget


# sha256 prefix of the float64 bytes of the states, and the step-doubling
# error, of each worked example's trajectory at the fixed step of 1e-3
_AT_1E_3 = {1: ("2567f8c160df6f9a", "0x1.50e8000000000p-44"),
            2: ("62a99bf1c860508a", "0x1.ad40000000000p-44"),
            3: ("87d049918f94425b", "0x1.8e30000000000p-39"),
            4: ("69d746bc158789da", "0x1.6230000000000p-41")}


def _example_trajectory(case_id: int, h=None):
    case = example_case(case_id)
    return integrate(case.system, case.init, case.interval[1], h=h,
                     params=case.param_values)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_an_explicit_step_of_1e_3_is_bit_identical(case_id):
    # within the budget at 1e-3, so no rerun moves a bit
    traj = _example_trajectory(case_id, 1e-3)
    states = np.ascontiguousarray(traj.states, dtype=float).tobytes()
    assert (hashlib.sha256(states).hexdigest()[:16], traj.error.hex()) == \
        _AT_1E_3[case_id]
    assert traj.step == 1e-3 and len(traj.xs) == 1001


@pytest.mark.parametrize("case_id,step", [
    (1, 0.009374631382664743), (2, 0.009223643789462749),
    (3, 0.0040263452883240345), (4, 0.00560534763376037)])
def test_chosen_step_agrees_with_1e_3_at_the_end(case_id, step):
    # two routes to x_end: the step from the budget, refined once from the
    # pilot of 1/24, and a fixed 1e-3
    chosen = _example_trajectory(case_id)
    fixed = _example_trajectory(case_id, 1e-3)
    assert chosen.step == step and chosen.error <= numerics.ERROR_BUDGET
    (pilot, err), = chosen.pilots
    assert pilot == 1 / 24 and err > numerics.ERROR_BUDGET
    assert chosen.xs[-1] == fixed.xs[-1]
    assert np.max(np.abs(chosen.states[-1] - fixed.states[-1])) <= \
        numerics.ERROR_BUDGET


def test_geodesic_type_trajectories_end_within_the_budget_or_raise():
    # the worked examples' shapes with seeded constants, starts and spans
    rng = random.Random(2301)
    shapes = (("{a}*dy - {b}*dz", "{b}*dy + {a}*dz"),
              ("(1+x)*({a}*dy - {b}*dz)", "(1+x)*({b}*dy + {a}*dz)"),
              ("{a}", "{b}"), ("-({a}/x)*dy", "-({a}/x)*dz"))
    kept = 0
    for _ in range(32):
        a, b = (round(rng.uniform(-5.0, 5.0), 2) for _ in range(2))
        om1, om2 = rng.choice(shapes)
        sys = _sys(f"-dy^2 + dz^2 + {om1.format(a=a, b=b)}",
                   f"-2*dy*dz + {om2.format(a=a, b=b)}")
        init = (1.0, *(round(rng.uniform(-1.0, 1.0), 2) for _ in range(4)))
        try:
            traj = integrate(sys, init, 1.0 + rng.choice((0.5, 1.0, 2.0)))
        except expr.ExprError:
            continue
        assert traj.error <= numerics.ERROR_BUDGET, (sys, init)
        # the pilot, at most MAX_PILOT_STEP, is discarded only for an escape
        # or a miss of the budget
        assert traj.step <= verify.MAX_PILOT_STEP
        assert all(err is None or err > numerics.ERROR_BUDGET
                   for _, err in traj.pilots), traj.pilots
        kept += 1
    assert kept == 32


def test_a_refined_run_that_misses_the_budget_is_refined_again():
    # one rerun at the step the h^4 law predicts ends at 1.1e-9
    sys = _sys("-dy^2 + dz^2 + (1+x)*(0.67*dy - 2.75*dz)",
               "-2*dy*dz + (1+x)*(2.75*dy + 0.67*dz)")
    traj = integrate(sys, (1.0, 0.32, -0.73, -0.8, -0.23), 2.0)
    (pilot, pilot_err), (refined, refined_err) = traj.pilots
    assert pilot == 1 / 24 and pilot_err > 1e-3
    assert 1e-9 < refined_err < 1.2e-9
    assert traj.step == numerics.SAFETY * refined * (
        numerics.ERROR_BUDGET / refined_err) ** 0.25
    assert traj.error <= numerics.ERROR_BUDGET and traj.xs[-1] == 2.0


def test_a_default_pilot_whose_rerun_escapes_too_starts_finer():
    # the solution grows to near the 1e8 bound: the pilot of 0.05 and its
    # rerun at 0.0125 overshoot it near x = 2.05, a pilot of 0.05/16 stays
    # inside, misses the budget and predicts the step kept
    sys = _sys("-dy^2 + dz^2 + (1+x)*(0.91*dy + 2.65*dz)",
               "-2*dy*dz + (1+x)*(-2.65*dy + 0.91*dz)")
    init = (1.0, 0.78, 0.85, -0.74, 0.85)
    traj = integrate(sys, init, 3.0)
    (p1, e1), (p2, e2), (p3, e3) = traj.pilots
    assert (p1, e1, p2, e2, p3) == (0.05, None, 0.0125, None, 0.003125)
    assert e3 > numerics.ERROR_BUDGET and traj.step < 1e-4
    assert traj.error <= numerics.ERROR_BUDGET and traj.xs[-1] == 3.0
    with pytest.raises(Blowup, match="near x = 2.05"):
        integrate(sys, init, 3.0, h=0.05)


def test_a_pilot_that_escapes_at_the_callers_step_is_rerun_finer():
    # at h = 1e-2 the pilot's run of 2h leaves RK4's stability region
    # near x = 2.23; the rerun at 2.5e-3 stays bounded, misses the budget
    # and predicts the step kept, as the pilot at 5e-3 does
    sys = _sys("-dy^2 + dz^2 + (1+x)*(0.78*dy + 3.65*dz)",
               "-2*dy*dz + (1+x)*(-3.65*dy + 0.78*dz)")
    init = (1.0, 0.17, -0.75, 0.92, 0.35)
    traj = integrate(sys, init, 3.0, h=1e-2)
    other = integrate(sys, init, 3.0, h=5e-3)
    assert traj.error <= numerics.ERROR_BUDGET and traj.step < 2.5e-3
    assert traj.xs[-1] == 3.0
    assert np.max(np.abs(traj.states[-1] - other.states[-1])) <= 1e-7
    with pytest.raises(Blowup, match="near x = 2.23"):
        integrate(sys, init, 3.0, h=2e-2, sanity=False)


# ---------------------------------------------------------------------------
# worked cases


@pytest.mark.parametrize("case_id,expected_dim", [(1, 15), (2, 7), (3, 6)])
def test_run_example_passes(case_id, expected_dim):
    rep = run_example(case_id)
    assert isinstance(rep, CaseReport)
    assert rep.passed, rep.render()
    assert rep.dimension == expected_dim
    assert rep.residual <= 1e-5


def test_run_example_4_records_dimension_without_asserting():
    rep = run_example(4)
    assert rep.passed, rep.render()
    assert rep.expected_dimension is None
    assert rep.dimension in (6, 7, 15)
    assert any("without assertion" in n for n in rep.notes)


def _method(verdicts):
    return "numeric" if any(v.method == "numeric" for v in verdicts) \
        else "symbolic"


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_run_example_methods_come_from_the_verdicts(case_id):
    case = example_case(case_id)
    out = transform_system(case.system, case.transformation)
    target = [zero_verdict(simplify(got - want)) for got, want in
              ((out.omega1, case.expected_target.omega1),
               (out.omega2, case.expected_target.omega2))]
    want = {
        "complex-correspondence (Cauchy-Riemann) conditions":
            _method(check_cr(case.system).checks),
        "cubic coefficient conditions":
            _method(check_theorem2(extract_cubic(case.system)).checks),
        "symbolic target match": _method(target),
    }
    got = {c.name: c.method for c in run_example(case_id).checks}
    assert {k: got[k] for k in want} == want


def test_case_report_renders_dimension_as_a_check():
    rep = run_example(1)
    assert rep.checks[-1].name == "symmetry dimension"
    assert rep.passed is rep.overall is True
    d = rep.to_dict()
    assert d["checks"][-1] == {"name": "symmetry dimension", "holds": True,
                               "method": "symbolic",
                               "detail": "15 (expected 15)"}
    assert (d["example"], d["dimension"], d["expected_dimension"]) == \
        (1, 15, 15)
    assert "symmetry dimension (symbolic): 15 (expected 15)" in rep.render()


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_run_example_derives_the_first_derivatives_once(monkeypatch,
                                                         case_id):
    # the worked examples are CR systems under the exp-polar map, so
    # transform_system takes the one total derivative U'' of the scalar
    # equation, and map_trajectory none: Y' and Z' come from the map's
    # Jacobian, the same along every system
    from csalin import canon, symmetry, verify

    calls = []
    real = canon.total_derivative

    def counting(e, sys):
        calls.append(e)
        return real(e, sys)

    for module in (canon, symmetry, verify):
        if hasattr(module, "total_derivative"):
            monkeypatch.setattr(module, "total_derivative", counting)
    run_example(case_id)
    assert len(calls) == 1


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_run_example_checks_cr_once(monkeypatch, case_id):
    # run_example's own check and the complex route's guard in
    # transform_system read one report, kept on the system; the target's
    # report, which the symmetry dimension reads, is the one other
    from csalin import csa

    calls = []
    real = csa._cr_report

    def counting(sys, seed):
        calls.append((sys.ctx.independent, seed))
        return real(sys, seed)

    monkeypatch.setattr(csa, "_cr_report", counting)
    run_example(case_id, seed=5)
    assert calls == [("x", 5), ("X", 5)]


def _worked_example_outputs() -> tuple:
    """run_example(1..4) as dicts, and the four trajectories' arrays and
    errors."""
    trajectories = []
    for i in (1, 2, 3, 4):
        case = example_case(i)
        traj = integrate(case.system, case.init, case.interval[1],
                         params=case.param_values)
        trajectories.append((traj.xs, traj.states, traj.error))
    return [run_example(i).to_dict() for i in (1, 2, 3, 4)], trajectories


def test_worked_examples_do_not_depend_on_a_warm_code_cache():
    # generated code is compiled once per source and kept; a run that
    # compiles everything afresh and one that finds it compiled agree
    expr.compile_source.cache_clear()
    cold, cold_trajs = _worked_example_outputs()
    warm, warm_trajs = _worked_example_outputs()
    assert cold == warm
    for (xs, states, err), (xs2, states2, err2) in zip(cold_trajs,
                                                       warm_trajs):
        assert np.array_equal(xs, xs2) and np.array_equal(states, states2)
        assert err == err2


def test_run_example_deterministic():
    a = run_example(2, seed=0)
    b = run_example(2, seed=0)
    assert a.to_dict() == b.to_dict()


def _dimension(case, seed: int = 0) -> tuple:
    """_example_dimension of the case's own transformed target."""
    out = transform_system(case.system, case.transformation, seed=seed)
    return _example_dimension(case, out, seed)


def test_example_dimension_with_a_small_parameter():
    # 1e-5 formats as "1e-05", which the expression grammar cannot parse
    case = example_case(2)
    case.param_values = {"c1": 1e-5, "c2": 1.0}
    assert _dimension(case)[0] == 7


@pytest.mark.parametrize("c1", [1e-5, 0.1])
def test_example_dimension_on_the_safe_sub_interval(c1):
    # rho vanishes before x = 2 here, so the reduction reruns on the safe
    # sub-interval and says so in a note
    case = example_case(3)
    case.param_values = {"c1": c1, "c2": 1.0}
    dim, check, notes = _dimension(case)
    assert (dim, check.method, check.holds) == (6, "numeric", True)
    assert any("reduced on the safe sub-interval [0, 1." in n
               for n in notes)
    case = example_case(2)
    case.param_values = {"c1": c1, "c2": 1.0}
    assert _dimension(case)[0] == 7


_CLASSIFIED = "reduced-form coefficient classified as: variable coefficient, "
_RETRIES = {
    (2, "2-3"): "rescaling function crosses zero near x = 1.405; reduced on "
                "the safe sub-interval [0, 1.3338]",
    (3, "1e-5"): "rescaling function crosses zero near x = 1.912; reduced "
                 "on the safe sub-interval [0, 1.81545]",
    (3, "0.1"): "rescaling function crosses zero near x = 1.871; reduced on "
                "the safe sub-interval [0, 1.7765]",
    (3, "2-3"): "rescaling function crosses zero near x = 0.898; reduced on "
                "the safe sub-interval [0, 0.85215]",
}


@pytest.mark.parametrize("case_id", [2, 3, 4])
@pytest.mark.parametrize("values,label", list(zip(VARIANTS, VARIANT_IDS)),
                         ids=VARIANT_IDS)
def test_example_dimension_under_each_variant(case_id, values, label):
    # a constant a3 (examples 2 and 4, and 3 at unit values) ends in a
    # closed-form beta, classified on the image of the reduction interval:
    # 2 and 4 are rational and decided exactly (with c1 = c2, example 2's
    # a3 is 0 and beta the constant c1^2/2); example 3's beta holds atan,
    # and a jet of |beta|^(-1/2) decides it, or is a table, and takes
    # collocation.  A retry note names where rho crosses zero and the safe
    # sub-interval the chain reran on
    case = example_case(case_id)
    case.param_values = values
    dim, check, notes = _dimension(case)
    want = 6 if case_id == 3 else 7
    assert (dim, check.holds) == (want, True)
    table = case_id == 3 and label != "unit"
    assert check.method == ("numeric" if table else "symbolic")
    retry = _RETRIES.get((case_id, label))
    classified = "reduced-form coefficient classified as: nonzero " \
        "constant coefficient" if (case_id, label) == (2, "unit") \
        else f"{_CLASSIFIED}{want}-dimensional"
    proof = [n for n in notes if n.startswith("q = |beta|^(-1/2) is no ")]
    assert len(proof) == (case_id == 3 and not table)
    assert notes == [retry] * (retry is not None) + [classified] + proof


def test_example_4_is_decided_exactly():
    # beta = 1/(1 - X^2)^2 on the image [0, tanh 2] of [0, 2]: |beta|^-1/2
    # = 1 - X^2, a polynomial of degree 2
    rep = run_example(4)
    assert rep.dimension == 7
    assert rep.checks[-1].method == "symbolic"


# the linear forms of the worked examples as they were written by hand,
# (kind, first coefficient, second) in x, c1 and c2; example 1 went
# straight to beta = 0, which a3 = a4 = 0 reduces to
HAND_BUILT = {
    1: ("zero_order", "0", "0"),
    2: ("first_order", "c1", "c2"),
    3: ("first_order", "c1*(1+x)", "c2*(1+x)"),
    4: ("zero_order", "c1", "c2"),
}


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
@pytest.mark.parametrize("values", [
    {"c1": 1.0, "c2": 1.0}, {"c1": 2.0, "c2": 3.0}, {"c1": 1e-5, "c2": 0.1},
], ids=["unit", "2-3", "small"])
def test_the_form_read_off_the_target_is_the_hand_built_one(case_id,
                                                            values):
    case = example_case(case_id)
    out = transform_system(case.system, case.transformation)
    verdicts = []
    lf = _target_form(out, values, 0, verdicts)
    kind, *want = HAND_BUILT[case_id]
    assert lf.kind == kind
    ctx = VarContext(parameters=frozenset(values))
    bound = {name: C(Fraction(v)) for name, v in values.items()}
    for got, text in zip(lf.coeffs.values(), want):
        assert got.kind == "symbolic" and got.var == "X"
        diff = substitute(got.expr, {"X": sym("x")}) \
            - substitute(parse(text, ctx), bound)
        assert zero_verdict(diff) == ZeroVerdict(True, "symbolic")
    assert all(v.method == "symbolic" for v in verdicts)


def test_the_dimension_follows_the_transformed_target():
    # example 4 with its constant forcing dropped: the bare geodesic system
    # maps to Y'' = Z'' = 0, the free particle, with 15 symmetries (the
    # hand-built form of example 4 said 7 whatever the target was)
    case = example_case(4)
    case.system = _geodesic_system(case.system.ctx, "0", "0")
    out = transform_system(case.system, case.transformation)
    assert out.omega1 == ZERO and out.omega2 == ZERO
    dim, check, notes = _example_dimension(case, out, 0)
    assert (dim, check.holds, check.method) == (15, True, "symbolic")
    assert notes == ["reduced-form coefficient classified as: coefficient "
                     "identically zero"]


def _target(case, omega1: str, omega2: str) -> OdeSystem2:
    nctx = case.transformation.new_ctx
    return OdeSystem2(nctx, parse(omega1, nctx), parse(omega2, nctx))


def test_a_dimension_decided_by_a_sampled_verdict_is_numeric(monkeypatch):
    # example 4's form and its rational beta are decided symbolically; a
    # closed-form beta whose beta' = 0 was sampled makes the check
    # numeric, though it took no collocation
    from csalin import verify
    from csalin.symmetry import classify_beta

    case = example_case(4)
    assert _dimension(case)[1].method == "symbolic"
    sampled = classify_beta("sin(2*x) - 2*sin(x)*cos(x) + 3")
    assert (sampled.method, sampled.rank_report) == ("numeric", None)
    monkeypatch.setattr(verify, "classify_beta", lambda *a, **k: sampled)
    dim, check, notes = _dimension(case)
    assert (dim, check.holds, check.method) == (7, True, "numeric")
    assert notes == ["reduced-form coefficient classified as: nonzero "
                     "constant coefficient"]


@pytest.mark.parametrize("target,detail", [
    # the free particle under e^u: (Y^2 + Z^2)^-1 in every term
    (None, "target omega1 is not polynomial in Y, Z, Y', Z': variable "
           "inside (Z^2 + Y^2)^-1"),
    (("Y'", "0"), "target fails d(omega1)/dY' = d(omega2)/dZ'"),
    (("-Y'^2 + Z'^2", "-2*Y'*Z'"), "target omega1 is not linear in Y, Z, "
     "Y', Z': it holds the monomial Y'^2"),
    (("c1*Y - c2*Z + 1", "c2*Y + c1*Z"), "target omega1 is not linear in "
     "Y, Z, Y', Z': it holds the monomial 1"),
    (("Y' + Y", "Z' + Z"), "target has both zeta = a1 + i a2 and eta = "
     "a3 + i a4 nonzero, which no reduction takes"),
], ids=["not-polynomial", "not-cr", "quadratic", "forced", "zeta-and-eta"])
def test_a_target_that_is_no_linear_form_fails_the_dimension_check(target,
                                                                    detail):
    case = example_case(4)
    if target is None:
        free = OdeSystem2(case.system.ctx, ZERO, ZERO)
        out = transform_system(free, case.transformation)
    else:
        out = _target(case, *target)
    dim, check, notes = _example_dimension(case, out, 0)
    assert dim is None and notes == []
    assert (check.name, check.holds, check.detail) == (
        "symmetry dimension", False, detail)


def test_example_case_metadata():
    c = example_case(2)
    assert c.param_values == {"c1": 1.0, "c2": 1.0}
    assert c.expected_dimension == 7
    with pytest.raises(ValueError):
        example_case(5)


def test_a_case_report_lists_its_discarded_pilots():
    rep = CaseReport(title="example 0", integration_error=5e-10,
                     trajectory_step=0.003,
                     pilots=((0.05, None), (0.0125, 2e-6)))
    assert rep.to_dict()["trajectory_pilots"] == [
        {"step": 0.05, "error": None}, {"step": 0.0125, "error": 2e-6}]
    assert rep.render().endswith(
        "trajectory step-doubling error: 5.000e-10 at step 0.003 "
        "(discarded: escaped at step 0.05, 2.000e-06 at step 0.0125)")
    assert "discarded" not in CaseReport(title="example 0").render()
