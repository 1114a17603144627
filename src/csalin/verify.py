"""Numeric trajectory engine and the worked-example corpus.

Integrates systems, pushes trajectories through point transformations,
measures how well the transformed trajectory satisfies a target system,
and reproduces the four nonlinear geodesic-type applications end to end.
A trajectory's step comes from the error budget of `rk4_checked`, which
refines a coarse pilot of `PILOT_STEPS` steps of the span.  The residual
differentiates along the trajectory's rows with a finite-difference
stencil, so nothing interpolates the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .canon import (
    CoefficientFn, LinearForm, PointTransformation, RhoVanishes,
    reduce_chain, transform_system,
)
from .csa import check_cr
from .cubic import OdeSystem2, extract_cubic, check_theorem2
from .expr import (
    C, ExprError, EvalDomainError, NotPolynomial, VarContext, ZERO,
    coefficients_in, compile_rows, parse, simplify, substitute, to_string,
    zero_verdict,
)
from .numerics import (
    ERROR_BUDGET, ESCAPE_REFINE, MAX_STEPS, Blowup, DomainError, Field,
    require_accuracy, rk4, rk4_checked, row_derivative,
)
# re-exported: integrate raises it
from .numerics import InaccurateIntegration as InaccurateIntegration
from .reports import ConditionCheck, ConditionReport
from .symmetry import Q3_CERTIFICATE, classify_beta


class NonMonotone(ExprError):
    """The transformed independent variable is not monotone."""


class ShortTrajectory(ExprError):
    """A trajectory with fewer rows than the residual's stencil spans."""


@dataclass(eq=False)
class Trajectory:
    """A sampled numeric solution of a system of two second-order ODEs."""

    xs: np.ndarray
    states: np.ndarray  # columns: y, z, y', z'
    step: float  # the h of the run kept
    error: float | None = None  # h vs 2h max-norm difference, if checked
    # (step, error) of each checked run discarded for the one kept, in
    # order; error None where the run escaped
    pilots: tuple = ()


_BOUND = 1e8  # the trusted range of a state component

# integrate's pilot step: the span over PILOT_STEPS, an even count that
# checked_grid keeps, which rk4_checked refines to the step the error
# budget asks for (the worked examples keep 108 to 250 steps), and at most
# MAX_PILOT_STEP: for y'' = -y on [0, 1000], span/24 = 41.7 leaves RK4's
# stability region, and so does the escape rerun at a quarter of it
PILOT_STEPS = 24
MAX_PILOT_STEP = 0.05


def _names(ctx: VarContext) -> tuple:
    """ctx's variables in the order of a trajectory row: the independent
    variable, the dependents, then their first derivatives."""
    return (ctx.independent, *ctx.dependents, *ctx.first_derivatives)


def _numeric_rhs(sys: OdeSystem2, params: dict | None = None) -> Field:
    """First-order vector field of the system for RK4, with omega1, omega2
    and the parameter values inlined into its loop.

    The loop raises Blowup when a state is not finite or exceeds 1e8 in
    max norm, and DomainError when the right-hand side is undefined there.
    """
    symbols = dict(zip(_names(sys.ctx), ("t", "s0", "s1", "s2", "s3")))
    symbols.update((name, float(v)) for name, v in (params or {}).items())
    return Field(symbols, (sys.omega1, sys.omega2), ("s2", "s3", "v0", "v1"),
                 _BOUND)


def integrate(sys: OdeSystem2, init, x_end: float, h: float | None = None,
              params: dict | None = None, sanity: bool = True) -> Trajectory:
    """RK4 trajectory from init = (x0, y0, z0, y0', z0') to x_end.

    x_end may lie before x0.  With sanity, h is the largest step that
    `rk4_checked` takes, a re-integration at twice the step must agree to
    1e-7 in max norm on the shared grid points, and the disagreement is
    kept as the trajectory's error; without, RK4 runs at h unchecked, and
    h must be given.

    h defaults to a coarse pilot, the span over PILOT_STEPS and at most
    MAX_PILOT_STEP, whose step rk4_checked refines to the error budget.
    Where that pilot and its escape rerun both escape, the run starts
    again from a pilot ESCAPE_REFINE^2 finer; where the run kept still
    misses ERROR_BUDGET (on a long span, the predicted step would take
    more than MAX_STEPS steps), it reruns once on MAX_STEPS steps, the
    finest grid allowed.  The (step, error) of each run discarded is kept
    as the trajectory's pilots.
    """
    x0, *state0 = init
    span = abs(x_end - x0)
    default = h is None
    if default:
        if not sanity:
            raise ValueError("integrate with sanity=False needs a step h")
        h = min(span / PILOT_STEPS, MAX_PILOT_STEP) or MAX_PILOT_STEP
    f = _numeric_rhs(sys, params)
    args = (f, float(x0), np.array(state0, dtype=float), float(x_end))
    pilots = []
    if sanity:
        try:
            xs, states, err, h = rk4_checked(*args, h, pilots)
        except Blowup:
            # the pilot and its escape rerun both escaped: once more from a
            # pilot ESCAPE_REFINE^2 finer, which rk4_checked quarters again
            # where it escapes
            fine = h / ESCAPE_REFINE ** 2
            if not default or span / fine > MAX_STEPS:
                raise
            xs, states, err, h = rk4_checked(*args, fine, pilots)
        if default and err > ERROR_BUDGET:
            finest = span / MAX_STEPS
            while span / finest > MAX_STEPS:  # span / MAX_STEPS rounded down
                finest = math.nextafter(finest, math.inf)
            if finest < h:
                pilots.append((h, err))
                xs, states, err, h = rk4_checked(*args, finest, pilots)
    else:
        (xs, states), err = rk4(*args, h), None
    if not np.all(np.abs(states[-1]) <= _BOUND):  # the loop checks stages
        raise Blowup(f"state escaped near x = {xs[-1]:.6g}")
    if err is not None:
        require_accuracy(err)
    return Trajectory(xs, states, h, err, tuple(pilots))


def map_trajectory(traj: Trajectory, T: PointTransformation,
                   params: dict | None = None):
    """Push trajectory samples through T, including first derivatives.

    Returns (X, Y, Z, Y', Z') arrays in the new variables.  Y' and Z' are
    T's `first_derivatives` in T's own names, which bind the trajectory's
    columns (x, y, z, y', z'); DxXZero is raised where chi' = dX/dx
    vanishes.
    """
    FY, FZ = T.first_derivatives(*T.ctx.first_derivatives)
    rows = compile_rows((T.X, T.Y, T.Z, FY, FZ), _names(T.ctx), params)
    try:
        cols = rows(traj.xs.tolist(), *traj.states.T.tolist())
    except EvalDomainError as exc:
        raise DomainError(f"transformation undefined near x = "
                          f"{exc.row[0]:.6g}: {exc}") from exc
    return tuple(np.array(cols))


def residual_on_trajectory(traj: Trajectory, target: OdeSystem2,
                           T: PointTransformation,
                           params: dict | None = None) -> float:
    """Max defect of the mapped trajectory against the target system.

    Second derivatives are Y'' = D(Y')/D(X) and Z'' = D(Z')/D(X), with D
    the row stencil `numerics.row_derivative` over the trajectory's row
    index: the ratio is the derivative in X, so no step size enters.  The
    stencil leaves out three rows at each end, and a trajectory of fewer
    than 7 rows raises ShortTrajectory.
    """
    if len(traj.xs) < 7:
        raise ShortTrajectory(
            f"the residual needs a trajectory of at least 7 rows, got "
            f"{len(traj.xs)}")
    X, Y, Z, Yp, Zp = map_trajectory(traj, T, params)
    d = np.diff(X)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise NonMonotone("transformed independent variable is not "
                          "strictly monotone along the trajectory")
    dX = row_derivative(X)
    ypp, zpp = row_derivative(Yp) / dX, row_derivative(Zp) / dX
    sl = slice(3, len(X) - 3)
    rows = compile_rows((target.omega1, target.omega2), _names(target.ctx),
                        params)
    w1, w2 = rows(*(c[sl].tolist() for c in (X, Y, Z, Yp, Zp)))
    # a NaN defect makes the residual NaN, which fails every bound
    defects = np.abs(ypp - w1) + np.abs(zpp - w2)
    return float(defects.max())


# ---------------------------------------------------------------------------
# the worked-example corpus


@dataclass(eq=False)
class ExampleCase:
    id: int
    system: OdeSystem2
    transformation: PointTransformation
    expected_target: OdeSystem2
    expected_dimension: int | None
    interval: tuple
    init: tuple
    param_values: dict


def _geodesic_system(ctx: VarContext, om1: str, om2: str) -> OdeSystem2:
    base1 = parse("-dy^2 + dz^2", ctx)
    base2 = parse("-2*dy*dz", ctx)
    return OdeSystem2(ctx, simplify(base1 + parse(om1, ctx)),
                      simplify(base2 + parse(om2, ctx)))


def example_case(case_id: int) -> ExampleCase:
    """The four geodesic-type applications, with symbolic constants."""
    params = frozenset({"c1", "c2"})
    values = {"c1": 1.0, "c2": 1.0}
    if case_id == 1:
        ctx = VarContext()
        sysx = _geodesic_system(ctx, "-(2/x)*dy", "-(2/x)*dz")
        T = PointTransformation(ctx, parse("1/x", ctx),
                                parse("exp(y)*cos(z)", ctx),
                                parse("exp(y)*sin(z)", ctx))
        target = OdeSystem2(T.new_ctx, ZERO, ZERO)
        return ExampleCase(1, sysx, T, target, 15, (1.0, 2.0),
                           (1.0, 0.0, 0.0, 0.1, 0.1), {})
    ctx = VarContext(parameters=params)
    if case_id == 2:
        sysx = _geodesic_system(ctx, "c1*dy - c2*dz", "c2*dy + c1*dz")
    elif case_id == 3:
        sysx = _geodesic_system(ctx, "(1+x)*(c1*dy - c2*dz)",
                                "(1+x)*(c2*dy + c1*dz)")
    elif case_id == 4:
        sysx = _geodesic_system(ctx, "c1", "c2")
    else:
        raise ValueError(f"unknown example id {case_id}")
    T = PointTransformation(ctx, parse("x", ctx),
                            parse("exp(y)*cos(z)", ctx),
                            parse("exp(y)*sin(z)", ctx))
    nctx = T.new_ctx
    if case_id == 2:
        t1 = parse("c1*Y' - c2*Z'", nctx)
        t2 = parse("c2*Y' + c1*Z'", nctx)
        dim = 7
    elif case_id == 3:
        t1 = parse("(1+X)*(c1*Y' - c2*Z')", nctx)
        t2 = parse("(1+X)*(c2*Y' + c1*Z')", nctx)
        dim = 6
    else:
        t1 = parse("c1*Y - c2*Z", nctx)
        t2 = parse("c2*Y + c1*Z", nctx)
        dim = None  # recorded, not asserted
    target = OdeSystem2(nctx, simplify(t1), simplify(t2))
    return ExampleCase(case_id, sysx, T, target, dim, (0.0, 1.0),
                       (0.0, 0.0, 0.0, 0.1, 0.1), values)


@dataclass(frozen=True)
class CaseReport(ConditionReport):
    """Verdicts of one worked example; the symmetry dimension is its last
    check.  `integration_error` is the trajectory's step-doubling
    (Richardson) error behind `residual`, at the step `trajectory_step`;
    `pilots` holds the trajectory's discarded runs as (step, error)."""

    example_id: int = 0
    dimension: int | None = None
    expected_dimension: int | None = None
    residual: float = 0.0
    integration_error: float = 0.0
    trajectory_step: float = 0.0
    pilots: tuple = ()

    passed = ConditionReport.overall

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "example": self.example_id,
            "passed": self.overall,
            "dimension": self.dimension,
            "expected_dimension": self.expected_dimension,
            "trajectory_residual": self.residual,
            "integration_error": self.integration_error,
            "trajectory_step": self.trajectory_step,
            "trajectory_pilots": [{"step": step, "error": err}
                                  for step, err in self.pilots],
        }

    def render(self) -> str:
        line = "trajectory step-doubling error: " \
            f"{self.integration_error:.3e} at step {self.trajectory_step:.3g}"
        if self.pilots:
            line += " (discarded: " + ", ".join(
                ("escaped" if err is None else f"{err:.3e}")
                + f" at step {step:.3g}" for step, err in self.pilots) + ")"
        return super().render() + "\n  " + line


def _method(verdicts) -> str:
    """Method of a check decided by several verdicts: numeric as soon as
    any one of them fell back to sampling."""
    return "numeric" if any(v.method == "numeric" for v in verdicts) \
        else "symbolic"


class _NoLinearForm(ExprError):
    """A transformed target that is no linear form the chain reduces."""


def _target_form(out: OdeSystem2, values: dict, seed: int,
                 verdicts: list) -> LinearForm:
    """Read U'' = zeta U' + eta U off the transformed target `out`, with
    its parameters bound to values, as the zero_order form (a3, a4) = eta
    where zeta = 0, else as the first_order form (a1, a2) = zeta where
    eta = 0.  a1 and a2 are the Y' coefficients of omega1 and omega2, a3
    and a4 their Y coefficients; the CR conditions, which must hold, give
    the Z and Z' ones.  Appends the verdicts it decides by to `verdicts`
    and raises _NoLinearForm, naming the failed condition or the
    offending monomial, where out is no such form."""
    cr = check_cr(out, seed=seed)
    verdicts.extend(cr.checks)
    if not cr.overall:
        raise _NoLinearForm(f"target fails {cr.failing()[0].name}")
    names = (*out.ctx.dependents, *out.ctx.first_derivatives)
    bound = {name: C(Fraction(v)) for name, v in values.items()}
    # the coefficients of Y and Y' in omega1 and in omega2
    eta, zeta = [], []
    for i, w in enumerate((out.omega1, out.omega2), 1):
        try:
            groups = coefficients_in(substitute(w, bound), names)
        except NotPolynomial as exc:
            raise _NoLinearForm(f"target omega{i} is not polynomial in "
                                f"{', '.join(names)}: {exc}") from None
        for sig in groups:
            if sum(sig) != 1:
                mono = "*".join(n if k == 1 else f"{n}^{k}"
                                for n, k in zip(names, sig) if k) or "1"
                raise _NoLinearForm(
                    f"target omega{i} is not linear in {', '.join(names)}: "
                    f"it holds the monomial {mono}")
        eta.append(groups.get((1, 0, 0, 0), ZERO))
        zeta.append(groups.get((0, 0, 1, 0), ZERO))
    zero = [zero_verdict(e, seed=seed) for e in (*zeta, *eta)]
    verdicts.extend(zero)
    if all(zero[:2]):
        kind, slots, read = "zero_order", ("a3", "a4"), eta
    elif all(zero[2:]):
        kind, slots, read = "first_order", ("a1", "a2"), zeta
    else:
        raise _NoLinearForm("target has both zeta = a1 + i a2 and eta = "
                            "a3 + i a4 nonzero, which no reduction takes")
    return LinearForm(kind, {
        slot: CoefficientFn.symbolic(e, var=out.ctx.independent)
        for slot, e in zip(slots, read)})


def _example_dimension(case: ExampleCase, out: OdeSystem2, seed: int):
    """The symmetry dimension of `out`, the example's transformed target:
    its linear form carried down the reduction chain and classified.
    Returns (dimension, check, notes); a target that is no linear form
    fails the check, with dimension None.  Where the rescaling function
    vanishes before x = 2, the chain reruns on the first 95% of its safe
    sub-interval and a note names it.  beta is classified on the image of
    the reduction interval under the last rescaling, 2% in from each end:
    the interval itself where the rescaling is the identity.  A dimension
    that interval jets decided adds their q''' certificate as a note.  The
    check is numeric where a verdict on the form or the classification
    is."""
    verdicts = []
    try:
        lf = _target_form(out, case.param_values, seed, verdicts)
    except _NoLinearForm as exc:
        return None, ConditionCheck("symmetry dimension", False,
                                    _method(verdicts), str(exc)), []
    notes = []
    lo, hi = 0.0, 2.0
    try:
        last = reduce_chain(lf, (lo, hi))[-1]
    except RhoVanishes as exc:
        lo, hi = exc.safe_interval
        # the new variable, the integral of rho^-2, diverges at the
        # crossing: stopping 5% short keeps its RK4 error within 1e-7
        hi = lo + 0.95 * (hi - lo)
        last = reduce_chain(lf, (lo, hi))[-1]
        notes.append(f"rescaling function crosses zero near x = "
                     f"{exc.crossing:.6g}; reduced on the safe sub-interval "
                     f"[{lo:.6g}, {hi:.6g}]")
    beta, new_var = last.form["beta"], last.new_var
    if new_var.kind == "tabulated":
        lo, hi = new_var.values[0], new_var.values[-1]
    pad = 0.02 * (hi - lo)
    cls = classify_beta(beta, (lo + pad, hi - pad), seed=seed)
    notes.append(f"reduced-form coefficient classified as: {cls.case_label}")
    # a q''' certificate is the whole evidence of a dimension it decides
    notes += [n for n in cls.notes if n.startswith(Q3_CERTIFICATE)]
    dim, expected = cls.dimension, case.expected_dimension
    return dim, ConditionCheck(
        "symmetry dimension", expected is None or dim == expected,
        _method([*verdicts, cls]),
        f"{dim}" + ("" if expected is None else f" (expected {expected})")
    ), notes


def run_example(case_id: int, seed: int = 0) -> CaseReport:
    """End-to-end reproduction of one worked example.

    Checks the complex-correspondence conditions, the symbolic
    transformation target, the numeric trajectory residual, and the
    symmetry dimension of the reduced form.
    """
    case = example_case(case_id)
    checks = []
    notes = []

    cr = check_cr(case.system, seed=seed)
    checks.append(ConditionCheck(
        "complex-correspondence (Cauchy-Riemann) conditions", cr.overall,
        _method(cr.checks), "" if cr.overall else cr.failing()[0].name))

    t2 = check_theorem2(extract_cubic(case.system), seed=seed)
    checks.append(ConditionCheck(
        "cubic coefficient conditions", t2.overall, _method(t2.checks),
        "" if t2.overall else t2.failing()[0].name))

    out = transform_system(case.system, case.transformation, seed=seed)
    verdicts = [zero_verdict(got - want, seed=seed) for got, want in
                ((out.omega1, case.expected_target.omega1),
                 (out.omega2, case.expected_target.omega2))]
    match = all(v.is_zero for v in verdicts)
    detail = "" if match else (
        f"got ({to_string(out.omega1)}, {to_string(out.omega2)})")
    checks.append(ConditionCheck("symbolic target match", match,
                                 _method(verdicts), detail))

    traj = integrate(case.system, case.init, case.interval[1],
                     params=case.param_values)
    res = residual_on_trajectory(traj, case.expected_target,
                                 case.transformation,
                                 params=case.param_values)
    checks.append(ConditionCheck("trajectory residual <= 1e-5",
                                 res <= 1e-5, "numeric",
                                 f"residual = {res:.3e}"))

    dim, dim_check, dim_notes = _example_dimension(case, out, seed)
    checks.append(dim_check)
    notes.extend(dim_notes)
    expected = case.expected_dimension
    if expected is None:
        notes.append("no dimension value is stated for this case; the "
                     "classifier output is recorded without assertion")
    return CaseReport(title=f"example {case_id}", checks=tuple(checks),
                      notes=tuple(notes), example_id=case_id, dimension=dim,
                      expected_dimension=expected, residual=res,
                      integration_error=traj.error,
                      trajectory_step=traj.step, pilots=traj.pilots)
