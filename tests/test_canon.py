"""Canonical-form machinery: transformations, reductions, equivalence."""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from csalin import canon
from csalin.canon import (
    CoefficientFn, DxXZero, EquivalenceVerdict, LinearForm, MDegenerate,
    NonInvertible, PointTransformation, PoleInInterval, RhoVanishes,
    attempt_linear_equivalence, reduce_24_to_25, reduce_25_to_28,
    reduce_chain, reduce_optimal, transform_system,
)
from csalin.csa import check_cr, realify
from csalin.cubic import OdeSystem2
from csalin.expr import (
    C, UndeclaredSymbol, VarContext, ZERO, ZeroVerdict, free_symbols, neg,
    parse, simplify, substitute, sym, to_string, zero_verdict,
)
from csalin.numerics import (
    ERROR_BUDGET, Blowup, Field, InaccurateIntegration, checked_grid,
    rk4_checked,
)
from csalin.symmetry import classify_beta
from csalin.verify import example_case, integrate, residual_on_trajectory
from exprgen import fixed_step_error, roundtrip_residual

CTX = VarContext()


def _sys(o1: str, o2: str, ctx=CTX) -> OdeSystem2:
    return OdeSystem2(ctx, parse(o1, ctx), parse(o2, ctx))


def _exp_polar(ctx, chi: str) -> PointTransformation:
    return PointTransformation(ctx, parse(chi, ctx),
                               parse("exp(y)*cos(z)", ctx),
                               parse("exp(y)*sin(z)", ctx))


# ---------------------------------------------------------------------------
# transform_system


def test_transform_worked_system_to_free_particle():
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")
    out = transform_system(s, _exp_polar(CTX, "1/x"))
    assert out.omega1 == ZERO and out.omega2 == ZERO


def test_transform_constant_coefficient_case():
    ctx = VarContext(parameters=frozenset({"c1", "c2"}))
    s = _sys("-dy^2 + dz^2 + c1*dy - c2*dz", "-2*dy*dz + c2*dy + c1*dz", ctx)
    out = transform_system(s, _exp_polar(ctx, "x"))
    nctx = out.ctx
    w1 = parse("c1*Y' - c2*Z'", nctx)
    w2 = parse("c2*Y' + c1*Z'", nctx)
    assert zero_verdict(simplify(out.omega1 - w1)).is_zero
    assert zero_verdict(simplify(out.omega2 - w2)).is_zero


def test_transform_identity():
    s = _sys("x*dy + y", "z^2")
    out = transform_system(s, PointTransformation.identity(CTX))
    assert zero_verdict(simplify(out.omega1 - s.omega1)).is_zero
    assert zero_verdict(simplify(out.omega2 - s.omega2)).is_zero


def test_transform_affine_rescaling():
    # y = e^x Y  <->  Y = e^-x y turns the free particle into a damped form
    ctx = VarContext()
    s = _sys("0", "0", ctx)
    T = PointTransformation(ctx, parse("x", ctx),
                            parse("exp(-x)*y", ctx), parse("exp(-x)*z", ctx))
    out = transform_system(s, T)
    nctx = out.ctx
    w1 = parse("2*Y' + Y", nctx)
    assert zero_verdict(simplify(out.omega1 + w1)).is_zero


def test_transform_dxx_zero():
    s = _sys("0", "0")
    with pytest.warns(UserWarning, match="singular"):
        T = PointTransformation(CTX, C(3), sym("y"), sym("z"))
    with pytest.raises(DxXZero):
        transform_system(s, T)


def test_one_transformation_carries_each_system_it_is_given():
    # a transformation keeps the first derivatives of the last system
    # only: reused on a system that names y' and z' otherwise, it derives
    # that system's afresh
    pq = VarContext(first_derivatives=("p", "q"))
    a = _sys("-y'^2 + z'^2 - (2/x)*y'", "-2*y'*z' - (2/x)*z'")
    b = _sys("-p^2 + q^2 - (2/x)*p", "-2*p*q - (2/x)*q", pq)
    T = _exp_polar(CTX, "1/x")
    for s in (a, b, a, b):
        got = transform_system(s, T)
        assert got.omega1 == got.omega2 == ZERO


def test_singular_map_warns():
    # Y and Z are the same function of (y, z): det J = 0 everywhere
    with pytest.warns(UserWarning, match="singular"):
        PointTransformation(CTX, sym("x"), parse("y + z", CTX),
                            parse("2*y + 2*z", CTX))


def test_singular_map_warning_names_the_callers_file():
    with pytest.warns(UserWarning, match="singular") as record:
        PointTransformation(CTX, sym("x"), parse("y + z", CTX),
                            parse("2*y + 2*z", CTX))
    assert record[0].filename == __file__


def test_a_tiny_but_nonzero_jacobian_does_not_warn():
    # det J = 1e-13 is not zero: the map is invertible, if badly scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T = PointTransformation(CTX, sym("x"), sym("y"),
                                C(Fraction(1, 10 ** 13)) * sym("z"))
    assert T.det == C(Fraction(1, 10 ** 13))


@pytest.mark.parametrize("X,Y,Z", [("x + y", "y", "z"), ("x*z", "y", "z"),
                                   ("x", "y + y'", "z"), ("x", "y", "dz")])
def test_a_map_that_is_no_point_transformation_is_refused(X, Y, Z):
    # X = chi(x), and Y, Z hold no derivative: refused where it is built
    with pytest.raises(NonInvertible, match="old (independent variable "
                       "only|derivatives)"):
        PointTransformation(CTX, *(parse(e, CTX) for e in (X, Y, Z)))


def test_jacobian_is_computed_once_where_the_map_is_built():
    T = PointTransformation(CTX, parse("1/x", CTX),
                            parse("exp(x)*y + x*z + x^2", CTX),
                            parse("z - y", CTX))
    (a, b), (c, d) = T.jacobian
    for got, want in ((T.chi_prime, "-1/x^2"), (a, "exp(x)"), (b, "x"),
                      (c, "-1"), (d, "1"), (T.det, "exp(x) + x"),
                      (T.x_partials[0], "exp(x)*y + z + 2*x"),
                      (T.x_partials[1], "0")):
        assert zero_verdict(simplify(got - parse(want, CTX))).is_zero
    Yp, Zp = T.first_derivatives("p", "q")
    want = parse("-x^2*(exp(x)*y + z + 2*x + exp(x)*p + x*q)",
                 VarContext(first_derivatives=("p", "q")))
    assert zero_verdict(simplify(Yp - want)).is_zero


_COEFFS = ("x", "1 + x^2/2", "exp(-x/2)", "cos(x)", "x^2 - x")


def _random_affine_map(rng: random.Random) -> PointTransformation:
    """Y = a y + b z + f, Z = c y + d z + g with a, d, f, g functions of x
    and b, c constants, |ad - bc| > 0.1 on [1, 1.5], and X = p x + q or the
    Moebius X = p + q/x."""
    def draw(pool):
        k = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
        return f"({k})*({rng.choice(pool)})"

    ts = np.linspace(1.0, 1.5, 11)
    while True:
        a, d, f, g = (draw(_COEFFS) for _ in range(4))
        b, c = (draw(("0", "1")) for _ in range(2))
        det = CoefficientFn.symbolic(f"{a}*{d} - {b}*{c}")(ts)
        if np.min(np.abs(det)) > 0.1:
            break
    p, q = (Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
            for _ in range(2))
    X = f"({p})*x + ({q})" if rng.random() < 0.5 else f"({p}) + ({q})/x"
    return PointTransformation(CTX, parse(X, CTX),
                               parse(f"{a}*y + {b}*z + {f}", CTX),
                               parse(f"{c}*y + {d}*z + {g}", CTX))


def test_seeded_affine_maps_carry_a_non_cr_system():
    # the transformed system is checked on a trajectory of the original,
    # pushed through the map: no step of transform_system is trusted
    s = _sys("y*dz - x*z + dy^2/4", "x*dy + y^2 - z")
    assert not check_cr(s).overall
    traj = integrate(s, (1.0, 0.2, -0.1, 0.3, 0.1), 1.5)
    rng = random.Random(2401)
    for _ in range(8):
        T = _random_affine_map(rng)
        target = transform_system(s, T)
        assert residual_on_trajectory(traj, target, T) <= 1e-6, \
            (T.X, T.Y, T.Z)


@pytest.mark.parametrize("case_id", [1, 2, 3, 4])
def test_example_maps_do_not_warn(case_id):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        example_case(case_id)


def test_transform_unsupported_family():
    s = _sys("0", "0")
    T = PointTransformation(CTX, sym("x"), parse("sin(y)", CTX),
                            parse("cos(z)", CTX))
    with pytest.raises(NonInvertible):
        transform_system(s, T)


def test_transform_explicit_inverse_escape_hatch():
    ctx = VarContext()
    T = PointTransformation(
        ctx, parse("x", ctx), parse("y^3", ctx), parse("z", ctx),
        inverse={"x": sym("X"), "y": parse("Y^(1/3)", _new()),
                 "z": sym("Z")})
    out = transform_system(_sys("0", "0"), T)
    # Y = y^3 with y'' = 0 gives Y'' = 6 y y'^2 = (2/3) Y'^2 / Y
    w1 = parse("(2/3)*Y'^2/Y", _new())
    assert zero_verdict(simplify(out.omega1 - w1)).is_zero


def _new() -> VarContext:
    return VarContext("X", ("Y", "Z"), ("Y'", "Z'"), ("Y''", "Z''"))


def test_transform_roundtrip_on_trajectory():
    ctx = VarContext()
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz", ctx)
    T = _exp_polar(ctx, "1/x")
    target = transform_system(s, T)
    traj = integrate(s, (1.0, 0.0, 0.0, 0.1, 0.1), 2.0)
    assert residual_on_trajectory(traj, target, T) <= 1e-6


# ---------------------------------------------------------------------------
# the scalar complex route of transform_system


def _same_system(got: OdeSystem2, want: OdeSystem2) -> bool:
    return (to_string(got.omega1), to_string(got.omega2)) == \
        (to_string(want.omega1), to_string(want.omega2))


def _complex_poly(rng: random.Random) -> tuple:
    """A complex polynomial in x of degree <= 2 with small integer
    coefficients, as (real, imaginary) parts."""
    return tuple(parse(" + ".join(f"({rng.randint(-3, 3)})*x^{k}"
                                  for k in range(3)), CTX)
                 for _ in range(2))


@pytest.mark.parametrize("chi", ["x", "1/x", "2*x + 1"])
def test_complex_route_agrees_with_the_real_route(chi):
    # u'' = -u'^2 + a(x) u' + b(x): under U = e^u the scalar route and
    # the real pair must give the same system, decided symbolically
    rng = random.Random(2501)
    T = _exp_polar(CTX, chi)
    for _ in range(5):
        a, b = _complex_poly(rng), _complex_poly(rng)
        s = realify((ZERO, ZERO), (C(1), ZERO),
                    tuple(neg(e) for e in a), tuple(neg(e) for e in b))
        got = canon._complex_route(s, T, 0)
        assert got is not None
        assert _same_system(transform_system(s, T), got)
        want = canon._real_route(s, T, 0)
        for g, w in ((got.omega1, want.omega1), (got.omega2, want.omega2)):
            v = zero_verdict(simplify(g - w))
            assert (v.is_zero, v.method) == (True, "symbolic"), \
                (to_string(g), to_string(w))


def test_complex_route_names_collide_with_no_parameter():
    # parameters named i and u are real constants to the scalar route
    ctx = VarContext(parameters=frozenset({"i", "u"}))
    s = _sys("-dy^2 + dz^2 + i*dy - u*dz", "-2*dy*dz + u*dy + i*dz", ctx)
    T = _exp_polar(ctx, "x")
    out = canon._complex_route(s, T, 0)
    assert out is not None
    nctx = out.ctx
    for got, want in ((out.omega1, "i*Y' - u*Z'"),
                      (out.omega2, "u*Y' + i*Z'")):
        assert zero_verdict(simplify(got - parse(want, nctx))).is_zero


@pytest.mark.parametrize("omega", [
    # a u'^3 term leaves i in the denominator (Y + i Z)^-2
    ("dy^3 - 3*dy*dz^2 - dy^2 + dz^2", "3*dy^2*dz - dz^3 - 2*dy*dz"),
    # not CR
    ("dy^2", "dz"),
])
def test_complex_route_falls_back_to_the_real_route(omega):
    s = _sys(*omega)
    T = _exp_polar(CTX, "x")
    assert canon._complex_route(s, T, 0) is None
    out = transform_system(s, T)
    assert _same_system(out, canon._real_route(s, T, 0))
    for w in (out.omega1, out.omega2):
        assert not {"x", "y", "z", "y'", "z'"} & free_symbols(w)


@pytest.mark.parametrize("omega,ctx,left", [
    # u'' = -u'^2 + u keeps u = log(Y + i Z), and the real route has no
    # rule for z = arg(Y + i Z)
    (("-dy^2 + dz^2 + y", "-2*dy*dz + z"), CTX, "z"),
    # an opaque function f of x has no rule on either route
    (("-dy^2 + dz^2 + f*dy", "-2*dy*dz + f*dz"),
     VarContext(functions_of_x=frozenset({"f"})), "f"),
])
def test_a_surviving_old_symbol_falls_back_to_the_real_refusal(omega, ctx,
                                                                left):
    s = _sys(*omega, ctx)
    T = _exp_polar(ctx, "x")
    assert canon._complex_route(s, T, 0) is None
    with pytest.raises(NonInvertible) as err:
        transform_system(s, T)
    assert str(err.value) == (f"old variables ['{left}'] survive the "
                              "rewrite; supply an explicit inverse")


def test_a_sampled_cr_verdict_keeps_the_real_route():
    # d(omega1)/dy' = d(omega2)/dz' reads exp(2x) = exp(x)^2, decided by
    # sampling only; with exp(2x) written alike on both sides every CR
    # verdict is symbolic, and the system takes the scalar route
    numeric = _sys("-dy^2 + dz^2 + exp(2*x)*dy", "-2*dy*dz + exp(x)^2*dz")
    methods = {c.method for c in check_cr(numeric).checks}
    assert check_cr(numeric).overall and "numeric" in methods
    symbolic = _sys("-dy^2 + dz^2 + exp(2*x)*dy", "-2*dy*dz + exp(2*x)*dz")
    T = _exp_polar(CTX, "x")
    assert canon._complex_route(numeric, T, 0) is None
    out = canon._complex_route(symbolic, T, 0)
    assert out is not None
    for got in (out, transform_system(numeric, T)):
        w = parse("exp(2*X)*Y'", got.ctx)
        assert zero_verdict(simplify(got.omega1 - w)).is_zero


def test_the_real_route_carries_a_non_cr_system_under_exp_polar():
    s = _sys("dy^2", "dz")
    assert not check_cr(s).overall
    T = _exp_polar(CTX, "x")
    out = transform_system(s, T)
    # Y'' along y'' = y'^2, z'' = z' checked on a trajectory of the
    # original pushed through the map
    traj = integrate(s, (0.0, 0.1, 0.2, 0.3, 0.4), 1.0)
    assert residual_on_trajectory(traj, out, T) <= 1e-6


@pytest.mark.parametrize("chi,error,message", [
    ("3", DxXZero, "the new independent variable is constant along "
     "solutions"),
    ("x^2", NonInvertible, "cannot invert x^2 for x"),
])
def test_exp_polar_refusals_keep_their_messages(chi, error, message):
    s = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # X = 3 warns: chi' = 0
        T = _exp_polar(CTX, chi)
    with pytest.raises(error) as err:
        transform_system(s, T)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# coefficient functions


def test_coefficient_grid_must_increase():
    with pytest.raises(ValueError):
        CoefficientFn.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_coefficient_symbolic_must_close_over_var():
    with pytest.raises(ValueError):
        CoefficientFn.symbolic("x + y")


@pytest.mark.parametrize("value", [3, "3", C(3),
                                   CoefficientFn.constant(3)],
                         ids=["number", "string", "expr", "coefficient"])
def test_linear_form_coerces_through_coefficient_of(value):
    got = LinearForm("reduced", {"beta": value})["beta"]
    assert got.kind == "symbolic" and got.expr == C(3)
    if isinstance(value, CoefficientFn):
        assert got is value
    assert CoefficientFn.of(value).expr == got.expr


def test_coefficient_of_keeps_variable_expressions():
    want = CoefficientFn.symbolic("x^2 + 1")
    for value in ("x^2 + 1", parse("x^2 + 1", CTX), want):
        got = CoefficientFn.of(value)
        assert (got.kind, got.var, got.expr) == ("symbolic", "x", want.expr)


@pytest.mark.parametrize("xs, values, message", [
    ([1.0], [2.0], "`x` must contain at least 2 elements."),
    ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0],
     "`x` must contain only finite values."),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 3.0],
     "`y` must contain only finite values."),
], ids=["one-point", "infinite-grid", "nan-value"])
def test_coefficient_table_checked_at_construction(xs, values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CoefficientFn.tabulated(xs, values)


def test_coefficient_copies_its_table():
    xs = np.linspace(0.0, 2.0, 21)
    values = np.sin(xs)
    c = CoefficientFn.tabulated(xs, values)
    xs[:] = np.linspace(5.0, 9.0, 21)
    values[:] = 0.0
    grid = np.linspace(0.0, 2.0, 21)
    assert np.array_equal(c.xs, grid) and np.array_equal(c.values,
                                                         np.sin(grid))


def test_a_table_is_never_read_between_its_knots():
    # a table is read at its knots, xs and values, and nowhere else
    beta = reduce_25_to_28(_zero_order("x/4", 1), (0.5, 2.0)).form["beta"]
    for read in (beta, beta.derivative, beta.with_derivative):
        for t in (0.73, np.linspace(0.5, 2.0, 5)):
            with pytest.raises(TypeError) as info:
                read(t)
            assert str(info.value) == (
                f"the table ({beta.source}) has no value between its "
                "knots; read xs and values")
    with pytest.raises(TypeError, match=r"^the table \(no source\) has no "):
        CoefficientFn.tabulated([0.0, 1.0], [1.0, 2.0])(0.5)


@pytest.mark.parametrize("spread, constant", [(1e-7, True), (1e-5, False)])
def test_a_table_is_constant_within_1e_6_of_its_scale(spread, constant):
    # one constant for both callers: a flat beta classifies as such, and
    # a flat a3, a4 pair is read as the constants it tabulates
    xs = np.linspace(0.5, 2.0, 1501)
    flat = 2.0 + 1.5 * spread * np.sin(7.0 * xs)  # scale 1 + max = 3
    table = CoefficientFn.tabulated(xs, flat)
    assert np.ptp(flat) / (1.0 + flat.max()) == pytest.approx(spread,
                                                               rel=0.01)
    assert table.is_constant() == ZeroVerdict(constant, "numeric")
    cls = classify_beta(table)
    assert (cls.rank_report is None) == constant
    if constant:
        assert cls.case_label == "nonzero constant coefficient"
    opt = LinearForm("optimal", {"dt11": 0, "dt12": -2, "dt21": 2})
    target = LinearForm("zero_order", {"a3": 0, "a4": table})
    if constant:
        assert attempt_linear_equivalence(opt, target).method == "numeric"
    else:
        with pytest.raises(ValueError, match="a4 is not constant"):
            attempt_linear_equivalence(opt, target)


def test_symbolic_coefficient_in_another_variable():
    # y and z are dependents in the default alphabet; a transformed
    # target's coefficients are in X
    for var in ("t", "y", "z", "X"):
        c = CoefficientFn("symbolic", expr=sym(var) ** 2, var=var)
        assert c(3.0) == 9.0 and c.derivative(3.0) == 6.0


@pytest.mark.parametrize("var", ["x", "t", "y", "X"])
def test_symbolic_coefficient_text_is_read_in_its_variable(var):
    c = CoefficientFn.symbolic(f"{var}^2 + 1", var=var)
    assert c.expr == simplify(sym(var) ** 2 + 1)
    assert c(3.0) == 10.0 and c.derivative(3.0) == 6.0


def test_symbolic_coefficient_text_in_another_variable_is_refused():
    # where t is the variable, x is no declared name
    with pytest.raises(UndeclaredSymbol):
        CoefficientFn.symbolic("x*t", var="t")
    # y is declared in the default alphabet, and the coefficient refuses it
    with pytest.raises(ValueError, match="undeclared symbols"):
        CoefficientFn.symbolic("x*y")


# ---------------------------------------------------------------------------
# reductions


def test_reduce_optimal_zero_trace_is_symbolic_identity():
    lf = LinearForm("general", {"d11": 0, "d22": 0, "d12": 2, "d21": 2})
    res = reduce_optimal(lf, (0.0, 1.0))
    assert to_string(res.form["dt11"].expr) == "0"
    assert to_string(res.form["dt12"].expr) == "2"
    assert to_string(res.rho.expr) == "1"


def test_reduce_optimal_traceless_nondiagonal_unchanged():
    lf = LinearForm("general", {"d11": 1, "d22": -1, "d12": 0, "d21": 0})
    res = reduce_optimal(lf, (0.0, 1.0))
    assert to_string(res.form["dt11"].expr) == "1"
    assert to_string(res.rho.expr) == "1"


def test_reduce_optimal_trace_free_in_another_variable():
    # dt11 is built on d11's variable, not on the default x
    t = sym("t")
    lf = LinearForm("general", {
        "d11": CoefficientFn.symbolic(t, var="t"),
        "d22": CoefficientFn.symbolic(neg(t), var="t"), "d12": 1, "d21": 2})
    res = reduce_optimal(lf, (0.5, 2.0))
    assert res.rescaling == "closed-form"
    dt11 = res.form["dt11"]
    assert (to_string(dt11.expr), dt11.var) == ("t", "t")
    assert dt11(1.5) == 1.5


def test_reduce_optimal_cosh_oracle():
    lf = LinearForm("general", {"d11": 1, "d22": 1, "d12": 0, "d21": 0})
    res = reduce_optimal(lf, (0.0, 1.0))
    assert np.max(np.abs(res.rho.values - np.cosh(res.rho.xs))) < 1e-8
    # the constant trace gives closed forms, read at the points of X
    for slot in ("dt11", "dt12", "dt21"):
        assert np.max(np.abs(res.form[slot](res.new_var.values))) == 0.0
    # the new variable is tanh(t), pinned to agree at t0 = 0
    assert np.max(np.abs(res.new_var.values - np.tanh(res.new_var.xs))) < 1e-8


def test_reduce_optimal_requires_general_kind():
    with pytest.raises(ValueError):
        reduce_optimal(LinearForm("reduced", {"beta": 1}), (0, 1))


def test_reduce_25_to_28_trivial_and_symbolic():
    res = reduce_25_to_28(LinearForm("zero_order", {"a3": 0, "a4": 1}),
                          (0.0, 1.0))
    assert to_string(res.form["beta"].expr) == "1"
    res2 = reduce_25_to_28(LinearForm("zero_order", {"a3": 0, "a4": "1/x"}),
                           (1.0, 2.0))
    assert zero_verdict(simplify(
        res2.form["beta"].expr - parse("1/x", CTX))).is_zero


def test_reduce_25_to_28_rho_analytic_oracle():
    # rho'' = (2/x^2) rho with rho(1)=1, rho'(1)=0 solves to (x^3 + 2)/(3x)
    lf = LinearForm("zero_order", {"a3": "2/x^2", "a4": 1})
    res = reduce_25_to_28(lf, (1.0, 2.0))
    ts = res.rho.xs
    want = (ts ** 3 + 2) / (3 * ts)
    assert np.max(np.abs(res.rho.values - want)) < 1e-8
    assert res.error_estimate <= 1e-8
    beta_want = want ** 4  # a4 = 1
    assert np.max(np.abs(res.form["beta"].values - beta_want)) < 1e-7


def test_reduce_25_to_28_rho_vanishes():
    # rho'' = -4 rho gives rho = cos(2(t - t0)), crossing zero at pi/4
    lf = LinearForm("zero_order", {"a3": -4, "a4": 1})
    with pytest.raises(RhoVanishes) as err:
        reduce_25_to_28(lf, (0.0, 2.0))
    assert abs(err.value.crossing - np.pi / 4) < 1e-2


def test_reduce_25_to_28_roundtrip_residual():
    # map Reduced solutions back through the rescaling and check they solve
    # the original undifferentiated-coupling system
    lf = LinearForm("zero_order", {"a3": "2/x^2", "a4": 1})
    assert roundtrip_residual(reduce_25_to_28(lf, (1.0, 2.0))) <= 1e-6


def test_reduce_24_to_25_trivial():
    res = reduce_24_to_25(LinearForm("first_order", {"a1": 0, "a2": 0}),
                          (0.0, 1.0))
    assert to_string(res.form["a3"].expr) == "0"
    assert to_string(res.form["a4"].expr) == "0"
    assert np.max(np.abs(res.m1.values - 1.0)) < 1e-12
    assert np.max(np.abs(res.m2.values)) < 1e-12


def test_reduce_24_to_25_constant_damping():
    # a1 = c: the rescaling is exp(cx/2) and the output coefficient is
    # +c^2/4 (transforming y'' = c y' by y = e^{cx/2} Y gives
    # Y'' = (c^2/4) Y after the first-derivative term cancels)
    res = reduce_24_to_25(LinearForm("first_order", {"a1": 3, "a2": 0}),
                          (0.0, 1.0))
    assert to_string(res.form["a3"].expr) == "9/4"
    assert to_string(res.form["a4"].expr) == "0"
    assert np.max(np.abs(res.m1.values - np.exp(1.5 * res.m1.xs))) < 1e-10


def test_reduce_24_to_25_constant_damping_trajectory_oracle():
    # independent check of the +c^2/4 sign: integrate y'' = c y', map the
    # trajectory by (Y, Z) = e^(-cx/2) (y, z), the rescaling by the M it
    # returns, and check it solves Y'' = a3 Y - a4 Z, Z'' = a4 Y + a3 Z
    res = reduce_24_to_25(LinearForm("first_order", {"a1": 3, "a2": 0}),
                          (0.0, 1.0))
    assert np.max(np.abs(res.m2.values)) == 0.0
    T = PointTransformation(CTX, sym("x"), parse("exp(-3*x/2)*y", CTX),
                            parse("exp(-3*x/2)*z", CTX))
    traj = integrate(_sys("3*dy", "3*dz"), (0.0, 0.5, -0.3, 0.2, 0.7), 1.0,
                     h=1e-3)
    Y, Z = (sym(n) for n in T.new_ctx.dependents)
    a3, a4 = (res.form[name].expr for name in ("a3", "a4"))
    assert to_string(a3) == "9/4" and to_string(a4) == "0"

    def residual(a3):
        target = OdeSystem2(T.new_ctx, a3 * Y - a4 * Z, a4 * Y + a3 * Z)
        return residual_on_trajectory(traj, target, T)

    assert residual(a3) <= 1e-6
    # and with the opposite sign the residual is far from zero
    assert residual(neg(a3)) > 1e-2


def test_reduce_24_to_25_rotation():
    # a2 = c: the rescaling pair is (cos(cx/2), sin(cx/2)) and the output
    # has a3 = -c^2/4
    res = reduce_24_to_25(LinearForm("first_order", {"a1": 0, "a2": 2}),
                          (0.0, 1.0))
    assert to_string(res.form["a3"].expr) == "-1"
    assert to_string(res.form["a4"].expr) == "0"
    assert np.max(np.abs(res.m1.values - np.cos(res.m1.xs))) < 1e-10
    assert np.max(np.abs(res.m2.values - np.sin(res.m2.xs))) < 1e-10


def test_reduce_24_to_25_symbolic_closed_form():
    res = reduce_24_to_25(
        LinearForm("first_order", {"a1": "1+x", "a2": "2"}), (0.0, 1.0))
    want3 = parse("(1+x)^2/4 - 1 - 1/2", CTX)
    want4 = parse("(1+x)", CTX)
    assert zero_verdict(simplify(res.form["a3"].expr - want3)).is_zero
    assert zero_verdict(simplify(res.form["a4"].expr - want4)).is_zero


def _polynomial_text(cs) -> str:
    return " + ".join(f"({c})*x^{k}" for k, c in enumerate(cs))


def _integral_text(cs, x0) -> str:
    """The integral from x0 to x of the polynomial sum of cs[k] x^k."""
    return " + ".join(f"({c / (k + 1)})*(x^{k + 1} - ({x0})^{k + 1})"
                      for k, c in enumerate(cs))


def _first_order_pairs() -> list:
    """(3, 0), (1 + x, 1 + x) and three seeded pairs of polynomials of
    degree 0 to 2, each as its coefficients from x^0 up."""
    rng = random.Random(2201)
    small = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2)]
    pairs = [((3,), (0,)), ((1, 1), (1, 1))]
    for _ in range(3):
        pairs.append(tuple(
            (*(rng.choice(small) for _ in range(rng.randint(0, 2))),
             rng.choice([q for q in small if q])) for _ in range(2)))
    return pairs


@pytest.mark.parametrize("c1,c2", _first_order_pairs(),
                         ids=lambda cs: f"({','.join(map(str, cs))})")
def test_zero_order_form_is_the_first_order_system_rescaled(c1, c2):
    # u = M v with M = exp((A + i B)/2), A and B the exact integrals of a1
    # and a2 from x0, is the point transformation X = x,
    # Y + i Z = exp(-A/2) (cos(B/2) - i sin(B/2)) (y + i z): it carries
    # the first_order system to the returned zero_order form
    a1, a2 = _polynomial_text(c1), _polynomial_text(c2)
    res = reduce_24_to_25(LinearForm("first_order", {"a1": a1, "a2": a2}),
                          (0.5, 2.0))
    half_a = f"(({_integral_text(c1, Fraction(1, 2))})/2)"
    half_b = f"(({_integral_text(c2, Fraction(1, 2))})/2)"
    # the M it returns is that rescaling
    ts = res.m1.xs
    scale = CoefficientFn.symbolic(f"exp({half_a})")(ts)
    angle = CoefficientFn.symbolic(half_b)(ts)
    _close(res.m1.values, scale * np.cos(angle), 1e-12)
    _close(res.m2.values, scale * np.sin(angle), 1e-12)
    T = PointTransformation(
        CTX, sym("x"),
        parse(f"exp(-{half_a})*(cos({half_b})*y + sin({half_b})*z)", CTX),
        parse(f"exp(-{half_a})*(cos({half_b})*z - sin({half_b})*y)", CTX))
    out = transform_system(
        _sys(f"({a1})*y' - ({a2})*z'", f"({a2})*y' + ({a1})*z'"), T)
    X, Y, Z = sym("X"), sym("Y"), sym("Z")
    a3, a4 = (substitute(res.form[name].expr, {"x": X})
              for name in ("a3", "a4"))
    for got, want in ((out.omega1, a3 * Y - a4 * Z),
                      (out.omega2, a4 * Y + a3 * Z)):
        verdict = zero_verdict(simplify(got - want))
        assert verdict.is_zero and verdict.method == "symbolic"
    # a4 off by one is not the rescaled system
    assert not zero_verdict(simplify(out.omega2 - (a4 + C(1)) * Y
                                     - a3 * Z)).is_zero


_TABLE = CoefficientFn.tabulated(np.linspace(1.0, 3.0, 201),
                                 np.cos(np.linspace(1.0, 3.0, 201)))


@pytest.mark.parametrize("reduce,lf,name", [
    (reduce_24_to_25, LinearForm("first_order", {"a1": _TABLE, "a2": "x"}),
     "a1"),
    (reduce_25_to_28, LinearForm("zero_order", {"a3": _TABLE, "a4": 1}),
     "a3"),
    (reduce_25_to_28, LinearForm("zero_order", {"a3": 0, "a4": _TABLE}),
     "a4"),
    (reduce_optimal, LinearForm("general", {
        "d11": "x", "d22": 1, "d12": _TABLE, "d21": 2}), "d12"),
    (reduce_chain, LinearForm("general", {
        "d11": _TABLE, "d22": 1, "d12": 0, "d21": 2}), "d11"),
], ids=["24_to_25", "25_to_28", "25_to_28-identity", "optimal", "chain"])
def test_reductions_refuse_a_tabulated_input(monkeypatch, reduce, lf, name):
    # tables are outputs of the chain: a tabulated input is refused with
    # one line that names it, before anything is integrated
    def refuse(*args):
        raise AssertionError("rk4_checked called")

    monkeypatch.setattr(canon, "rk4_checked", refuse)
    with pytest.raises(ValueError) as info:
        reduce(lf, (1.5, 2.5))
    assert str(info.value) == (f"coefficient {name} is tabulated; a "
                               "reduction takes closed-form coefficients "
                               "only")


def test_reduction_pole_is_located_by_the_loop():
    lf = LinearForm("zero_order", {"a3": "1/(x-1)", "a4": 1})
    with pytest.raises(PoleInInterval) as info:
        reduce_25_to_28(lf, (0.5, 2.0))
    assert str(info.value) == ("right-hand side undefined near x = 1: "
                               "division by zero in subterm '(x - 1)^(-1)'")


# exp(1000 x) is about 1e217 at x = 0.5, so the rescaling state overflows
# in the first step; exp(x^3) and 2 x^6 + sin(x) grow so fast that the step
# their 1e-3 run predicts would take more than MAX_STEPS steps, so the
# 1e-3 run is kept and refused (2 x^6 alone is a polynomial, which takes
# the closed form)
@pytest.mark.parametrize("reduce,lf,error,message", [
    (reduce_25_to_28,
     LinearForm("zero_order", {"a3": "exp(1000*x)", "a4": 1}),
     Blowup, "state escaped near x = 0.501"),
    (reduce_optimal,
     LinearForm("general", {"d11": "exp(1000*x)", "d22": "exp(1000*x)",
                            "d12": 0, "d21": 1}),
     Blowup, "state escaped near x = 0.501"),
    (reduce_24_to_25,
     LinearForm("first_order", {"a1": "exp(1000*x)", "a2": 1}),
     Blowup, "state escaped near x = 0.501"),
    # M ~ exp(350 x) stays finite in RK4, but M1^2 + M2^2 overflows
    (reduce_24_to_25,
     LinearForm("first_order", {"a1": "700 + sin(x)/1000", "a2": 1}),
     Blowup, "state escaped near x = 1.515"),
    (reduce_25_to_28,
     LinearForm("zero_order", {"a3": "exp(x^3)", "a4": 1}),
     InaccurateIntegration,
     "step-doubling disagreement 1.170e+00 exceeds 1e-7"),
    (reduce_optimal,
     LinearForm("general", {"d11": "exp(x^3)", "d22": "exp(x^3)",
                            "d12": 0, "d21": 1}),
     InaccurateIntegration,
     "step-doubling disagreement 1.170e+00 exceeds 1e-7"),
    (reduce_24_to_25,
     LinearForm("first_order", {"a1": "2*x^6 + sin(x)", "a2": 1}),
     InaccurateIntegration,
     "step-doubling disagreement 9.851e+02 exceeds 1e-7"),
], ids=["overflow-25-28", "overflow-optimal", "overflow-24-25",
        "modulus-overflow-24-25", "inaccurate-25-28", "inaccurate-optimal", "inaccurate-24-25"])
def test_reductions_refuse_an_overflow_or_an_inaccurate_run(reduce, lf,
                                                            error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            reduce(lf, (0.5, 2.0))
    assert str(info.value) == message


@pytest.mark.parametrize("form,kinds", [
    ({"kind": "general", "d11": "1 + x", "d12": "3", "d21": "-1",
      "d22": "1/3"}, ["optimal"]),
    ({"kind": "first_order", "a1": "1+x", "a2": "1+x"},
     ["zero_order", "reduced"]),
    ({"kind": "zero_order", "a3": "1", "a4": "1"}, ["reduced"]),
    ({"kind": "optimal", "dt11": "x", "dt12": "1", "dt21": "2"}, []),
    ({"kind": "reduced", "beta": "x"}, []),
], ids=lambda v: v["kind"] if isinstance(v, dict) else "")
def test_reduce_chain_carries_each_kind_to_its_end(form, kinds):
    lf = LinearForm(form["kind"], {k: v for k, v in form.items()
                                   if k != "kind"})
    chain = reduce_chain(lf, (0.5, 2.0))
    assert [red.form.kind for red in chain] == kinds
    # each step reduces the form of the one before it; a3 = -1/2 here,
    # so beta is a closed form
    if kinds == ["zero_order", "reduced"]:
        alone = reduce_25_to_28(chain[0].form, (0.5, 2.0)).form["beta"]
        assert alone.kind == "symbolic"
        assert alone.expr == chain[1].form["beta"].expr


def test_reduce_chain_calls_each_step_through_the_module(monkeypatch):
    # a step rebound in canon's namespace (as a tracer does) is the one
    # the chain runs
    calls = []
    for name in ("reduce_24_to_25", "reduce_25_to_28"):
        def step(lf, interval, _fn=getattr(canon, name), _name=name):
            calls.append(_name)
            return _fn(lf, interval)
        monkeypatch.setattr(canon, name, step)
    lf = LinearForm("first_order", {"a1": "1+x", "a2": "1+x"})
    assert reduce_chain(lf, (0.5, 2.0))[-1].form.kind == "reduced"
    assert calls == ["reduce_24_to_25", "reduce_25_to_28"]


# ---------------------------------------------------------------------------
# closed-form rescalings against the RK4 route


def _rk4_route(monkeypatch, reduce, lf, interval):
    """reduce(lf, interval) with the closed forms switched off, and the
    arguments (field, t0, y0, t1, h) it handed to rk4_checked."""
    seen = []

    def recording(*args):
        seen.append(args)
        return rk4_checked(*args)

    with monkeypatch.context() as m:
        m.setattr(canon, "_finite_constant", lambda e: None)
        m.setattr(canon, "_polynomial", lambda c: None)
        m.setattr(canon, "rk4_checked", recording)
        return reduce(lf, interval), seen[0]


def _close(got, want, rtol=1e-8):
    """got equals want within rtol of want's max norm."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("reduce,lf", [
    (reduce_25_to_28, LinearForm("zero_order", {"a3": 1, "a4": "x"})),
    (reduce_25_to_28, LinearForm("zero_order", {"a3": "-1/2", "a4": 1})),
    (reduce_25_to_28, LinearForm("zero_order", {"a3": "5/2", "a4": 2})),
    (reduce_optimal, LinearForm("general", {
        "d11": "x + 1", "d22": "3 - x", "d12": "x", "d21": 1})),
], ids=["1", "-1/2", "5/2", "optimal"])
def test_constant_rho_matches_the_rk4_route(monkeypatch, reduce, lf):
    closed = reduce(lf, (0.5, 2.0))
    assert closed.rescaling == "closed-form"
    assert closed.error_estimate == 0.0
    oracle, (field, t0, y0, t1, h) = _rk4_route(monkeypatch, reduce, lf,
                                                (0.5, 2.0))
    assert oracle.rescaling == "rk4" and oracle.error_estimate > 0.0
    ts, ys = rk4_checked(field, t0, y0, t1, h)[:2]
    assert np.array_equal(closed.rho.xs, ts)
    _close(closed.rho.values, ys[:, 0])
    _close(closed.new_var.values, ys[:, 2])
    assert closed.rho.step == oracle.rho.step
    # every coefficient is symbolic, a closed form in X: read it at the
    # points of the RK4 route's table
    for name, c in closed.form.coeffs.items():
        want = oracle.form[name]
        assert c.kind == "symbolic" and c.error_estimate == 0.0
        _close(c(want.xs), want.values)


def _seeded_constant(rng: random.Random, sign: int) -> Fraction:
    """A rational of the sign with 1/8 <= |k| <= 2: on a unit interval
    cos(sqrt(|k|) s) keeps away from zero and tanh from saturating."""
    return Fraction(sign * rng.randint(1, 8), rng.randint(4, 8))


def _seeded_polynomial(rng: random.Random) -> str:
    return " + ".join(f"({rng.randint(-5, 5)})*x^{n}" for n in range(3))


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_beta_matches_its_table(seed):
    # a constant and a polynomial a4 under a seeded rational a3 of either
    # sign: beta in closed form, read at the points of X, against the
    # table rho^4 a4(t) on rho's grid
    rng = random.Random(seed)
    k = _seeded_constant(rng, (-1, 1)[seed % 2])
    t0 = rng.choice((0.0, 0.5))
    for a4 in (str(rng.randint(1, 5)), _seeded_polynomial(rng)):
        res = reduce_25_to_28(LinearForm("zero_order", {"a3": str(k),
                                                        "a4": a4}),
                              (t0, t0 + 1.0))
        beta = res.form["beta"]
        assert beta.kind == "symbolic" and res.rescaling == "closed-form"
        if a4.isdigit():  # rational: |beta|^-1/2 = |1 - k S^2|/sqrt(a4)
            assert classify_beta(beta, (t0 + 0.1, t0 + 0.5)).dimension == 7
        want = res.rho.values ** 4 * CoefficientFn.symbolic(a4)(res.rho.xs)
        _close(beta(res.new_var.values), want, 1e-12)


@pytest.mark.parametrize("value", [-0.15, 0.3, 2.0, -0.5])
def test_closed_form_beta_takes_the_double_root(value):
    # w = sqrt(|a3|) is the double of the rho table, for a rational a3
    # too: the log or atan that w enters keeps such a beta off the exact
    # route, so an exact radical would decide nothing
    a3 = Fraction(value)
    res = reduce_25_to_28(LinearForm("zero_order", {
        "a3": CoefficientFn.constant(a3), "a4": "x"}), (0.0, 1.0))
    beta = res.form["beta"]
    text = to_string(beta.expr)
    assert "^(1/2)" not in text
    assert str(Fraction(math.sqrt(abs(value))).numerator) in text
    want = res.rho.values ** 4 * res.rho.xs
    _close(beta(res.new_var.values), want, 1e-12)


def _exact_beta(k: Fraction, x0: Fraction, x: float, c_of_t) -> tuple:
    """beta(X) = (1 - k S^2)^-2 c(t(X)) and its X-derivative at the float
    x, S = x - x0, for a4 = c(t) with c(t) = 1 or t and w = sqrt(k) = 5:
    the rational parts exact, t(X) = x0 + atanh(5 S)/5 through logs of
    exact integers."""
    s = Fraction(x) - x0
    q = 1 - k * s * s
    if c_of_t == "1":
        return float(q ** -2), float(4 * k * s * q ** -3)
    r = (1 + 5 * s) / (1 - 5 * s)
    t = float(x0) + (math.log(r.numerator) - math.log(r.denominator)) / 10
    # t'(X) = 1/(1 - k S^2)
    return float(q ** -2) * t, float(4 * k * s * q ** -3) * t + float(q ** -3)


@pytest.mark.parametrize("a4", ["1", "x"])
def test_closed_form_beta_is_accurate_where_collocation_reads_it(a4):
    # beta and beta' at the collocation points of the image of [0.5, 2]
    # (2 % in from each end), against their exact values at the same
    # floats.  The cubic spline of the table the closed form replaced read
    # them only to 3e-9 and 4e-7 there
    k, x0 = Fraction(25), Fraction(1, 2)
    res = reduce_25_to_28(LinearForm("zero_order", {"a3": 25, "a4": a4}),
                          (0.5, 2.0))
    lo, hi = res.new_var.values[[0, -1]]
    pad = 0.02 * (hi - lo)
    xs = np.linspace(lo + pad, hi - pad, 40)
    got = res.form["beta"].with_derivative(xs)
    want = np.array([_exact_beta(k, x0, x, a4) for x in xs]).T
    for g, w in zip(got, want):
        assert np.max(np.abs(g / w - 1.0)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_constant_trace_gives_closed_form_optimal_coefficients(seed):
    rng = random.Random(100 + seed)
    k = _seeded_constant(rng, (-1, 1)[seed % 2])
    q, d12, d21 = (_seeded_polynomial(rng) for _ in range(3))
    lf = LinearForm("general", {"d11": f"{k} + {q}", "d22": f"{k} - ({q})",
                                "d12": d12, "d21": d21})
    res = reduce_optimal(lf, (0.5, 1.5))
    assert res.rescaling == "closed-form"
    quart = res.rho.values ** 4
    for name, text in (("dt11", q), ("dt12", d12), ("dt21", d21)):
        c = res.form[name]
        assert c.kind == "symbolic"
        want = quart * CoefficientFn.symbolic(text)(res.rho.xs)
        _close(c(res.new_var.values), want, 1e-12)


@pytest.mark.parametrize("a1,a2", [(1, 1), ("1+x", "1+x"), ("1+x", 2)],
                         ids=["1,1", "1+x,1+x", "1+x,2"])
def test_polynomial_m_pair_matches_the_rk4_route(monkeypatch, a1, a2):
    lf = LinearForm("first_order", {"a1": a1, "a2": a2})
    closed = reduce_24_to_25(lf, (0.0, 2.0))
    assert closed.rescaling == "closed-form"
    assert closed.error_estimate == 0.0
    oracle, (field, t0, y0, t1, h) = _rk4_route(monkeypatch, reduce_24_to_25,
                                                lf, (0.0, 2.0))
    assert oracle.rescaling == "rk4"
    ts, ys = rk4_checked(field, t0, y0, t1, h)[:2]
    assert np.array_equal(closed.m1.xs, ts)
    _close(closed.m1.values, ys[:, 0])
    _close(closed.m2.values, ys[:, 1])
    for name in ("a3", "a4"):
        assert closed.form[name].expr == oracle.form[name].expr


def test_constant_a3_that_rk4_refused_is_decided_in_closed_form(
        monkeypatch):
    lf = LinearForm("zero_order", {"a3": 25, "a4": 1})
    res = reduce_25_to_28(lf, (0.5, 2.0))
    ts = res.rho.xs
    _close(res.rho.values, np.cosh(5.0 * (ts - 0.5)), 1e-12)
    _close(res.new_var.values, 0.5 + np.tanh(5.0 * (ts - 0.5)) / 5.0, 1e-12)
    # beta = rho^4 is (1 - 25 (X - 1/2)^2)^-2 = cosh(5 (t - 1/2))^4
    # exactly.  At X = 0.7 - 1.2e-7 near the end, its pole at 0.7 makes
    # the condition number kappa = |X beta'/beta| about 1e6 even in exact
    # arithmetic, so the floats at the points of X are held to their
    # exact values at the same floats within 16 ulps times kappa
    beta = res.form["beta"]
    assert beta.expr == simplify(parse("(1 - 25*(x - 1/2)^2)^(-2)", CTX))
    for x, got in zip(res.new_var.values, beta(res.new_var.values)):
        s = Fraction(x) - Fraction(1, 2)
        q = 1 - 25 * s * s
        kappa = abs(Fraction(x) * 100 * s / q)
        assert abs(got / float(q ** -2) - 1.0) <= \
            16 * 2.0 ** -52 * (1 + float(kappa))
    assert res.rho.source.startswith("rho = cosh(w (t - t0)), w = sqrt(a3)")
    assert res.new_var.source == "X = t0 + tanh(w (t - t0)) / w"
    # RK4 at a fixed 1e-3 misses the gate; the RK4 route refines its step
    # and agrees with the closed form
    oracle, (field, t0, y0, t1, h) = _rk4_route(monkeypatch, reduce_25_to_28,
                                                lf, (0.5, 2.0))
    assert h == 1e-3
    assert f"{fixed_step_error(field, t0, y0, t1, h):.3e}" == "2.626e-06"
    assert oracle.rho.step < 1e-3 and oracle.error_estimate <= 1e-7
    ts = oracle.rho.xs
    _close(oracle.rho.values, np.cosh(5.0 * (ts - 0.5)), 1e-8)


def test_polynomial_a1_that_rk4_refused_is_decided_in_closed_form(
        monkeypatch):
    lf = LinearForm("first_order", {"a1": "2*x^5", "a2": 1})
    res = reduce_24_to_25(lf, (0.5, 2.0))

    def m_pair(ts):
        # A = x^6/3 and B = x from 0.5, so M = exp((A + i B)/2)
        scale = np.exp((ts ** 6 - 0.5 ** 6) / 6.0)
        return scale * np.cos((ts - 0.5) / 2.0), \
            scale * np.sin((ts - 0.5) / 2.0)
    m1, m2 = m_pair(res.m1.xs)
    _close(res.m1.values, m1, 1e-12)
    _close(res.m2.values, m2, 1e-12)
    # RK4 at a fixed 1e-3 misses the gate; the RK4 route refines its step
    # and agrees with the closed form
    oracle, (field, t0, y0, t1, h) = _rk4_route(monkeypatch, reduce_24_to_25,
                                                lf, (0.5, 2.0))
    assert f"{fixed_step_error(field, t0, y0, t1, h):.3e}" == "9.881e-03"
    assert oracle.m1.step < 1e-3 and oracle.error_estimate <= 1e-7
    m1, m2 = m_pair(oracle.m1.xs)
    _close(oracle.m1.values, m1, 1e-8)
    _close(oracle.m2.values, m2, 1e-8)


def test_sin_term_keeps_a1_on_the_refined_rk4_route():
    # 2 x^5 + sin(x) is no polynomial, so M takes RK4, whose 1e-3 run
    # misses the gate (2.061e-02); the refined run matches exp((A + i B)/2)
    res = reduce_24_to_25(LinearForm("first_order", {
        "a1": "2*x^5 + sin(x)", "a2": 1}), (0.5, 2.0))
    assert res.rescaling == "rk4" and res.error_estimate <= 1e-7
    ts = res.m1.xs
    assert res.m1.step < 1e-3 and len(ts) <= 200_001
    scale = np.exp((ts ** 6 - 0.5 ** 6) / 6.0
                   - (np.cos(ts) - np.cos(0.5)) / 2.0)
    _close(res.m1.values, scale * np.cos((ts - 0.5) / 2.0), 1e-8)
    _close(res.m2.values, scale * np.sin((ts - 0.5) / 2.0), 1e-8)


# example 3 with c2 = 1 and c1 = 4 or 5 in zero_order form: a3 is not
# constant, and rho's 1e-3 run misses the gate
@pytest.mark.parametrize("c1,error_at_1e_3", [(4, "6.656e-07"),
                                              (5, "2.302e-05")])
def test_reduction_refines_its_step_where_1e_3_misses_the_gate(
        monkeypatch, c1, error_at_1e_3):
    lf = reduce_24_to_25(LinearForm("first_order", {
        "a1": f"{c1}*(1+x)", "a2": "1+x"}), (0.0, 2.0)).form
    _, (field, t0, y0, t1, h) = _rk4_route(monkeypatch, reduce_25_to_28, lf,
                                           (0.0, 2.0))
    assert f"{fixed_step_error(field, t0, y0, t1, h):.3e}" == error_at_1e_3

    def dimension(red):
        beta = red.form["beta"]
        lo, hi = beta.domain
        pad = 0.02 * (hi - lo)
        return classify_beta(beta, (lo + pad, hi - pad)).dimension
    red = reduce_25_to_28(lf, (0.0, 2.0))
    assert red.rescaling == "rk4" and red.error_estimate <= ERROR_BUDGET
    step = red.rho.step
    assert step < 1e-3
    # every table carries the refined step and lies on its grid
    for table in (red.rho, red.new_var, red.form["beta"]):
        assert table.step == step and table.error_estimate == \
            red.error_estimate
        assert len(table.xs) == len(checked_grid(0.0, 2.0, step))
    # an independent grid: a largest step of 1.25e-4 runs on another step
    monkeypatch.setattr(canon, "REDUCTION_STEP", 1.25e-4)
    fine = reduce_25_to_28(lf, (0.0, 2.0))
    assert fine.rho.step != step
    assert dimension(red) == dimension(fine) == 6


# a3 = 400: tanh(20 (t - t0)) is 1.0 in float from about t0 + 0.93 on;
# a3 = 1e6: cosh(1000 (t - t0)) overflows beyond t0 + 0.71;
# a1 = 1000 x: exp(A) = exp(500 (x^2 - 0.25)) overflows beyond x = 1.29
@pytest.mark.parametrize("reduce,lf,message", [
    (reduce_25_to_28, LinearForm("zero_order", {"a3": 400, "a4": 1}),
     "integral of rho^-2 stops increasing near x = 1.287"),
    (reduce_optimal, LinearForm("general", {
        "d11": 400, "d22": 400, "d12": 0, "d21": 1}),
     "integral of rho^-2 stops increasing near x = 1.287"),
    (reduce_25_to_28, LinearForm("zero_order", {"a3": 1e6, "a4": 1}),
     "state escaped near x = 1.211"),
    (reduce_24_to_25, LinearForm("first_order", {"a1": "1000*x", "a2": 1}),
     "state escaped near x = 1.293"),
], ids=["tanh-saturates", "optimal-tanh-saturates", "cosh-overflows",
        "exp-overflows"])
def test_closed_forms_refuse_an_overflow_with_a_blowup(reduce, lf, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Blowup) as info:
            reduce(lf, (0.5, 2.0))
    assert str(info.value) == message


def test_richardson_validation_helper():
    err = rk4_checked(Field({}, (), ("s1", "-s0")),
                      0.0, np.array([1.0, 0.0]), 3.0, 1e-3)[2]
    assert err < 1e-11


@pytest.mark.parametrize("reduce,lf,interval", [
    (reduce_optimal,
     LinearForm("general", {"d11": 1, "d22": 1, "d12": 0, "d21": 0}),
     (1.0, 0.0)),
    (reduce_24_to_25,
     LinearForm("first_order", {"a1": "1+x", "a2": "2"}), (1.0, 0.0)),
    (reduce_25_to_28,
     LinearForm("zero_order", {"a3": "2/x^2", "a4": 1}), (2.0, 1.0)),
], ids=["optimal", "24_to_25", "25_to_28"])
def test_reductions_reject_reversed_interval(reduce, lf, interval):
    with pytest.raises(ValueError):
        reduce(lf, interval)


# ---------------------------------------------------------------------------
# constant-linear-map equivalence


def _opt(a, b, c) -> LinearForm:
    return LinearForm("optimal", {"dt11": a, "dt12": b, "dt21": c})


def _zero_order(a3, a4) -> LinearForm:
    return LinearForm("zero_order", {"a3": a3, "a4": a4})


def test_equivalence_generic_constant_case_inconsistent():
    for target in (_zero_order(0, 1), _zero_order(2, 3), _zero_order(1, 0)):
        v = attempt_linear_equivalence(_opt(1, 2, 3), target)
        assert isinstance(v, EquivalenceVerdict)
        assert not v.consistent
        assert v.case == "inconsistent"
        assert any("contradiction" in step for step in v.chain)


def test_equivalence_free_particle_corner():
    v = attempt_linear_equivalence(_opt(0, 0, 0), _zero_order(0, 0))
    assert v.consistent and v.case == "both-free-particle"
    assert v.solution is not None


def test_equivalence_degenerate_family_flagged():
    v = attempt_linear_equivalence(_opt(1, 1, -1), _zero_order(0, 1))
    assert not v.consistent
    assert v.case == "degenerate-family"
    assert any("8-dimensional" in step for step in v.chain)


def test_equivalence_of_one_system_written_in_both_forms():
    # both forms are y'' = -z, z'' = y; u'' = A u and v'' = B v are
    # equivalent under a constant map iff A and B are similar
    v = attempt_linear_equivalence(_opt(0, -1, 1), _zero_order(0, 1))
    assert v.consistent and v.solution is not None


def test_equivalence_to_a_reduced_target_gives_the_map():
    # (Y, Z) = (y - z, z) carries y'' = y - 2z, z'' = y - z to
    # Y'' = -Z, Z'' = Y, so u = P v with P = [[1, 1], [0, 1]]
    v = attempt_linear_equivalence(_opt(1, -2, 1),
                                   LinearForm("reduced", {"beta": 1}))
    assert v.consistent and v.case == "equivalent"
    assert v.method == "symbolic"
    assert v.solution == {"a": 1, "b": 1, "c": 0, "d": 1}
    assert all(isinstance(x, Fraction) for x in v.solution.values())


def test_equivalence_with_an_irrational_constant_is_numeric():
    v = attempt_linear_equivalence(_opt(0, -2, 1), _zero_order(0, "sqrt(2)"))
    assert v.consistent and v.case == "equivalent"
    assert v.method == "numeric"
    assert any("relative 1e-12" in step for step in v.chain)
    assert v.solution["d"] == pytest.approx(1 / math.sqrt(2), rel=1e-15)


def _mapped(dt: tuple, P: dict) -> OdeSystem2:
    """The optimal system of dt = (dt11, dt12, dt21) in P^-1 (y, z)."""
    a, b, c = (C(q) for q in dt)
    y, z = sym("y"), sym("z")
    sys = OdeSystem2(CTX, a * y + b * z, c * y - a * z)
    det = P["a"] * P["d"] - P["b"] * P["c"]
    T = PointTransformation(
        CTX, sym("x"), C(P["d"] / det) * y - C(P["b"] / det) * z,
        C(P["a"] / det) * z - C(P["c"] / det) * y)
    return transform_system(sys, T)


def test_every_equivalence_verdict_agrees_with_transform_system():
    # A = [[a, b], [c, -a]] is similar to B = [[0, -t], [t, 0]] iff
    # t^2 = -(a^2 + bc): draw b from a, c, t for the similar pairs
    rng = random.Random(2101)
    small = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    nonzero = [q for q in small if q]
    for _ in range(12):
        a, c, t = rng.choice(small), rng.choice(nonzero), rng.choice(nonzero)
        dt = (a, -(t * t + a * a) / c, c)
        target = (_zero_order(0, t) if rng.random() < 0.5
                  else LinearForm("reduced", {"beta": t}))
        v = attempt_linear_equivalence(_opt(*dt), target)
        assert v.consistent and v.case == "equivalent", (dt, t)
        assert v.method == "symbolic"
        out = _mapped(dt, v.solution)
        Y, Z = sym("Y"), sym("Z")
        for got, want in ((out.omega1, -C(t) * Z), (out.omega2, C(t) * Y)):
            verdict = zero_verdict(simplify(got - want))
            assert verdict.is_zero and verdict.method == "symbolic"
    dissimilar = 0
    while dissimilar < 12:
        a, b, c, s, t = (rng.choice(small) for _ in range(5))
        s *= dissimilar % 2  # half with a3 = 0: B's trace matches A's
        if a * a + b * c == 0 or s == 0 and t * t == -(a * a + b * c):
            continue  # nilpotent or zero A, or similar to B
        dissimilar += 1
        v = attempt_linear_equivalence(_opt(a, b, c), _zero_order(s, t))
        assert not v.consistent and v.case == "inconsistent", (a, b, c, s, t)
        assert v.solution is None and v.chain[-1].endswith("contradiction")


def test_equivalence_accepts_reduced_targets():
    v = attempt_linear_equivalence(_opt(1, 2, 3),
                                   LinearForm("reduced", {"beta": 1}))
    assert not v.consistent


def test_equivalence_rejects_nonconstant_coefficients():
    with pytest.raises(ValueError):
        attempt_linear_equivalence(
            LinearForm("optimal", {"dt11": "x", "dt12": 0, "dt21": 0}),
            _zero_order(0, 1))
