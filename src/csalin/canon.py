"""Canonical forms of linear systems of two second-order ODEs.

Carries systems through point transformations, reduces linear systems to
the trace-free optimal form, reduces the two special linear forms (first
derivative coupled / undifferentiated coupled) to the single-coefficient
reduced form Y'' = -beta Z, Z'' = beta Y, and decides equivalence of two
constant forms u'' = A u, v'' = B v under u = P v as similarity of A, B.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .csa import check_cr
from .cubic import OdeSystem2
from .expr import (
    C, Expr, ExprError, NotPolynomial, VarContext, ZERO, ZeroVerdict,
    add, atan, coefficients_in, complex_parts, compile_rows, cos,
    differentiate, div, eval_expr, exp, _rational_value, free_symbols, log,
    mul, parse, pow_, sin, simplify, simplify_verdict, substitute,
    rewrite_subterms, sym, to_string, zero_verdict,
)
from .numerics import (
    Blowup, DomainError, Field, checked_grid, require_accuracy, rk4_checked,
)

if TYPE_CHECKING:
    import numpy as np


class DxXZero(ExprError):
    """The total derivative of the new independent variable vanishes."""


class NonInvertible(ExprError):
    """No inverse is available within the supported transformation family."""


class RhoVanishes(ExprError):
    def __init__(self, crossing: float, safe: tuple):
        super().__init__(
            f"rescaling function crosses zero near x = {crossing:.6g}; "
            f"safe sub-interval is [{safe[0]:.6g}, {safe[1]:.6g})")
        self.crossing = crossing
        self.safe_interval = safe


class MDegenerate(ExprError):
    """The modulus M1^2 + M2^2 of the rescaling pair vanished."""


class PoleInInterval(ExprError):
    """A coefficient could not be evaluated somewhere on the interval."""


# ---------------------------------------------------------------------------
# point transformations


def _default_new_ctx(ctx: VarContext) -> VarContext:
    return VarContext("X", ("Y", "Z"), ("Y'", "Z'"), ("Y''", "Z''"),
                      ctx.parameters, frozenset())


@dataclass(frozen=True, eq=False)
class PointTransformation:
    """An invertible change of variables (x, y, z) -> (X, Y, Z) with
    X = chi(x).

    X, Y, Z are expressions in the old variables: X in x and the
    parameters only, Y and Z in no derivative (NonInvertible otherwise).
    Building the map computes, once, chi' = dX/dx (`chi_prime`), the
    Jacobian J = d(Y, Z)/d(y, z) (`jacobian`, rows (Y_y, Y_z) and
    (Z_y, Z_z)), its determinant `det` and (Y_x, Z_x) (`x_partials`),
    and warns when chi' det J, the Jacobian determinant of the whole map,
    is zero.  An explicit inverse (mapping each old variable name to an
    expression in the new names) may be supplied; otherwise inverses are
    derived for the supported families (J free of y and z, and the
    exponential-polar pair Y = e^y cos z, Z = e^y sin z).
    """

    ctx: VarContext
    X: Expr
    Y: Expr
    Z: Expr
    new_ctx: VarContext = None
    inverse: dict | None = None

    def __post_init__(self):
        ctx = self.ctx
        if self.new_ctx is None:
            object.__setattr__(self, "new_ctx", _default_new_ctx(ctx))
        x, (y, z) = ctx.independent, ctx.dependents
        if free_symbols(self.X) - {x, *ctx.parameters}:
            raise NonInvertible("the new independent variable must depend on "
                                "the old independent variable only")
        if (free_symbols(self.Y) | free_symbols(self.Z)) & {
                *ctx.first_derivatives, *ctx.second_derivatives}:
            raise NonInvertible("the new dependent variables must not depend "
                                "on the old derivatives")
        jacobian = tuple(tuple(simplify(differentiate(e, v)) for v in (y, z))
                         for e in (self.Y, self.Z))
        (a, b), (c, d) = jacobian
        chi_prime = simplify(differentiate(self.X, x, ctx))
        det = simplify(a * d - b * c)
        # the dataclass is frozen: set the derived fields past __setattr__
        self.__dict__.update(
            chi_prime=chi_prime, jacobian=jacobian, det=det,
            x_partials=tuple(simplify(differentiate(e, x, ctx))
                             for e in (self.Y, self.Z)))
        if zero_verdict(mul(chi_prime, det)).is_zero:
            warnings.warn("transformation Jacobian is singular",
                          stacklevel=3)

    def first_derivatives(self, yp: str, zp: str) -> tuple:
        """(Y', Z') = ((Y_x, Z_x) + J (y', z')) / chi', simplified, with the
        old first derivatives named yp and zp: Y and Z hold no derivative,
        so this is Y' along any system.  Raises DxXZero where chi'
        vanishes, before anything divides by it."""
        if zero_verdict(self.chi_prime).is_zero:
            raise DxXZero("the new independent variable is constant along "
                          "solutions")
        return tuple(
            simplify(div(add(e, mul(sym(yp), a), mul(sym(zp), b)),
                         self.chi_prime))
            for e, (a, b) in zip(self.x_partials, self.jacobian))

    @classmethod
    def identity(cls, ctx: VarContext) -> "PointTransformation":
        y, z = ctx.dependents
        return cls(ctx, sym(ctx.independent), sym(y), sym(z), new_ctx=ctx)


def total_derivative(e: Expr, sys: OdeSystem2) -> Expr:
    """Derivative of e along solutions: d/dx + y' d/dy + ... + omega d/dy'."""
    ctx = sys.ctx
    y, z = ctx.dependents
    yp, zp = ctx.first_derivatives
    return simplify(add(
        differentiate(e, ctx.independent, ctx),
        mul(sym(yp), differentiate(e, y)),
        mul(sym(zp), differentiate(e, z)),
        mul(sys.omega1, differentiate(e, yp)),
        mul(sys.omega2, differentiate(e, zp)),
    ))


def _invert_chi(chi: Expr, old_x: str, new_x: str) -> Expr:
    """Solve X = chi(x) for x when chi is degree-one rational in x."""
    Xs = sym(new_x)
    try:
        groups = coefficients_in(chi, [old_x])
        if any(sig[0] > 1 for sig in groups):
            raise NonInvertible(
                f"cannot invert {to_string(chi)} for {old_x}")
        a1 = groups.get((1,), ZERO)
        a0 = groups.get((0,), ZERO)
        if zero_verdict(a1).is_zero:
            raise NonInvertible(f"{to_string(chi)} does not depend on {old_x}")
        return simplify(div(Xs - a0, a1))
    except NotPolynomial:
        pass
    # chi = a1 + a0/x  =>  x = a0 / (X - a1)
    flipped = simplify(mul(chi, sym(old_x)))
    try:
        groups = coefficients_in(flipped, [old_x])
    except NotPolynomial:
        raise NonInvertible(f"cannot invert {to_string(chi)} for {old_x}")
    if any(sig[0] > 1 for sig in groups):
        raise NonInvertible(f"cannot invert {to_string(chi)} for {old_x}")
    a1 = groups.get((1,), ZERO)
    a0 = groups.get((0,), ZERO)
    if zero_verdict(a0).is_zero:
        raise NonInvertible(f"{to_string(chi)} does not depend on {old_x}")
    return simplify(div(a0, Xs - a1))


def _affine_inverse(T: PointTransformation, inv_x: Expr) -> dict | None:
    """Inverse bindings when J is free of the dependents, i.e. Y, Z are
    affine in them: (y, z) = J^-1 ((Y, Z) - (Y, Z) at y = z = 0), with
    x = inv_x.  det J is the caller's to check."""
    ctx = T.ctx
    y, z = ctx.dependents
    (a, b), (c, d) = T.jacobian
    if any({y, z} & free_symbols(e) for e in (a, b, c, d)):
        return None
    f, g = (simplify(substitute(e, {y: ZERO, z: ZERO})) for e in (T.Y, T.Z))
    Ys, Zs = (sym(n) for n in T.new_ctx.dependents)
    ydef = simplify(div(d * (Ys - f) - b * (Zs - g), T.det))
    zdef = simplify(div(a * (Zs - g) - c * (Ys - f), T.det))
    xb = {ctx.independent: inv_x}
    return {ctx.independent: inv_x,
            y: substitute(ydef, xb),
            z: substitute(zdef, xb)}


def _is_exp_polar(T: PointTransformation) -> bool:
    y, z = T.ctx.dependents
    want_y = mul(exp(sym(y)), cos(sym(z)))
    want_z = mul(exp(sym(y)), sin(sym(z)))
    return zero_verdict(T.Y - want_y).is_zero is True and \
        zero_verdict(T.Z - want_z).is_zero is True


# the imaginary unit and the complex dependent variable u = y + i z with its
# derivative: names the parser cannot produce, so no user symbol is one
_I, _U, _UP = "%i", "%u", "%u'"


def _complex_route(sys: OdeSystem2, T: PointTransformation,
                   seed: int) -> OdeSystem2 | None:
    """The image of a CR system under the exp-polar map U = Y + i Z = e^u,
    X = chi(x), through its scalar equation u'' = omega(x, u, u'), with
    u = y + i z; None where this route does not apply.

    omega is omega1 + i omega2 at z = z' = 0 with y, y' read as u, u':
    the four symbolic CR verdicts make it analytic in (u, u').  Then
    U' = e^u u'/chi' and U'' = D_x(U')/chi' along u'' = omega, one total
    derivative; u' = chi' U' e^(-u), e^u = Y + i Z and x = chi^-1(X) are
    put in, and the real and imaginary parts are read off the powers of
    i, with i^4 = 1.  The rewrite and the split work on one canonical
    polynomial of U'' (`expr.complex_parts`), which emits the two parts
    with no expression round trip between.  The CR verdicts are the
    system's one report (`csa.check_cr` keeps it on the system).

    None where T has an explicit inverse, is not exp-polar or has
    chi' = 0, where a CR verdict is not a symbolic hold, where u or
    another old symbol survives the rewrite, or where i ends in a
    denominator (a u'^3 term leaves (Y + i Z)^-2).
    """
    if T.inverse is not None or not _is_exp_polar(T) \
            or zero_verdict(T.chi_prime, seed=seed).is_zero:
        return None
    if not all(c.holds and c.method == "symbolic"
               for c in check_cr(sys, seed=seed).checks):
        return None
    ctx, new = sys.ctx, T.new_ctx
    x = ctx.independent
    (y, z), (yp, zp) = ctx.dependents, ctx.first_derivatives
    i, u, up = sym(_I), sym(_U), sym(_UP)
    at = {y: u, z: ZERO, yp: up, zp: ZERO}
    omega = add(substitute(sys.omega1, at), mul(i, substitute(sys.omega2, at)))
    # the pair (omega, 0) in u and a dependent that nothing uses
    scalar = OdeSystem2(
        VarContext(x, (_U, "%v"), (_UP, "%v'"), ("%u''", "%v''"),
                   ctx.parameters, ctx.functions_of_x), omega, ZERO)
    eu = exp(u)
    Upp = div(total_derivative(div(mul(eu, up), T.chi_prime), scalar),
              T.chi_prime)
    Yp, Zp = (sym(n) for n in new.first_derivatives)
    Upp = substitute(Upp, {_UP: mul(T.chi_prime, add(Yp, mul(i, Zp)),
                                    pow_(eu, -1))})
    Ys, Zs = (sym(n) for n in new.dependents)
    rules = {eu: add(Ys, mul(i, Zs)),
             sym(x): _invert_chi(T.X, x, new.independent)}
    try:
        re, im, names = complex_parts(Upp, rules, _I)
    except NotPolynomial:
        return None
    if names - {_I, new.independent, *new.dependents, *new.first_derivatives,
                *new.parameters, *ctx.parameters}:
        return None
    return OdeSystem2(new, re, im)


def transform_system(sys: OdeSystem2, T: PointTransformation,
                     seed: int = 0) -> OdeSystem2:
    """Rewrite a system in the image variables of a point transformation.

    A system whose four Cauchy-Riemann verdicts are symbolic holds goes
    through its scalar complex equation (`_complex_route`) under the
    exp-polar map Y + i Z = e^(y + i z) with X = chi(x), chi' != 0 and no
    explicit inverse, unless an old symbol such as u survives there or i
    ends in a denominator.
    Every other system and map takes the real route (`_real_route`).
    """
    return _complex_route(sys, T, seed) or _real_route(sys, T, seed)


def _real_route(sys: OdeSystem2, T: PointTransformation,
                seed: int) -> OdeSystem2:
    """`transform_system` through the real pair.

    Y' and Z' are T's `first_derivatives` in the system's derivative
    names, and Y'' = D_x(Y')/chi' and Z'' = D_x(Z')/chi' are the two total
    derivatives along the system.  The old first derivatives are solved
    from chi' (Y', Z') - (Y_x, Z_x) = J (y', z'), and the old base
    variables are eliminated through the inverse map; raises NonInvertible
    where det J vanishes or no inverse is available.
    """
    ctx = sys.ctx
    new = T.new_ctx
    yp, zp = ctx.first_derivatives
    W = [simplify(div(total_derivative(F, sys), T.chi_prime))
         for F in T.first_derivatives(yp, zp)]

    # solve the first-derivative relations for the old derivatives
    if zero_verdict(T.det, seed=seed).is_zero:
        raise NonInvertible("first-derivative map is singular")
    (a, b), (c, d) = T.jacobian
    b1, b2 = (simplify(sym(n) * T.chi_prime - e)
              for n, e in zip(new.first_derivatives, T.x_partials))
    old = {yp: simplify(div(b1 * d - b * b2, T.det)),
           zp: simplify(div(a * b2 - c * b1, T.det))}
    W = [simplify(substitute(w, old)) for w in W]

    # eliminate the old base variables
    x = ctx.independent
    y, z = ctx.dependents
    if T.inverse is not None:
        bindings = T.inverse
    else:
        inv_x = _invert_chi(T.X, x, new.independent)
        bindings = _affine_inverse(T, inv_x)
    if bindings is not None:
        W = [simplify(substitute(w, bindings)) for w in W]
    elif _is_exp_polar(T):
        Ys, Zs = (sym(n) for n in new.dependents)
        S = add(pow_(Ys, 2), pow_(Zs, 2))
        half = Fraction(1, 2)
        rules = {
            sym(x): inv_x,
            exp(sym(y)): pow_(S, half),
            sin(sym(z)): mul(Zs, pow_(S, -half)),
            cos(sym(z)): mul(Ys, pow_(S, -half)),
            sym(y): mul(C(half), log(S)),
        }
        W = [rewrite_subterms(w, rules) for w in W]
    else:
        raise NonInvertible(
            "transformation is outside the supported family (affine in "
            "the dependents, or exponential-polar) and no explicit "
            "inverse was given")

    allowed = {new.independent, *new.dependents, *new.first_derivatives,
               *new.parameters, *ctx.parameters}
    for w in W:
        leftover = free_symbols(w) - allowed
        if leftover:
            raise NonInvertible(
                f"old variables {sorted(leftover)} survive the rewrite; "
                "supply an explicit inverse")
    return OdeSystem2(new, *W)


# ---------------------------------------------------------------------------
# coefficient functions


@dataclass(eq=False)
class CoefficientFn:
    """A scalar coefficient, either a closed-form expression in the
    independent variable or a table of its values on a grid.

    Tables are outputs of the reduction chain, never its inputs, and
    nothing interpolates them: a table copies its grid `xs` and `values`
    and checks them here, and is read at those knots only.  Calling a
    table, or asking it for a derivative, raises TypeError.
    """

    kind: str  # "symbolic" | "tabulated"
    expr: Expr | None = None
    var: str = "x"
    xs: np.ndarray | None = None
    values: np.ndarray | None = None
    source: str = ""
    step: float | None = None
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("symbolic", "tabulated"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "symbolic":
            if self.expr is None:
                raise ValueError("symbolic coefficient needs an expression")
            extra = free_symbols(self.expr) - {self.var}
            if extra:
                raise ValueError(
                    f"coefficient depends on undeclared symbols {extra}")
            self._rows = {}  # derivative orders -> compiled rows
        else:
            import numpy as np

            self.xs = np.array(self.xs, dtype=float)
            self.values = np.array(self.values, dtype=float)
            if self.xs.ndim != 1 or self.xs.shape != self.values.shape:
                raise ValueError("grid and values must be 1-d and aligned")
            if not np.all(np.diff(self.xs) > 0):
                raise ValueError("grid must be strictly increasing")
            if self.xs.size < 2:
                raise ValueError("`x` must contain at least 2 elements.")
            if not np.all(np.isfinite(self.xs)):
                raise ValueError("`x` must contain only finite values.")
            if not np.all(np.isfinite(self.values)):
                raise ValueError("`y` must contain only finite values.")

    # -- constructors ------------------------------------------------------
    @classmethod
    def symbolic(cls, expr: Expr | str, var: str = "x") -> "CoefficientFn":
        if isinstance(expr, str):
            expr = parse(expr, VarContext())
        return cls("symbolic", expr=simplify(expr), var=var)

    @classmethod
    def constant(cls, value) -> "CoefficientFn":
        return cls("symbolic", expr=C(value))

    @classmethod
    def of(cls, value) -> "CoefficientFn":
        """A CoefficientFn as is, an Expr or string as `symbolic`, any
        other value as `constant`."""
        if isinstance(value, CoefficientFn):
            return value
        if isinstance(value, (Expr, str)):
            return cls.symbolic(value)
        return cls.constant(value)

    @classmethod
    def tabulated(cls, xs, values, source: str = "",
                  step: float | None = None,
                  error_estimate: float = 0.0) -> "CoefficientFn":
        return cls("tabulated", xs=xs, values=values, source=source,
                   step=step, error_estimate=error_estimate)

    # -- evaluation --------------------------------------------------------
    def __call__(self, t):
        return self._sample((0,), t)[0]

    @functools.cached_property
    def derivative_expr(self) -> Expr:
        """The simplified derivative of a symbolic coefficient."""
        return simplify(differentiate(self.expr, self.var))

    def derivative(self, t):
        return self._sample((1,), t)[0]

    def with_derivative(self, t) -> tuple:
        """(self(t), self.derivative(t)) from one pass over t; a symbolic
        coefficient's domain error is the first one in t's order."""
        return tuple(self._sample((0, 1), t))

    def _sample(self, orders: tuple, t) -> list:
        """The closed form (order 0) and its derivative (order 1) at t, in
        the order of `orders`: floats at a scalar t, else flat arrays."""
        if self.kind == "tabulated":
            raise TypeError(f"the table ({self.source or 'no source'}) has "
                            "no value between its knots; read xs and values")
        rows = self._rows.get(orders)
        if rows is None:
            exprs = [self.derivative_expr if k else self.expr for k in orders]
            rows = self._rows[orders] = compile_rows(exprs, (self.var,))
        if not isinstance(t, (int, float)):
            import numpy as np

            if np.ndim(t):
                cols = rows(np.asarray(t, dtype=float).ravel().tolist())
                return [np.array(col) for col in cols]
        return [col[0] for col in rows([float(t)])]

    @property
    def domain(self) -> tuple:
        """The ends of a table's grid."""
        return (float(self.xs[0]), float(self.xs[-1]))

    def is_constant(self) -> ZeroVerdict:
        """Whether the coefficient is constant, as a ZeroVerdict of its
        derivative; a table whose spread is within 1e-6 of its scale,
        1 + max |value|, is a "numeric" one."""
        if self.kind == "symbolic":
            if not free_symbols(self.expr):
                return ZeroVerdict(True, "symbolic")
            # one canonical pass gives the derivative and its verdict
            d, verdict = simplify_verdict(differentiate(self.expr, self.var))
            self.__dict__["derivative_expr"] = d
            return verdict
        spread = float(self.values.max() - self.values.min())
        return ZeroVerdict(
            spread <= 1e-6 * (1.0 + float(abs(self.values).max())), "numeric")

    def constant_value(self) -> float:
        if self.kind == "symbolic":
            if not free_symbols(self.expr):
                return eval_expr(self.expr, {})
            return float(self(1.0))
        return float(self.values.mean())


# ---------------------------------------------------------------------------
# linear forms


_FORM_SLOTS = {
    "general": ("d11", "d12", "d21", "d22"),
    "optimal": ("dt11", "dt12", "dt21"),
    "first_order": ("a1", "a2"),
    "zero_order": ("a3", "a4"),
    "reduced": ("beta",),
}


@dataclass(eq=False)
class LinearForm:
    """One of the linear-system shapes handled by the reduction chain.

    kinds and their right-hand sides (coefficients are functions of x):
      general:     y'' = d11 y + d12 z,     z'' = d21 y + d22 z
      optimal:     y'' = dt11 y + dt12 z,   z'' = dt21 y - dt11 z
      first_order: y'' = a1 y' - a2 z',     z'' = a2 y' + a1 z'
      zero_order:  y'' = a3 y - a4 z,       z'' = a4 y + a3 z
      reduced:     y'' = -beta z,           z'' = beta y
    """

    kind: str
    coeffs: dict

    def __post_init__(self):
        slots = _FORM_SLOTS.get(self.kind)
        if slots is None:
            raise ValueError(f"unknown linear-form kind {self.kind!r}")
        if set(self.coeffs) != set(slots):
            raise ValueError(
                f"{self.kind} form needs coefficients {slots}, "
                f"got {tuple(self.coeffs)}")
        for name, c in list(self.coeffs.items()):
            self.coeffs[name] = CoefficientFn.of(c)

    def __getitem__(self, name: str) -> CoefficientFn:
        return self.coeffs[name]


# ---------------------------------------------------------------------------
# reductions


# the largest RK4 step a reduction takes; rk4_checked refines it to meet
# its error budget
REDUCTION_STEP = 1e-3


def _refuse_tables(lf: LinearForm) -> None:
    """Refuse a tabulated coefficient: tables are what the chain outputs
    (rho, X, M and the rescaled coefficients), never what it reduces."""
    for name, c in lf.coeffs.items():
        if c.kind != "symbolic":
            raise ValueError(f"coefficient {name} is tabulated; a reduction "
                             "takes closed-form coefficients only")


def _field_inputs(*coeffs) -> tuple:
    """(symbols, values) of a Field whose value v<i> is coeffs[i] at the
    stage time: each expression with its variable bound to the stage
    time."""
    return {c.var: "t" for c in coeffs}, tuple(c.expr for c in coeffs)


def _forwards(interval: tuple) -> None:
    """A reduction interval must run forwards: the tabulated outputs need
    an increasing grid."""
    if interval[1] <= interval[0]:
        raise ValueError("t1 must exceed t0")


def _integrate_coeffs(rhs: Field, t0, y0, t1, h):
    """RK4 with step doubling over a reduction interval, at a step of at
    most h: (ts, ys, err, step), as `rk4_checked` returns them."""
    try:
        return rk4_checked(rhs, t0, y0, t1, h)
    except DomainError as exc:
        raise PoleInInterval(str(exc)) from exc


def _finite_constant(e: Expr) -> float | None:
    """The value of e where e has no symbol and a finite value, else
    None."""
    if free_symbols(e):
        return None
    try:
        v = eval_expr(e, {})
    except ExprError:
        return None
    return v if math.isfinite(v) else None


def _escaped(ts, finite) -> None:
    """Raise Blowup at the first grid point where `finite` is False."""
    if not finite.all():
        raise Blowup(f"state escaped near x = {ts[finite.argmin()]:.6g}")


def _constant_rho(k: float, label: str, ts) -> tuple:
    """rho and X = t0 + integral of rho^-2 from t0 = ts[0] on ts for
    rho'' = k rho with rho(t0) = 1, rho'(t0) = 0 and constant k != 0, in
    closed form, with the sources of the two tables.  With w = sqrt(|k|)
    they are cosh(w (t - t0)) and tanh(w (t - t0)) / w for k > 0, cos and
    tan for k < 0."""
    import numpy as np

    w = math.sqrt(abs(k))
    wt = w * (ts - ts[0])
    if k > 0:
        names, root = ("cosh", "tanh"), label
        with np.errstate(over="ignore"):
            rho = np.cosh(wt)
        _escaped(ts, np.isfinite(rho))
        xs = ts[0] + np.tanh(wt) / w
    else:
        names, root = ("cos", "tan"), f"-{label}"
        rho, xs = np.cos(wt), ts[0] + np.tan(wt) / w
    return rho, xs, (
        f"rho = {names[0]}(w (t - t0)), w = sqrt({root}) = {w:.6g}",
        f"X = t0 + {names[1]}(w (t - t0)) / w")


@dataclass(eq=False)
class RescaledForm:
    """A linear form rewritten in Y = y/rho and X = integral of rho^-2."""

    form: LinearForm
    rho: CoefficientFn
    new_var: CoefficientFn
    error_estimate: float = 0.0
    # "rk4" where rho came from checked RK4, else "closed-form"
    rescaling: str = "closed-form"


def _identity_rescaling(form: LinearForm) -> RescaledForm:
    return RescaledForm(form, CoefficientFn.constant(1),
                        CoefficientFn.symbolic(sym("x")), 0.0)


def _closed_form_coefficient(c: CoefficientFn, a: Expr, k: float,
                             t0: float) -> CoefficientFn:
    """rho^4 c(t) in closed form in X, for the rho and X of `_constant_rho`
    with a = k != 0.  With S = X - t0 and w = sqrt(|k|), rho^4 = (1 - a
    S^2)^-2, and t = t0 + log((1 + w S)/(1 - w S))/(2 w) for k > 0, t0 +
    atan(w S)/w for k < 0; a constant c needs no t.  w is the double that
    `_constant_rho` takes.  X keeps c's variable name."""
    s = sym(c.var) - C(Fraction(t0))
    c_of_t = c.expr
    if free_symbols(c_of_t):
        w = C(Fraction(math.sqrt(abs(k))))
        ws = w * s
        turn = atan(ws) if k < 0 else log((1 + ws) / (1 - ws)) / 2
        c_of_t = substitute(c_of_t, {c.var: C(Fraction(t0)) + turn / w})
    return CoefficientFn.symbolic(pow_(1 - a * s * s, -2) * c_of_t,
                                  var=c.var)


def _rescale(kind: str, a_inputs: tuple, a_code: str, a_label: str,
             a: Expr, coeffs: dict, interval: tuple) -> RescaledForm:
    """Solve rho'' = a(t) rho with rho(t0) = 1, rho'(t0) = 0 together with
    the new variable X = integral of rho^-2 pinned to agree with t at t0,
    and rewrite each rho^4 * coeffs[name](t) over X as a `kind` form.
    Where a is a constant k != 0, rho and X take their closed form on
    rk4_checked's grid of REDUCTION_STEP, and so does each coefficient
    (see `_closed_form_coefficient`); else RK4 integrates them at a step
    of at most REDUCTION_STEP, with a_code computing a(t) from the values
    v0, v1, ... of the coefficients a_inputs, and each coefficient is
    tabulated over X.  The tables carry the step of the run kept.

    With Y = y/rho and dX/dt = rho^-2 one gets d2Y/dX2 = rho^3 y'' -
    rho^2 rho'' y, so each coefficient of the rescaled system carries a
    factor rho^4 (rho^3 from the variable change times rho from y = rho Y).
    """
    _forwards(interval)
    t0, t1 = interval
    k = _finite_constant(a)
    h = REDUCTION_STEP
    if k:
        ts = checked_grid(t0, t1, h)
        rho, xs, (rho_src, x_src) = _constant_rho(k, a_label, ts)
        err, route = 0.0, "closed-form"
    else:
        # s0 ** -2 raises below the least float whose ** -2 is finite: rho
        # is then 0 or tiny, and RhoVanishes follows
        rhs = Field(*_field_inputs(*a_inputs), ("s1", f"({a_code}) * s0",
                    "inf if abs(s0) < 7.458340731200208e-155 else s0 ** -2"))
        ts, ys, err, h = _integrate_coeffs(rhs, t0, (1.0, 0.0, t0), t1, h)
        rho, xs = ys[:, 0], ys[:, 2]
        rho_src, x_src = f"rho'' = {a_label} rho", "integral of rho^-2"
        route = "rk4"
    below = (rho <= 1e-9).nonzero()[0]
    if below.size:
        hit = int(below[0])
        raise RhoVanishes(float(ts[hit]), (t0, float(ts[max(hit - 1, 0)])))
    require_accuracy(err)
    # X' = rho^-2 > 0, but X stops increasing in float where rho^-2 is
    # below X's ulp (tanh saturates near w (t - t0) = 19)
    stalled = xs[1:] <= xs[:-1]
    if stalled.any():
        raise Blowup(f"integral of rho^-2 stops increasing near x = "
                     f"{ts[stalled.argmax() + 1]:.6g}")
    quart = rho ** 4
    src = f"{rho_src}; coefficients times rho^4 on {x_src}"
    form = LinearForm(kind, {
        name: _closed_form_coefficient(c, a, k, t0) if k else
        CoefficientFn.tabulated(xs, quart * c(ts), src, h, err)
        for name, c in coeffs.items()})
    rho_fn = CoefficientFn.tabulated(ts, rho, rho_src, h, err)
    new_var = CoefficientFn.tabulated(ts, xs, x_src, h, err)
    return RescaledForm(form, rho_fn, new_var, err, route)


def reduce_optimal(lf: LinearForm, interval: tuple) -> RescaledForm:
    """Rescale a general linear system to its trace-free optimal form.

    The rescaling function solves rho'' = ((d11+d22)/2) rho with
    rho(x0) = 1, rho'(x0) = 0, and the new independent variable is the
    integral of rho^-2 pinned to agree with the old one at x0.  Every
    coefficient must be closed-form (ValueError otherwise).
    """
    if lf.kind != "general":
        raise ValueError("reduce_optimal expects a general-kind form")
    _refuse_tables(lf)
    d11, d12 = lf["d11"], lf["d12"]
    d21, d22 = lf["d21"], lf["d22"]

    half = C(Fraction(1, 2))
    # the coefficient a = (d11 + d22)/2 of rho'' = a rho
    a = simplify(mul(half, d11.expr + d22.expr))
    dt11 = CoefficientFn.symbolic(
        simplify(mul(half, d11.expr - d22.expr)), var=d11.var)
    coeffs = {"dt11": dt11, "dt12": d12, "dt21": d21}
    if zero_verdict(a).is_zero:
        # rho stays at 1 and the off-diagonal coefficients pass through
        return _identity_rescaling(LinearForm("optimal", coeffs))
    if not _finite_constant(a):
        # RK4's table of dt11 comes from the values of d11 and d22
        coeffs["dt11"] = lambda t: 0.5 * (d11(t) - d22(t))
    return _rescale("optimal", (d11, d22), "0.5 * (v0 + v1)",
                    "((d11+d22)/2)", a, coeffs, interval)


def reduce_25_to_28(lf: LinearForm, interval: tuple) -> RescaledForm:
    """Reduce the undifferentiated-coupling form to the single-coefficient
    reduced form: rho'' = a3 rho, beta = rho^4 a4 on the rescaled variable.
    a3 and a4 must be closed-form (ValueError otherwise).
    """
    if lf.kind != "zero_order":
        raise ValueError("reduce_25_to_28 expects a zero_order-kind form")
    _refuse_tables(lf)
    a3, a4 = lf["a3"], lf["a4"]

    if zero_verdict(a3.expr).is_zero:
        # rho stays at 1 and the variable change is the identity
        beta = CoefficientFn.symbolic(a4.expr, var=a4.var)
        return _identity_rescaling(LinearForm("reduced", {"beta": beta}))

    return _rescale("reduced", (a3,), "v0", "a3", a3.expr, {"beta": a4},
                    interval)


@dataclass(eq=False)
class FirstOrderReduction:
    form: LinearForm
    m1: CoefficientFn
    m2: CoefficientFn
    error_estimate: float = 0.0
    # "rk4" where (M1, M2) came from checked RK4, else "closed-form"
    rescaling: str = "closed-form"


def _polynomial(c: CoefficientFn) -> list | None:
    """[c0, c1, ...] of a coefficient c0 + c1 x + ... with finite numeric
    c_k, else None."""
    try:
        groups = coefficients_in(c.expr, [c.var])
    except NotPolynomial:
        return None
    out = [0.0] * (max(groups, default=(0,))[0] + 1)
    for (k,), e in groups.items():
        out[k] = _finite_constant(e)
        if out[k] is None:
            return None
    return out


def _integral(coeffs: list, ts):
    """The integral from ts[0] to ts of the polynomial sum of coeffs[k]
    t^k, from its exact antiderivative (by Horner's rule)."""
    def antiderivative(t):
        out = 0.0
        for k in range(len(coeffs) - 1, -1, -1):
            out = out * t + coeffs[k] / (k + 1)
        return out * t
    return antiderivative(ts) - antiderivative(ts[0])


def _exp_half_integral(c1: list, c2: list, ts) -> tuple:
    """(M1, M2) = exp((A + i B)/2) on ts, with A and B the integrals from
    ts[0] of the polynomials c1 and c2: M' = (a1 + i a2) M / 2, M(ts[0]) =
    1 in closed form."""
    import numpy as np

    # an overflow leaves inf or NaN, which the modulus check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        half_a, half_b = 0.5 * _integral(c1, ts), 0.5 * _integral(c2, ts)
        scale = np.exp(half_a)
        return scale * np.cos(half_b), scale * np.sin(half_b)


def reduce_24_to_25(lf: LinearForm, interval: tuple) -> FirstOrderReduction:
    """Trade first-derivative coupling for undifferentiated coupling.

    The rescaling u = M v with M' = zeta M / 2, zeta = a1 + i a2 and
    M(x0) = 1, turns u'' = zeta u' into v'' = (zeta^2/4 - zeta'/2) v
    whatever M is, so a3 + i a4 is computed once from a1 and a2, in
    closed form: a1 and a2 must be closed-form (ValueError otherwise).
    Where they are polynomials with numeric coefficients, M1 + i M2 =
    exp((A + i B)/2) with A, B their exact integrals from x0, on
    rk4_checked's grid of REDUCTION_STEP; else RK4 integrates the pair
    at a step of at most REDUCTION_STEP.
    """
    if lf.kind != "first_order":
        raise ValueError("reduce_24_to_25 expects a first_order-kind form")
    _refuse_tables(lf)
    _forwards(interval)
    t0, t1 = interval
    a1, a2 = lf["a1"], lf["a2"]
    c1, c2 = _polynomial(a1), _polynomial(a2)
    h = REDUCTION_STEP
    if c1 is not None and c2 is not None:
        ts = checked_grid(t0, t1, h)
        m1, m2 = _exp_half_integral(c1, c2, ts)
        err, route = 0.0, "closed-form"
        src = "M1 + i M2 = exp((A + i B)/2), A and B the integrals of a1 " \
            "and a2 from t0"
    else:
        rhs = Field(*_field_inputs(a1, a2), ("0.5 * (v0 * s0 - v1 * s1)",
                                             "0.5 * (v0 * s1 + v1 * s0)"))
        ts, ys, err, h = _integrate_coeffs(rhs, t0, (1.0, 0.0), t1, h)
        m1, m2 = ys[:, 0], ys[:, 1]
        route = "rk4"
        src = "2M1' = a1 M1 - a2 M2, 2M2' = a1 M2 + a2 M1"
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        modulus = m1 ** 2 + m2 ** 2
    _escaped(ts, np.isfinite(modulus))
    if float(modulus.min()) < 1e-12:
        raise MDegenerate("M1^2 + M2^2 vanished on the interval")
    require_accuracy(err)
    m1_fn = CoefficientFn.tabulated(ts, m1, src, h, err)
    m2_fn = CoefficientFn.tabulated(ts, m2, src, h, err)

    e1, e2 = a1.expr, a2.expr
    quarter, half = C(Fraction(1, 4)), C(Fraction(1, 2))
    coeffs = {
        "a3": CoefficientFn.symbolic(
            quarter * (e1 * e1 - e2 * e2)
            - half * differentiate(e1, a1.var), var=a1.var),
        "a4": CoefficientFn.symbolic(
            half * e1 * e2 - half * differentiate(e2, a2.var), var=a2.var),
    }
    return FirstOrderReduction(LinearForm("zero_order", coeffs), m1_fn,
                               m2_fn, err, route)


def reduce_chain(lf: LinearForm, interval: tuple) -> list:
    """The reductions that carry lf down its chain on interval, in order:
    general -> optimal, or first_order -> zero_order -> reduced.  Each is
    the RescaledForm or FirstOrderReduction whose form the next one
    reduces; the list is empty for an optimal or reduced form."""
    # looked up per call: a tracer that rebinds the steps in this module
    # times each of them
    step = {"general": reduce_optimal, "first_order": reduce_24_to_25,
            "zero_order": reduce_25_to_28}
    chain = []
    while lf.kind in step:
        chain.append(step[lf.kind](lf, interval))
        lf = chain[-1].form
    return chain


# ---------------------------------------------------------------------------
# constant-linear-map equivalence


@dataclass(frozen=True)
class EquivalenceVerdict:
    consistent: bool
    case: str  # equivalent, inconsistent, or one of the two corners
    chain: tuple
    solution: dict | None = None  # P = [[a, b], [c, d]] with u = P v
    method: str = "symbolic"  # "numeric" when a constant is not rational


def attempt_linear_equivalence(opt: LinearForm, target: LinearForm
                               ) -> EquivalenceVerdict:
    """Decide whether a constant map u = P v carries an optimal form
    u'' = A u to a zero_order (or reduced) form v'' = B v, all constant:
    iff A = [[dt11, dt12], [dt21, -dt11]] and B = [[a3, -a4], [a4, a3]] are
    similar, i.e. a3 = 0 and a4^2 = -(dt11^2 + dt12*dt21) != 0, or A = B = 0.
    Then P = [[1, dt11/a4], [0, dt21/a4]], checked against AP = PB.  The
    tests are exact when every constant is rational (method "symbolic"),
    else to a relative 1e-12 of the largest one ("numeric")."""
    if opt.kind != "optimal":
        raise ValueError("first argument must be an optimal-kind form")
    if target.kind not in ("zero_order", "reduced"):
        raise ValueError("target must be zero_order- or reduced-kind")
    for name, cfn in {**opt.coeffs, **target.coeffs}.items():
        if not cfn.is_constant():
            raise ValueError(
                f"coefficient {name} is not constant; a variable-"
                "coefficient map forces constant entries anyway")
    cfns = (opt["dt11"], opt["dt12"], opt["dt21"],
            *((target["a3"], target["a4"]) if target.kind == "zero_order"
              else (CoefficientFn.constant(0), target["beta"])))
    values = [_rational_value(f.expr) if f.kind == "symbolic" else None
              for f in cfns]
    exact = None not in values
    a, b, c, s, t = values if exact else [f.constant_value() for f in cfns]
    rtol, num = (0, Fraction) if exact else (1e-12, float)
    scale = max(map(abs, (a, b, c, s, t)))
    def same(u, v, degree=1) -> bool:  # u, v of that degree in A and B
        return abs(u - v) <= rtol * scale ** degree
    det_a, det_b = -(a * a + b * c), s * s + t * t
    a_zero = all(same(v, 0) for v in (a, b, c))
    chain = [f"A = [[{a}, {b}], [{c}, {-a}]], trace 0, determinant {det_a}",
             f"B = [[{s}, {-t}], [{t}, {s}]], trace {2 * s}, determinant "
             f"{det_b}"] + ([] if exact else [
                 "a constant is not rational: equalities hold to a "
                 "relative 1e-12 of the largest constant"])
    P = None
    if a_zero and same(s, 0) and same(t, 0):
        case, reason, P = "both-free-particle", "A = B = 0: both are the " \
            "free particle; the identity map suffices", ((1, 0), (0, 1))
    elif not a_zero and same(det_a, 0, 2):
        case, reason = "degenerate-family", "A != 0 is nilpotent and no B " \
            "is: the degenerate family, with an 8-dimensional symmetry algebra"
    elif not same(s, 0):  # a scalar A or B left differs in trace or det
        case, reason = "inconsistent", f"trace 0 of A != trace {2 * s} of B"
    elif not same(det_a, det_b, 2):
        case, reason = "inconsistent", \
            f"determinant {det_a} of A != determinant {det_b} of B"
    else:
        A, B = ((a, b), (c, -a)), ((s, -t), (t, s))
        P = ((1, a / t), (0, c / t))
        case, reason = "equivalent", "equal traces and determinants: A and " \
            f"B are similar, AP = PB for P = [[1, {P[0][1]}], [0, {P[1][1]}]]"
        if not all(same(t * sum(A[i][k] * P[k][j] for k in (0, 1)),
                        t * sum(P[i][k] * B[k][j] for k in (0, 1)), 2)
                   for i in (0, 1) for j in (0, 1)):
            case, reason, P = "inconsistent", "P fails AP = PB", None
    if case == "inconsistent":
        reason += " -- contradiction"
    sol = P and dict(zip("abcd", map(num, (*P[0], *P[1]))))
    return EquivalenceVerdict(P is not None, case, (*chain, reason), sol,
                              "symbolic" if exact else "numeric")
