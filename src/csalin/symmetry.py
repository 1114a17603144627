"""Lie point symmetries of systems of two second-order ODEs.

Second prolongation, determining equations for the reduced canonical form
y'' = -beta z, z'' = beta y, explicit generator verification, and the
6 / 7 / 15 symmetry-dimension classification driven by the shape of beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .canon import CoefficientFn, PoleInInterval, total_derivative
from .cubic import OdeSystem2
from .expr import (
    C, Expr, ExprError, EvalDomainError, VarContext, ZERO, _rational_value,
    add, coefficients_in, differentiate, div, enclose, eval_expr,
    free_symbols, mul, neg, parse, pow_, simplify, sym, to_string,
    zero_verdict,
    exp as e_exp, sin as e_sin, cos as e_cos,
)
from .reports import ConditionCheck, ConditionReport


class IntervalTooSmall(ExprError):
    """The collocation interval is too short to count dimensions reliably."""


@dataclass(frozen=True)
class VectorField:
    """A point-symmetry candidate xi d/dx + eta1 d/dy + eta2 d/dz."""

    ctx: VarContext
    xi: Expr
    eta1: Expr
    eta2: Expr

    def __post_init__(self):
        banned = set(self.ctx.first_derivatives) | \
            set(self.ctx.second_derivatives)
        for comp in (self.xi, self.eta1, self.eta2):
            hit = free_symbols(comp) & banned
            if hit:
                raise ValueError(
                    f"point symmetries cannot involve derivatives: {hit}")

    @property
    def components(self):
        return (self.xi, self.eta1, self.eta2)


def prolong2_residuals(sys: OdeSystem2, V: VectorField) -> tuple:
    """Residuals of the infinitesimal symmetry condition.

    Prolongs V to second order along solutions of the system and returns
    the pair (R1, R2) that must vanish identically in (x, y, z, y', z')
    for V to generate a point symmetry.
    """
    ctx = sys.ctx
    y, z = ctx.dependents
    yp, zp = ctx.first_derivatives
    Dxi = total_derivative(V.xi, sys)
    eta1_1 = simplify(total_derivative(V.eta1, sys) - sym(yp) * Dxi)
    eta2_1 = simplify(total_derivative(V.eta2, sys) - sym(zp) * Dxi)
    eta1_2 = simplify(total_derivative(eta1_1, sys) - sys.omega1 * Dxi)
    eta2_2 = simplify(total_derivative(eta2_1, sys) - sys.omega2 * Dxi)

    def applied(omega):
        return simplify(add(
            V.xi * differentiate(omega, ctx.independent, ctx),
            V.eta1 * differentiate(omega, y),
            V.eta2 * differentiate(omega, z),
            eta1_1 * differentiate(omega, yp),
            eta2_1 * differentiate(omega, zp),
        ))

    r1 = simplify(eta1_2 - applied(sys.omega1))
    r2 = simplify(eta2_2 - applied(sys.omega2))
    return r1, r2


def check_symmetry(sys: OdeSystem2, V: VectorField,
                   seed: int = 0) -> tuple:
    """(verdict, report): does V generate a point symmetry of the system?"""
    r1, r2 = prolong2_residuals(sys, V)
    checks = []
    for label, r in (("first residual", r1), ("second residual", r2)):
        v = zero_verdict(r, seed=seed)
        detail = "" if v.is_zero else f"residual = {to_string(r)}"
        checks.append(ConditionCheck(label, bool(v.is_zero), v.method,
                                     detail))
    report = ConditionReport(title="point-symmetry residuals",
                             checks=tuple(checks))
    return report.overall, report


# ---------------------------------------------------------------------------
# the reduced canonical system and its determining equations


def reduced_system(beta: Expr, ctx: VarContext) -> OdeSystem2:
    """The single-coefficient canonical system y'' = -beta z, z'' = beta y."""
    y, z = (sym(n) for n in ctx.dependents)
    return OdeSystem2(ctx, simplify(neg(beta * z)), simplify(beta * y))


@dataclass(frozen=True)
class DeterminingSystem:
    """Residuals whose identical vanishing characterizes the symmetries of
    the reduced canonical system, expressed through an ansatz whose
    x-dependent pieces are opaque functions g1..g9 (full ansatz) or
    g3, g6, g9 with constants c1..c4 (reduced ansatz)."""

    ctx: VarContext
    residuals: tuple
    ansatz: str  # "full" | "reduced"
    raw: tuple = ()


def _beta_expr(beta) -> Expr:
    if isinstance(beta, CoefficientFn):
        if beta.kind != "symbolic":
            raise ValueError("a closed-form coefficient is required here")
        return beta.expr
    if isinstance(beta, str):
        return parse(beta, VarContext())
    return beta


def determining_system_reduced(beta, ansatz: str = "full"
                               ) -> DeterminingSystem:
    """Determining equations of the reduced canonical system.

    Generated by substituting the point-symmetry ansatz into the second
    prolongation and splitting by monomials in the first derivatives (and,
    for the reduced ansatz, in the dependents as well); every residual
    must vanish identically in x.
    """
    b = _beta_expr(beta)
    if ansatz == "full":
        funcs = [f"g{i}" for i in range(1, 10)]
        ctx = VarContext().with_functions(funcs)
        y, z = (sym(n) for n in ctx.dependents)
        g = {i: sym(f"g{i}") for i in range(1, 10)}
        dg1, dg2 = sym("g1'"), sym("g2'")
        xi = g[1] * y + g[2] * z + g[3]
        eta1 = dg1 * pow_(y, 2) + dg2 * y * z + g[4] * y + g[5] * z + g[6]
        eta2 = dg1 * y * z + dg2 * pow_(z, 2) + g[7] * y + g[8] * z + g[9]
        split_vars = list(ctx.first_derivatives)
    elif ansatz == "reduced":
        ctx = VarContext(parameters=frozenset({"c1", "c2", "c3", "c4"})) \
            .with_functions(["g3", "g6", "g9"])
        y, z = (sym(n) for n in ctx.dependents)
        half = C(Fraction(1, 2))
        xi = sym("g3")
        eta1 = (half * sym("g3'") + sym("c3")) * y + sym("c1") * z + sym("g6")
        eta2 = sym("c2") * y + (half * sym("g3'") + sym("c4")) * z + sym("g9")
        split_vars = list(ctx.first_derivatives) + list(ctx.dependents)
    else:
        raise ValueError(f"unknown ansatz {ansatz!r}")

    sysr = reduced_system(b, ctx)
    V = VectorField(ctx, simplify(xi), simplify(eta1), simplify(eta2))
    r1, r2 = prolong2_residuals(sysr, V)
    residuals = []
    for r in (r1, r2):
        groups = coefficients_in(r, split_vars)
        for sig in sorted(groups):
            residuals.append(simplify(groups[sig]))
    return DeterminingSystem(ctx, tuple(residuals), ansatz=ansatz,
                             raw=(r1, r2))


# ---------------------------------------------------------------------------
# explicit generator sets


def free_particle_algebra(ctx: VarContext | None = None) -> list:
    """The 15 point-symmetry generators of the free-particle system."""
    ctx = ctx or VarContext()
    x = sym(ctx.independent)
    y, z = (sym(n) for n in ctx.dependents)
    rows = [
        (C(1), ZERO, ZERO),
        (ZERO, C(1), ZERO),
        (ZERO, ZERO, C(1)),
        (x, ZERO, ZERO),
        (ZERO, x, ZERO),
        (ZERO, ZERO, x),
        (y, ZERO, ZERO),
        (z, ZERO, ZERO),
        (ZERO, y, ZERO),
        (ZERO, z, ZERO),
        (ZERO, ZERO, y),
        (ZERO, ZERO, z),
        (pow_(x, 2), mul(x, y), mul(x, z)),
        (mul(x, y), pow_(y, 2), mul(y, z)),
        (mul(x, z), mul(y, z), pow_(z, 2)),
    ]
    return [VectorField(ctx, *row) for row in rows]


def constant_beta_witnesses(k) -> list:
    """Seven point-symmetry generators of y'' = -k z, z'' = k y (k != 0).

    Besides the translation, scaling and rotation fields, four generators
    with x-dependent translations solve the fourth-order equation
    g'''' = -k^2 g; their building block is a = sqrt(|k|/2).  They are the
    instance a = sqrt(|k|/2) of the fields that `_constant_case_proof`
    proves once per process, symbolically, for a parameter a and
    k = +-2 a^2.
    """
    k = Fraction(k)
    if k == 0:
        raise ValueError("the constant coefficient must be nonzero")
    a = pow_(C(abs(k) / 2), Fraction(1, 2))
    return _constant_beta_fields(VarContext(), a, C(k))


def _constant_beta_fields(ctx: VarContext, a: Expr, k: Expr) -> list:
    """The seven constant-case fields for expressions a and k = +-2 a^2."""
    x = sym(ctx.independent)
    y, z = (sym(n) for n in ctx.dependents)
    fields = [
        VectorField(ctx, C(1), ZERO, ZERO),
        VectorField(ctx, ZERO, y, z),
        VectorField(ctx, ZERO, z, neg(y)),
    ]
    for s in (1, -1):
        envelope = e_exp(mul(C(s), a, x))
        for trig in (e_sin, e_cos):
            g6 = mul(envelope, trig(mul(a, x)))
            g9 = simplify(div(neg(differentiate(
                differentiate(g6, ctx.independent), ctx.independent)), k))
            fields.append(VectorField(ctx, ZERO, simplify(g6), g9))
    return fields


def serialize_generators(fields) -> str:
    lines = []
    for f in fields:
        lines.append(f"xi={to_string(f.xi)}; eta1={to_string(f.eta1)}; "
                     f"eta2={to_string(f.eta2)}")
    return "\n".join(lines) + "\n"


def parse_generators(text: str, ctx: VarContext | None = None) -> list:
    ctx = ctx or VarContext()
    fields = []
    for line in text.strip().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = dict(chunk.strip().split("=", 1)
                     for chunk in line.split(";"))
        fields.append(VectorField(ctx, parse(parts["xi"], ctx),
                                  parse(parts["eta1"], ctx),
                                  parse(parts["eta2"], ctx)))
    return fields


def generator_rank(fields, sample_seed: int = 0) -> int:
    """Linear independence count of vector fields by evaluation functionals.

    Each field is evaluated at 12 random (x, y, z) points (36 columns);
    the rank uses a 1e-8 relative singular-value cutoff.
    """
    import numpy as np

    if not fields:
        raise ValueError("need at least one field")
    ctx = fields[0].ctx
    names = (ctx.independent, *ctx.dependents)
    last_err = None
    for attempt in range(5):
        rng = np.random.default_rng(sample_seed + attempt)
        pts = [{n: float(v) for n, v in
                zip(names, rng.uniform(0.3, 1.7, size=3))}
               for _ in range(12)]
        try:
            rows = []
            for f in fields:
                row = []
                for pt in pts:
                    row.extend(eval_expr(comp, pt) for comp in f.components)
                rows.append(row)
        except EvalDomainError as exc:
            last_err = exc
            continue
        svals = np.linalg.svd(np.array(rows), compute_uv=False)
        if svals.size == 0 or svals[0] == 0.0:
            return 0
        return int(np.sum(svals > 1e-8 * svals[0]))
    raise EvalDomainError(
        f"generators not evaluable at any sampled points: {last_err}", None)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class RankReport:
    shape: tuple
    singular_values: tuple
    rank: int
    cutoff: float
    collocation_points: int


@dataclass(frozen=True)
class Classification:
    dimension: int
    case_label: str
    witness: tuple | None = None
    rank_report: RankReport | None = None
    notes: tuple = ()

    def render(self) -> str:
        lines = [f"symmetry dimension {self.dimension} [{self.case_label}]"]
        if self.witness is not None:
            lines.append(f"  witnesses: {len(self.witness)} generators")
        if self.rank_report is not None:
            r = self.rank_report
            lines.append(
                f"  collocation: matrix {r.shape[0]}x{r.shape[1]}, "
                f"rank {r.rank} at cutoff {r.cutoff:g} "
                f"({r.collocation_points} points)")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


# Bisection certifies a closed-form beta and beta' finite: a failing piece
# narrower than the floor ends it, and so does the piece budget.
_WIDTH_FLOOR = 1e-6
_PIECE_BUDGET = 4096


def _refusal(cf: CoefficientFn, a: float, b: float) -> str:
    """Why [a, b] was not certified: a sample of beta or beta' there that
    is not finite, or else only that the enclosure was too wide."""
    for x in (a, 0.5 * (a + b), b):
        try:
            finite = math.isfinite(cf(x)) and math.isfinite(cf.derivative(x))
        except EvalDomainError as exc:
            return (f"coefficient not evaluable on the interval near "
                    f"x = {x:.6g}: {exc}")
        if not finite:
            return f"coefficient not finite on the interval near x = {x:.6g}"
    return f"could not certify beta (or beta') finite on [{a:.9g}, {b:.9g}]"


def _certify_finite(cf: CoefficientFn, lo: float, hi: float) -> None:
    """Raise PoleInInterval unless every piece of a depth-first bisection
    of [lo, hi] has finite enclosures (`expr.enclose`) of beta and beta'."""
    exprs = (cf.expr, cf.derivative_expr)
    pieces = [(lo, hi)]
    for _ in range(_PIECE_BUDGET):
        a, b = pieces.pop()
        box = {cf.var: (a, b)}
        if all(enclose(e, box) is not None for e in exprs):
            if not pieces:
                return
            continue
        mid = 0.5 * (a + b)
        if b - a < _WIDTH_FLOOR or not a < mid < b:  # or no float between
            raise PoleInInterval(_refusal(cf, a, b))
        pieces += [(mid, b), (a, mid)]
    raise PoleInInterval(
        f"could not certify beta (or beta') finite on [{a:.9g}, {b:.9g}] "
        f"within {_PIECE_BUDGET} pieces")


def _collocation_rank(cf: CoefficientFn, interval,
                      svd_cut: float) -> RankReport:
    """Count independent constraints on the 11 symmetry parameters.

    The reduced determining equations leave g3, g6, g9 and c1..c4 with
    g3''' = -2 beta (c1 + c2), g6'' = -beta g9, g9'' = beta g6 and the
    algebraic rows r1, r2 = 2 beta g3' + beta' g3 -+ beta (c3 - c4) and
    r3 = beta (c1 + c2).  Where beta is nonzero, r3 forces c1 + c2 = 0, so
    g3''' = 0 and g3 = a0 + a1 s + a2 s^2 / 2 (s = x - lo) is a quadratic.
    g6 and g9 enter no row, so their four initial values are free
    parameters.  Each row is thus an exact linear form in
    (a0, a1, a2, c1, c2, c3, c4), taken at 40 evenly spaced collocation
    points; no ODE is solved, and the rank counts the constraints on all
    11 parameters.

    The collocation points are those of a grid of step at most 1e-3 and
    at least 200 steps, computed without building the grid, and they are
    the only points where beta and beta' are sampled.  A closed-form beta
    is first certified finite on the whole interval: interval enclosures
    of beta and beta' must be finite on every piece of a bisection of it.
    A failing piece narrower than `_WIDTH_FLOOR`, or a bisection longer
    than `_PIECE_BUDGET` pieces, raises PoleInInterval.  It names a sample
    of the piece that is not finite or, for a finite but steep beta, says
    only that beta could not be certified.  A tabulated beta is a cubic
    spline on finite data, finite on its domain.  A collocation sample
    that is not finite raises PoleInInterval too.
    """
    import numpy as np

    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    if span < 1e-2:
        raise IntervalTooSmall(
            f"interval [{lo}, {hi}] is too short for collocation")
    if cf.kind == "symbolic":
        _certify_finite(cf, lo, hi)
    n = int(np.ceil(span / min(1e-3, span / 199.5)))
    idx = np.unique(np.round(np.linspace(0, n, 40)).astype(int))
    h = span / n
    xs = lo + h * idx
    bvals, dbvals = cf.with_derivative(xs)
    bad = ~(np.isfinite(bvals) & np.isfinite(dbvals))
    if bad.any():  # an inf or NaN row would reach the SVD
        where = xs[bad].min()
        raise PoleInInterval(
            f"coefficient not finite on the interval near x = {where:.6g}")

    rows = []
    for b, db, s in zip(bvals, dbvals, xs - lo):
        g3 = [db, 2.0 * b + db * s, 2.0 * b * s + db * s * s / 2.0]
        rows += [g3 + [0.0, 0.0, -b, b],            # r1
                 g3 + [0.0, 0.0, b, -b],            # r2
                 [0.0, 0.0, 0.0, b, b, 0.0, 0.0]]   # r3
    mat = np.array(rows)
    norms = np.linalg.norm(mat, axis=1)
    keep = norms > 0
    mat = mat[keep] / norms[keep, None]
    if mat.size == 0:
        svals = np.zeros(0)
        rank = 0
    else:
        svals = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(svals > svd_cut * svals[0]))
    return RankReport(shape=mat.shape, singular_values=tuple(svals),
                      rank=rank, cutoff=svd_cut,
                      collocation_points=len(idx))


def _universal_witnesses(ctx: VarContext) -> tuple:
    """Scaling and rotation fields, symmetries for every beta."""
    y, z = (sym(n) for n in ctx.dependents)
    return (VectorField(ctx, ZERO, y, z),
            VectorField(ctx, ZERO, z, neg(y)))


@functools.cache
def _universal_proof() -> tuple:
    """check_symmetry's (verdict, report) for each `_universal_witnesses`
    field on y'' = -b z, z'' = b y with b an opaque function of x.

    Every closed-form beta(x) is a substitution instance of b, so one
    proof per process stands for all of them.
    """
    ctx = VarContext().with_functions(["b"])
    sysr = reduced_system(sym("b"), ctx)
    return tuple(check_symmetry(sysr, w) for w in _universal_witnesses(ctx))


@functools.cache
def _constant_case_proof(sign: int) -> tuple:
    """check_symmetry's (verdict, report) for each constant-case field on
    y'' = -k z, z'' = k y with k = 2 sign a^2 and a a parameter.

    A rational constant k of that sign is the instance a = sqrt(|k|/2).
    """
    ctx = VarContext().with_parameters(["a"])
    a = sym("a")
    k = mul(C(2 * sign), pow_(a, 2))
    sysr = reduced_system(k, ctx)
    return tuple(check_symmetry(sysr, w)
                 for w in _constant_beta_fields(ctx, a, k))


@functools.lru_cache(maxsize=256)
def _constant_witnesses(k: Fraction) -> tuple:
    """`constant_beta_witnesses(k)` as a tuple, built once per rational k.

    The fields are frozen, so callers may share the tuple; the bound keeps
    a long run over many constants from growing the cache without limit.
    """
    return tuple(constant_beta_witnesses(k))


def classify_beta(beta, interval: tuple = (0.5, 3.0), seed: int = 0,
                  svd_cut: float = 1e-8) -> Classification:
    """Symmetry-dimension classification of y'' = -beta z, z'' = beta y.

    Zero and constant beta are decided symbolically (15 and 7 dimensions,
    with explicit witnesses; a constant that is not rational gets a note
    instead).  Witnesses are not proved per call: the scaling and rotation
    fields are proved once per process, symbolically, for an opaque
    beta = b(x), and the seven constant-case fields once per sign for a
    parametric k = +-2 a^2; every beta that reaches those branches is an
    instance of them.  The seven fields of a rational constant are built
    once per value.  Variable beta goes through the
    collocation rank count of `_collocation_rank`, which solves no ODE:
    g3 is a quadratic there, and its rows use beta and beta' at the 40
    collocation points, the only points where beta is sampled.  A
    closed-form beta is first certified finite on the interval by interval
    enclosures of beta and beta' on a bisection of it; one that cannot be
    certified raises PoleInInterval.  It yields 7 when |beta|^(-1/2) is a
    polynomial of degree <= 2 and 6 otherwise, so never 5 or 8.
    """
    ctx = VarContext()
    cf = CoefficientFn.of(beta)

    if cf.kind == "symbolic":
        b = cf.expr
        if zero_verdict(b, seed=seed).is_zero:
            wit = tuple(free_particle_algebra(ctx))
            return Classification(15, "coefficient identically zero", witness=wit)
        if cf.is_constant():
            k = simplify(b)
            notes = ()
            wit = None
            value = _rational_value(k)
            if value is None:
                notes = (f"no witnesses built: the constant {to_string(k)} "
                         "is not rational",)
            elif all(ok for ok, _ in _constant_case_proof(
                    1 if value > 0 else -1)):
                wit = _constant_witnesses(value)
            else:
                notes = ("closed-form constant-case witnesses failed "
                         "verification and were dropped",)
            return Classification(7, "nonzero constant coefficient", witness=wit,
                                  notes=notes)
        wit = tuple(w for w, (ok, _) in zip(_universal_witnesses(ctx),
                                            _universal_proof()) if ok)
    else:
        if cf.is_constant(rtol=1e-6):
            if abs(cf.constant_value()) <= 1e-12:
                return Classification(15, "coefficient identically zero")
            return Classification(7, "nonzero constant coefficient",
                                  notes=("constancy detected numerically "
                                         "from the tabulated grid",))
        lo, hi = cf.domain
        interval = (max(interval[0], lo), min(interval[1], hi))
        wit = None

    report = _collocation_rank(cf, interval, svd_cut)
    dim = 11 - report.rank
    if dim == 7:
        label = "variable coefficient, 7-dimensional"
    elif dim == 6:
        label = "variable coefficient, 6-dimensional"
    else:
        label = "numeric"
    return Classification(dim, label, witness=wit or None,
                          rank_report=report)
