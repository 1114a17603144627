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
    Add, C, Constant, Div, Expr, ExprError, EvalDomainError, Mul, Neg, Pow,
    Symbol, VarContext, ZERO, ZeroVerdict, _rational_value,
    add, coefficients_in, differentiate, div, eval_expr, free_symbols, jet,
    mul, neg, parse, pow_, simplify, simplify_verdict, sym, to_string,
    exp as e_exp, sin as e_sin, cos as e_cos,
)
from .numerics import row_derivative
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


def _prolong2(sys: OdeSystem2, V: VectorField) -> tuple:
    """The two residuals of `prolong2_residuals`, each before its final
    `simplify`."""
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

    return eta1_2 - applied(sys.omega1), eta2_2 - applied(sys.omega2)


def prolong2_residuals(sys: OdeSystem2, V: VectorField) -> tuple:
    """Residuals of the infinitesimal symmetry condition.

    Prolongs V to second order along solutions of the system and returns
    the pair (R1, R2) that must vanish identically in (x, y, z, y', z')
    for V to generate a point symmetry.
    """
    r1, r2 = _prolong2(sys, V)
    return simplify(r1), simplify(r2)


def check_symmetry(sys: OdeSystem2, V: VectorField,
                   seed: int = 0) -> tuple:
    """(verdict, report): does V generate a point symmetry of the system?

    Each residual is simplified and decided in one canonical pass
    (`simplify_verdict`); a failing check prints the simplified residual.
    """
    checks = []
    for label, d in zip(("first residual", "second residual"),
                        _prolong2(sys, V)):
        r, v = simplify_verdict(d, seed=seed)
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
    # "symbolic" where exact algebra or interval jets decided, "numeric"
    # where a sampled zero verdict, collocation or a table did
    method: str
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


def _certify_finite(cf: CoefficientFn, lo: float, hi: float) -> int:
    """The number of pieces of a depth-first bisection of [lo, hi] on each
    of which the order-1 `expr.jet` of beta, its enclosures of beta and
    beta', is finite; PoleInInterval where a failing piece is narrower
    than `_WIDTH_FLOOR` or the bisection needs more than `_PIECE_BUDGET`
    pieces."""
    pieces, certified = [(lo, hi)], 0
    for _ in range(_PIECE_BUDGET):
        a, b = pieces.pop()
        if jet(cf.expr, {cf.var: (a, b)}, cf.var, 1) is not None:
            certified += 1
            if not pieces:
                return certified
            continue
        mid = 0.5 * (a + b)
        if b - a < _WIDTH_FLOOR or not a < mid < b:  # or no float between
            raise PoleInInterval(_refusal(cf, a, b))
        pieces += [(mid, b), (a, mid)]
    raise PoleInInterval(
        f"could not certify beta (or beta') finite on [{a:.9g}, {b:.9g}] "
        f"within {_PIECE_BUDGET} pieces")


# The opening of `_q3_certificate`'s note, by which a report tells a
# dimension that interval jets proved.
Q3_CERTIFICATE = "q = |beta|^(-1/2) is no quadratic"

# Where q''' = 0 is ruled out: points at these fractions of the interval,
# the midpoint first.  q is even about the midpoint for a beta that is,
# and then q''' vanishes there.
_Q3_POINTS = (0.5, 0.25, 0.75)


def _q3_certificate(cf: CoefficientFn, lo: float, hi: float,
                    pieces: int) -> str | None:
    """A note proving that q = |beta|^(-1/2) is no quadratic, or None: at
    the first point x0 of `_Q3_POINTS` where the enclosures of beta and
    of q'''/3! on the box [x0, x0] both exclude 0 (`expr.jet`)."""
    x = cf.var
    for f in _Q3_POINTS:
        x0 = lo + f * (hi - lo)
        box = {x: (x0, x0)}
        b = jet(cf.expr, box, x, 0)
        if b is None or b[0][0] <= 0.0 <= b[0][1]:
            continue
        q = jet(pow_(cf.expr if b[0][0] > 0.0 else neg(cf.expr),
                     Fraction(-1, 2)), box, x, 3)
        if q is None or q[3][0] <= 0.0 <= q[3][1]:
            continue
        return (f"{Q3_CERTIFICATE}: on the box [{x0!r}, "
                f"{x0!r}], beta lies in [{b[0][0]!r}, {b[0][1]!r}] and "
                f"q'''/3! in [{q[3][0]!r}, {q[3][1]!r}]; beta and beta' "
                f"are certified finite on [{lo!r}, {hi!r}] in {pieces} "
                "piece" + "s" * (pieces > 1))
    return None


def _collocation_samples(cf: CoefficientFn, lo: float, hi: float) -> tuple:
    """(xs, beta, beta') at the collocation points of [lo, hi]: 40 evenly
    spaced points of a grid of step at most 1e-3 and at least 200 steps,
    or a table's own knots, min(40, m) of the m in [lo, hi] at least 3
    rows from its ends, evenly spaced by index, with beta' = D(values) /
    D(xs) by the row stencil D = `numerics.row_derivative`."""
    import numpy as np

    if cf.kind == "tabulated":
        rows = np.flatnonzero((cf.xs >= lo) & (cf.xs <= hi))
        rows = rows[(rows >= 3) & (rows < len(cf.xs) - 3)]
        m = len(rows)
        if m < 3:  # the fewest points that pin the quadratic g3
            raise IntervalTooSmall(
                f"interval [{lo}, {hi}] holds {m} knots of the table at "
                "least 3 rows from its ends; collocation needs 3")
        rows = rows[np.round(np.linspace(0, m - 1, min(40, m))).astype(int)]
        slope = row_derivative(cf.values) / row_derivative(cf.xs)
        return cf.xs[rows], cf.values[rows], slope[rows - 3]
    span = hi - lo
    n = int(np.ceil(span / min(1e-3, span / 199.5)))
    xs = lo + span / n * np.unique(np.round(np.linspace(0, n, 40)))
    return (xs, *cf.with_derivative(xs))


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
    (a0, a1, a2, c1, c2, c3, c4), taken at the points of
    `_collocation_samples`, the only points where beta and beta' are
    read; no ODE is solved, and the rank counts the constraints on all
    11 parameters.  `classify_beta` certifies a closed-form beta finite
    before it gets here (`_certify_finite`); a collocation sample that is
    not finite raises PoleInInterval.
    """
    import numpy as np

    lo, hi = float(interval[0]), float(interval[1])
    _require_span(lo, hi)
    xs, bvals, dbvals = _collocation_samples(cf, lo, hi)
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
                      collocation_points=len(xs))


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


@functools.lru_cache(maxsize=64)
def _proved_universal_witnesses(ctx: VarContext) -> tuple:
    """The proved `_universal_witnesses` fields, built once per context;
    they are frozen, so classifications share the tuple."""
    return tuple(w for w, (ok, _) in zip(_universal_witnesses(ctx),
                                         _universal_proof()) if ok)


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


# ---------------------------------------------------------------------------
# the exact route: a rational beta as N/D over Z[x]
#
# Polynomials are lists of int coefficients, constant term first, with no
# trailing zero; [] is the zero polynomial.  A rational number enters as
# its numerator over its denominator, so N/D needs no Fraction.

# The highest degree the N/D conversion builds; a beta whose conversion
# would go above it keeps the collocation route.
_MAX_DEGREE = 32


class _NotRational(Exception):
    """The tree is not a ratio of polynomials in x of bounded degree."""


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _padd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a) + len(b) - 2 > _MAX_DEGREE:
        raise _NotRational
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _ratio(e, var: str) -> tuple:
    """(N, D) with e = N/D where e is an Expr built from rational
    constants and var by +, -, *, / and integer powers; else
    _NotRational."""
    if isinstance(e, Constant):
        v = e.value
        return ([v.numerator] if v else []), [v.denominator]
    if isinstance(e, Symbol) and e.name == var:
        return [0, 1], [1]
    if isinstance(e, Neg):
        n, d = _ratio(e.arg, var)
        return [-c for c in n], d
    if isinstance(e, Add):
        n, d = _ratio(e.terms[0], var)
        for t in e.terms[1:]:
            n2, d2 = _ratio(t, var)
            if d2 == d:
                n = _padd(n, n2)
            else:
                n, d = _padd(_pmul(n, d2), _pmul(n2, d)), _pmul(d, d2)
        return n, d
    if isinstance(e, Mul):
        n, d = _ratio(e.factors[0], var)
        for f in e.factors[1:]:
            n2, d2 = _ratio(f, var)
            n, d = _pmul(n, n2), _pmul(d, d2)
        return n, d
    if isinstance(e, Div):
        n, d = _ratio(e.num, var)
        n2, d2 = _ratio(e.den, var)
        if not n2:
            raise _NotRational
        return _pmul(n, d2), _pmul(d, n2)
    if isinstance(e, Pow) and e.exponent.denominator == 1:
        n, d = _ratio(e.base, var)
        k = e.exponent.numerator
        if k < 0:
            if not n:
                raise _NotRational
            n, d, k = d, n, -k
        if k * (max(len(n), len(d)) - 1) > _MAX_DEGREE:
            raise _NotRational
        out_n, out_d = [1], [1]
        for _ in range(k):
            out_n, out_d = _pmul(out_n, n), _pmul(out_d, d)
        return out_n, out_d
    raise _NotRational


def _prem(a: list, b: list) -> list:
    """The remainder of a by b times a positive integer (|lc(b)| to the
    number of division steps), so its sign pattern is the remainder's."""
    a = list(a)
    lb = b[-1]
    sign, lb = (1, lb) if lb > 0 else (-1, -lb)
    while len(a) >= len(b):
        la = sign * a[-1]
        shift = len(a) - len(b)
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        _trim(a)
    return a


def _primitive(p: list) -> list:
    g = math.gcd(*p)
    return [c // g for c in p]


def _pquo(a: list, b: list) -> list:
    """a / b for a primitive b that divides a; the quotient is in Z[x]
    (Gauss's lemma), so every step divides exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = a[k + len(b) - 1] // b[-1]
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
    return q


def _pgcd(a: list, b: list) -> list:
    """A primitive gcd of two nonzero polynomials (primitive PRS)."""
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _lowest_terms(e, var: str):
    """(N, D) with e = N/D, gcd(N, D) = 1, no common integer factor and
    lc(D) > 0; None where e is not rational in var or too high a degree
    would be built."""
    try:
        n, d = _ratio(e, var)
    except _NotRational:
        return None
    if not n:
        return [], [1]
    if len(n) > 1 and len(d) > 1:
        g = _pgcd(n, d)
        if len(g) > 1:
            n, d = _pquo(n, g), _pquo(d, g)
    c = math.gcd(*n, *d) * (1 if d[-1] > 0 else -1)
    return [v // c for v in n], [v // c for v in d]


def _sign_at(p: list, t: Fraction) -> int:
    """The sign of p(t), from the homogenized value at t = u/v (v > 0)."""
    u, v = t.numerator, t.denominator
    acc, w = p[-1], 1
    for c in reversed(p[:-1]):
        w *= v
        acc = acc * u + c * w
    return (acc > 0) - (acc < 0)


def _sturm(p: list) -> list:
    """The Sturm sequence of p's squarefree part: p, p', then negated
    remainders, each divided by gcd(p, p') so that a multiple root
    counts like a simple one."""
    seq = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while True:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in _primitive(r)])
    if len(seq[-1]) > 1:
        seq = [_pquo(q, seq[-1]) for q in seq]
    return seq


def _variations(seq: list, t: Fraction) -> int:
    signs = [s for s in (_sign_at(q, t) for q in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _first_pole(den: list, lo: Fraction, hi: Fraction):
    """None when den has no real root in [lo, hi] (a Sturm count of 0),
    else a point within 1e-9 of the smallest root there."""
    if _sign_at(den, lo) == 0:
        return float(lo)
    seq = _sturm(den)
    vlo = _variations(seq, lo)
    if vlo == _variations(seq, hi):  # no root in (lo, hi]
        return None
    a, b = lo, hi  # the smallest root lies in (a, b]
    while b - a > Fraction(1, 10 ** 9):
        m = (a + b) / 2
        vm = _variations(seq, m)
        if vlo > vm:
            b = m
        else:
            a, vlo = m, vm
    return float(b)


def _square_root(den: list):
    """P in Z[x] with lc(P) > 0 and P^2 = den / content(den), for lc(den)
    > 0 and deg den <= 4; else None.  den = c p^2 with p in Q[x] exactly
    when P exists (Gauss's lemma), and then p is P up to a constant."""
    m, odd = divmod(len(den) - 1, 2)
    if odd or m > 2:
        return None
    q = _primitive(den)
    s = math.isqrt(q[-1])
    root = [0] * m + [s]
    for k in range(m - 1, -1, -1):  # x^(m+k): 2 s P_k + known products
        r = q[m + k] - sum(root[i] * root[m + k - i]
                           for i in range(k + 1, m))
        root[k], rest = divmod(r, 2 * s)
        if rest:
            return None
    return root if _pmul(root, root) == q else None


@functools.lru_cache(maxsize=512)
def _monomial(mag, i: int, x: Expr) -> Expr:
    """The node of mag x^i for a positive int or Fraction mag, built once
    per (mag, i, x): nodes are immutable, and the same small terms recur
    in every N, D and p."""
    if i == 0:
        return Constant(Fraction(mag))
    mono = x if i == 1 else Pow(x, Fraction(i))
    return mono if mag == 1 else Mul((Constant(Fraction(mag)), mono))


def _poly_expr(coeffs, x: Expr) -> Expr:
    """sum(c_i x^i), highest power first; a negative c_i enters as a Neg.
    Each c_i is an int or a Fraction, so the nodes are built directly."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            term = _monomial(abs(c), i, x)
            terms.append(term if c > 0 else Neg(term))
    return ZERO if not terms else terms[0] if len(terms) == 1 \
        else Add(tuple(terms))


def _inverse_square_field(ctx: VarContext, p: Expr,
                          half_dp: Expr) -> VectorField:
    """X = p d/dx + (p'/2)(y d/dy + z d/dz), given p and p'/2."""
    y, z = (sym(n) for n in ctx.dependents)
    return VectorField(ctx, p, mul(half_dp, y), mul(half_dp, z))


@functools.cache
def _inverse_square_proof() -> tuple:
    """check_symmetry's (verdict, report) for `_inverse_square_field` on
    y'' = -b z, z'' = b y with b = k/p^2, p = a0 + a1 x + a2 x^2 and k,
    a0, a1, a2 parameters.

    A rational beta = k/p^2 with p in Z[x] of degree <= 2 is the instance
    of rational k and integer a_i.
    """
    ctx = VarContext().with_parameters(["k", "a0", "a1", "a2"])
    x = sym(ctx.independent)
    a0, a1, a2 = sym("a0"), sym("a1"), sym("a2")
    p = add(a0, mul(a1, x), mul(a2, pow_(x, 2)))
    half_dp = add(mul(C(Fraction(1, 2)), a1), mul(a2, x))
    sysr = reduced_system(div(sym("k"), pow_(p, 2)), ctx)
    return check_symmetry(sysr, _inverse_square_field(ctx, p, half_dp))


@functools.lru_cache(maxsize=64)
def _free_particle_witnesses(ctx: VarContext) -> tuple:
    """`free_particle_algebra(ctx)` as a tuple, built once per context."""
    return tuple(free_particle_algebra(ctx))


def _zero_case(ctx: VarContext, method: str) -> Classification:
    return Classification(15, "coefficient identically zero", method,
                          witness=_free_particle_witnesses(ctx))


def _constant_case(k: Expr, method: str) -> Classification:
    """The 7 of a nonzero constant k, with the seven constant-case fields
    when k is rational and their parametric proof holds."""
    notes = ()
    wit = None
    value = _rational_value(k)
    if value is None:
        notes = (f"no witnesses built: the constant {to_string(k)} "
                 "is not rational",)
    elif all(ok for ok, _ in _constant_case_proof(1 if value > 0 else -1)):
        wit = _constant_witnesses(value)
    else:
        notes = ("closed-form constant-case witnesses failed "
                 "verification and were dropped",)
    return Classification(7, "nonzero constant coefficient", method,
                          witness=wit, notes=notes)


def _constant_beta(cf: CoefficientFn, seed: int, ctx: VarContext,
                   flat: ZeroVerdict) -> Classification:
    """The zero or constant case of a closed-form beta whose beta' = 0 by
    the verdict `flat`: numeric where either verdict was sampled."""
    # a CoefficientFn built directly holds beta unsimplified
    b, verdict = simplify_verdict(cf.expr, seed=seed)
    method = "symbolic" if flat.method == verdict.method == "symbolic" \
        else "numeric"
    return _zero_case(ctx, method) if verdict.is_zero \
        else _constant_case(b, method)


def _require_span(lo: float, hi: float) -> None:
    """Collocation's shortest interval, which the exact route keeps, so a
    beta classifies on the same intervals whichever route decides it."""
    if hi - lo < 1e-2:
        raise IntervalTooSmall(
            f"interval [{lo}, {hi}] is too short for collocation")


def _classify_rational(num: list, den: list, interval,
                       ctx: VarContext) -> Classification:
    """The exact route for beta = num/den in lowest terms."""
    if not num:
        return _zero_case(ctx, "symbolic")
    if len(num) == len(den) == 1:
        return _constant_case(C(Fraction(num[0], den[0])), "symbolic")
    lo, hi = float(interval[0]), float(interval[1])
    _require_span(lo, hi)
    if len(den) > 1:
        pole = _first_pole(den, Fraction(lo), Fraction(hi))
        if pole is not None:
            raise PoleInInterval(f"coefficient not finite on the interval "
                                 f"near x = {pole:.10g}")
    wit = _proved_universal_witnesses(ctx)
    x = sym(ctx.independent)
    p = _square_root(den) if len(num) == 1 else None
    if p is None:
        dim = 6
    else:
        dim = 7
        if _inverse_square_proof()[0]:
            half_dp = [Fraction(i * c, 2) for i, c in enumerate(p)][1:]
            wit += (_inverse_square_field(ctx, _poly_expr(p, x),
                                          _poly_expr(half_dp, x)),)
    note = (f"decided exactly over Q[x]: beta = N/D in lowest terms with "
            f"N = {to_string(_poly_expr(num, x))} and "
            f"D = {to_string(_poly_expr(den, x))}; Sturm count of the real "
            f"roots of D on [{lo:g}, {hi:g}]: 0")
    return Classification(dim, f"variable coefficient, {dim}-dimensional",
                          "symbolic", witness=wit or None, notes=(note,))


# The context every classification reads beta in and builds its fields for.
_CTX = VarContext()


def classify_beta(beta, interval: tuple = (0.5, 3.0), seed: int = 0,
                  svd_cut: float = 1e-8) -> Classification:
    """Symmetry-dimension classification of y'' = -beta z, z'' = beta y.

    It yields 15 for beta = 0, 7 when |beta|^(-1/2) is a polynomial of
    degree <= 2 (constants included) and 6 otherwise, so never 5 or 8.

    A rational beta, built from rational constants and x by +, -, *, /
    and integer powers, is decided exactly: it is written N/D over Z[x]
    in lowest terms, with no numpy and no sampling.  N = 0 gives 15 and
    a constant N/D the constant case.  Otherwise a Sturm count certifies
    that D has no real root on the interval, or PoleInInterval names the
    smallest one; then beta has 7 dimensions iff N is a constant and D is
    a constant times the square of a polynomial p of degree <= 2, and the
    seventh witness is X = p d/dx + (p'/2)(y d/dy + z d/dz).  A tree
    whose N or D would exceed degree `_MAX_DEGREE` takes the next route.

    Any other closed-form beta is first certified finite on the whole
    interval: the order-1 `expr.jet` of beta, its enclosures of beta and
    beta', must be finite on every piece of a bisection of it
    (`_certify_finite`).  A failing piece narrower than `_WIDTH_FLOOR`, or
    a bisection longer than `_PIECE_BUDGET` pieces, raises PoleInInterval.
    It names a sample of the piece that is not finite or, for a finite but
    steep beta, says only that beta could not be certified.

    Then the paper's criterion decides it where an order-3 jet can:
    `_q3_certificate` looks for a point x0 of `_Q3_POINTS` where the
    enclosures of beta and of q''' on the box [x0, x0] both exclude 0,
    with q = |beta|^(-1/2).  Such a box proves 6, and a note records it.
    The reduced determining equations (see `_collocation_rank`) hold
    r3 = beta (c1 + c2) and r1 + r2 = 2 (2 beta g3' + beta' g3).  Since
    beta(x0) != 0, r3 forces c1 + c2 = 0, so g3''' = -2 beta (c1 + c2) = 0
    and g3 is a quadratic on the whole interval.  Times g3, r1 + r2 = 0
    reads (beta g3^2)' = 0, so beta g3^2 is a constant K there.  K != 0
    would keep g3 off 0 on the interval and make q = |g3| / sqrt|K| a
    quadratic, with q'''(x0) = 0.  So K = 0; beta is continuous and not 0
    at x0, so g3 vanishes near x0 and, being a quadratic, everywhere.
    Then r1 = beta (c4 - c3) forces c3 = c4, and what is left is c1, c3
    and the four initial values of g6'' = -beta g9, g9'' = beta g6: 6
    dimensions, spanned by the scaling and rotation witnesses and g6, g9.
    Nothing here needs beta to keep one sign on the interval.

    A closed-form beta that no box decides is decided as zero or
    constant where its beta' = 0 (a constant that is not rational gets a
    note instead of witnesses, and one that cannot be certified finite is
    still a constant), and else by the collocation rank count of
    `_collocation_rank`.  That covers a beta with q''' = 0, such as
    `sqrt(2)*x^(-2)`.  A tabulated beta is constant where its spread is
    (`CoefficientFn.is_constant`), and else collocated at its own knots.
    The classification's method is "numeric" where collocation, a table
    or a sampled zero verdict on beta or beta' decided it, and else
    "symbolic".

    Witnesses are not proved per call.  The scaling and rotation fields
    are proved once per process, symbolically, for an opaque beta = b(x);
    the seven constant-case fields once per sign for a parametric
    k = +-2 a^2; and X once for beta = k/(a0 + a1 x + a2 x^2)^2 with
    parameters k, a0, a1, a2.  Every beta that gets witnesses is an
    instance of these.  The seven fields of a rational constant are built
    once per value, and the proved scaling and rotation fields and the
    free-particle algebra once per process, so classifications share
    them.
    """
    ctx = _CTX
    if isinstance(beta, str):
        beta = parse(beta, ctx)
    tree, var = beta, ctx.independent
    if isinstance(beta, CoefficientFn):
        tree, var = beta.expr, beta.var
    ratio = _lowest_terms(tree, var)
    if ratio is not None:
        return _classify_rational(*ratio, interval, ctx)
    cf = CoefficientFn.of(beta)

    if cf.kind == "symbolic":
        lo, hi = float(interval[0]), float(interval[1])
        try:
            _require_span(lo, hi)
            pieces = _certify_finite(cf, lo, hi)
        except (IntervalTooSmall, PoleInInterval):
            flat = cf.is_constant()
            if not flat:
                raise
            return _constant_beta(cf, seed, ctx, flat)
        wit = _proved_universal_witnesses(ctx)
        note = _q3_certificate(cf, lo, hi, pieces)
        if note is not None:
            return Classification(6, "variable coefficient, 6-dimensional",
                                  "symbolic", witness=wit or None,
                                  notes=(note,))
        flat = cf.is_constant()
        if flat:
            return _constant_beta(cf, seed, ctx, flat)
    else:
        if cf.is_constant():
            if abs(cf.constant_value()) <= 1e-12:
                return Classification(15, "coefficient identically zero",
                                      "numeric")
            return Classification(7, "nonzero constant coefficient",
                                  "numeric",
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
    return Classification(dim, label, "numeric", witness=wit or None,
                          rank_report=report)
