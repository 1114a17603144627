"""Correspondence between real systems of two second-order ODEs and scalar
complex ODEs: the Cauchy-Riemann checks, and the split of a complex cubic
equation into its real pair.

Complex quantities are carried as (real, imaginary) Expr pairs throughout;
there is no complex scalar type in the kernel.
"""

from __future__ import annotations

from .expr import (
    Expr, VarContext, ExprError, add, differentiate, mul, neg, simplify,
    zero_verdict, C, Symbol,
)
from .cubic import OdeSystem2
from .reports import ConditionReport, zero_check


class CrViolated(ExprError):
    def __init__(self, condition: str):
        super().__init__(f"Cauchy-Riemann condition failed: {condition}")
        self.condition = condition


def check_cr(sys: OdeSystem2, seed: int = 0) -> ConditionReport:
    """Verdicts for the four Cauchy-Riemann conditions pairing the system
    with a scalar complex equation.

    A system is immutable, so its report for a seed is computed once and
    kept on it, as `PointTransformation` keeps its derived fields: a
    second check of the same system (`transform_system`'s complex route
    after `verify.run_example`'s own check) reads it back.
    """
    # the dataclass is frozen: keep the reports past __setattr__
    reports = sys.__dict__.setdefault("_cr_reports", {})
    if seed not in reports:
        reports[seed] = _cr_report(sys, seed)
    return reports[seed]


def _cr_report(sys: OdeSystem2, seed: int) -> ConditionReport:
    ctx = sys.ctx
    y, z = ctx.dependents
    yp, zp = ctx.first_derivatives
    w1, w2 = sys.omega1, sys.omega2
    pairs = [
        (f"d(omega1)/d{y} = d(omega2)/d{z}",
         differentiate(w1, y), differentiate(w2, z), 1),
        (f"d(omega1)/d{z} = -d(omega2)/d{y}",
         differentiate(w1, z), differentiate(w2, y), -1),
        (f"d(omega1)/d{yp} = d(omega2)/d{zp}",
         differentiate(w1, yp), differentiate(w2, zp), 1),
        (f"d(omega1)/d{zp} = -d(omega2)/d{yp}",
         differentiate(w1, zp), differentiate(w2, yp), -1),
    ]
    return ConditionReport(title="Cauchy-Riemann conditions", checks=tuple(
        zero_check(label, lhs - mul(C(sign), rhs), "difference", seed)
        for label, lhs, rhs, sign in pairs))


def _check_pair_cr(name: str, re_part: Expr, im_part: Expr,
                   ctx: VarContext, seed: int) -> None:
    y, z = ctx.dependents
    c1 = differentiate(re_part, y) - differentiate(im_part, z)
    c2 = differentiate(re_part, z) + differentiate(im_part, y)
    if not zero_verdict(c1, seed=seed).is_zero:
        raise CrViolated(f"d(Re {name})/d{y} = d(Im {name})/d{z}")
    if not zero_verdict(c2, seed=seed).is_zero:
        raise CrViolated(f"d(Re {name})/d{z} = -d(Im {name})/d{y}")


def realify(E3, E2, E1, E0, ctx: VarContext | None = None,
            seed: int = 0) -> OdeSystem2:
    """Split the complex cubic equation with coefficients E3..E0 (given as
    (real, imaginary) Expr pairs in (x, y, z)) into its real system.

    Each coefficient pair must be analytic in y + i z, i.e. satisfy the
    two-variable CR conditions; otherwise CrViolated is raised.
    """
    if ctx is None:
        ctx = VarContext()
    for name, pair in (("E3", E3), ("E2", E2), ("E1", E1), ("E0", E0)):
        _check_pair_cr(name, pair[0], pair[1], ctx, seed)
    yp, zp = (Symbol(n) for n in ctx.first_derivatives)
    # E3 p^3 + E2 p^2 + E1 p + E0 with p = y' + i z', by Horner's rule
    re, im = E3
    for c_re, c_im in (E2, E1, E0):
        re, im = (add(mul(re, yp), neg(mul(im, zp)), c_re),
                  add(mul(re, zp), mul(im, yp), c_im))
    return OdeSystem2(ctx, simplify(neg(re)), simplify(neg(im)))
