"""Cubic-in-first-derivatives normal form of a system of two second-order
ODEs, and the coefficient conditions under which it corresponds to the real
split of a single complex cubic equation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr, VarContext, ZERO, ExprError, Pow, Symbol,
    coefficients_in, free_symbols, mul, neg, add, simplify,
    simplify_verdict, to_string, C,
)
from .reports import ConditionCheck, ConditionReport


class DegreeTooHigh(ExprError):
    def __init__(self, monomial: str):
        super().__init__(
            f"system is not cubically semi-linear: found monomial {monomial}")
        self.monomial = monomial


@dataclass(frozen=True)
class OdeSystem2:
    """A pair y'' = omega1, z'' = omega2 with omegas in (x, y, z, y', z')."""

    ctx: VarContext
    omega1: Expr
    omega2: Expr

    def __post_init__(self):
        banned = set(self.ctx.second_derivatives)
        for w in (self.omega1, self.omega2):
            hit = free_symbols(w) & banned
            if hit:
                raise ValueError(
                    f"right-hand side contains second derivatives: {hit}")


# monomial exponent signatures (y' exponent, z' exponent) per slot of the
# cubic form; the form carries the coefficients on the left-hand side, so a
# slot coefficient is the negated omega coefficient.
_SLOTS = {
    ("alpha", 1): (3, 0), ("alpha", 2): (2, 1),
    ("alpha", 3): (1, 2), ("alpha", 4): (0, 3),
    ("beta", 1): (2, 0), ("beta", 2): (1, 1), ("beta", 3): (0, 2),
    ("gamma", 1): (1, 0), ("gamma", 2): (0, 1),
    ("delta", 1): (0, 0),
}


@dataclass(frozen=True)
class CubicForm:
    """The 18 coefficient functions of the cubic candidate form.

    Dicts are keyed by (row, slot): alpha[(i, j)] for i in {1,2}, j in 1..4;
    beta[(i, k)] k in 1..3; gamma[(i, l)] l in {1,2}; delta[i].
    Coefficients are functions of (x, y, z) only.
    """

    ctx: VarContext
    alpha: dict
    beta: dict
    gamma: dict
    delta: dict

    def __post_init__(self):
        deriv = set(self.ctx.first_derivatives) | \
            set(self.ctx.second_derivatives)
        for d in (self.alpha, self.beta, self.gamma, self.delta):
            for key, coeff in d.items():
                hit = free_symbols(coeff) & deriv
                if hit:
                    raise ValueError(
                        f"coefficient {key} contains derivatives: {hit}")

    def slot(self, family: str, row: int, j: int) -> Expr:
        d = getattr(self, family)
        return d[(row, j)] if family != "delta" else d[row]


def extract_cubic(sys: OdeSystem2) -> CubicForm:
    """Read off the cubic-form coefficients of a system.

    Requires both right-hand sides to be polynomial of total degree <= 3 in
    the first derivatives; raises DegreeTooHigh or NotPolynomial otherwise.
    """
    ctx = sys.ctx
    dvars = list(ctx.first_derivatives)
    rows = {}
    for row, omega in ((1, sys.omega1), (2, sys.omega2)):
        coeffs = coefficients_in(omega, dvars)
        for sig in coeffs:
            if sum(sig) > 3:
                mono = "*".join(f"{v}^{n}" for v, n in zip(dvars, sig) if n)
                raise DegreeTooHigh(mono)
        rows[row] = coeffs
    alpha, beta, gamma, delta = {}, {}, {}, {}
    for (family, j), sig in _SLOTS.items():
        for row in (1, 2):
            coeff = rows[row].get(sig, ZERO)
            value = simplify(neg(coeff))
            if family == "alpha":
                alpha[(row, j)] = value
            elif family == "beta":
                beta[(row, j)] = value
            elif family == "gamma":
                gamma[(row, j)] = value
            else:
                delta[row] = value
    return CubicForm(ctx, alpha, beta, gamma, delta)


def reassemble(cf: CubicForm) -> OdeSystem2:
    """Rebuild the system whose cubic form is cf (inverse of extract_cubic)."""
    d1, d2 = cf.ctx.first_derivatives
    omegas = []
    for row in (1, 2):
        terms = []
        for (family, j), (p, q) in _SLOTS.items():
            coeff = cf.slot(family, row, j)
            if coeff == ZERO:
                continue
            factors = []
            if p:
                factors.append(Pow(Symbol(d1), Fraction(p)) if p != 1
                               else Symbol(d1))
            if q:
                factors.append(Pow(Symbol(d2), Fraction(q)) if q != 1
                               else Symbol(d2))
            terms.append(mul(coeff, *factors) if factors else coeff)
        omega = simplify(neg(add(*terms))) if terms else ZERO
        omegas.append(omega)
    return OdeSystem2(cf.ctx, omegas[0], omegas[1])


# pairwise identities of the correspondence conditions: each entry is
# (label, lhs slot, rhs slot, rhs scale)
_CONDITIONS = [
    ("alpha11 = -alpha13/3", ("alpha", 1, 1), ("alpha", 1, 3),
     Fraction(-1, 3)),
    ("alpha11 = alpha22/3", ("alpha", 1, 1), ("alpha", 2, 2), Fraction(1, 3)),
    ("alpha11 = -alpha24", ("alpha", 1, 1), ("alpha", 2, 4), Fraction(-1)),
    ("-alpha12/3 = alpha14", ("alpha", 1, 4), ("alpha", 1, 2),
     Fraction(-1, 3)),
    ("alpha14 = alpha21", ("alpha", 1, 4), ("alpha", 2, 1), Fraction(1)),
    ("alpha21 = -alpha23/3", ("alpha", 2, 1), ("alpha", 2, 3),
     Fraction(-1, 3)),
    ("beta11 = beta22/2", ("beta", 1, 1), ("beta", 2, 2), Fraction(1, 2)),
    ("beta11 = -beta13", ("beta", 1, 1), ("beta", 1, 3), Fraction(-1)),
    ("beta21 = -beta12/2", ("beta", 2, 1), ("beta", 1, 2), Fraction(-1, 2)),
    ("beta21 = -beta23", ("beta", 2, 1), ("beta", 2, 3), Fraction(-1)),
    ("gamma11 = gamma22", ("gamma", 1, 1), ("gamma", 2, 2), Fraction(1)),
    ("gamma21 = -gamma12", ("gamma", 2, 1), ("gamma", 1, 2), Fraction(-1)),
]


@dataclass(frozen=True)
class CubicConditionReport(ConditionReport):
    """Condition report plus, on success, the complex coefficients of the
    corresponding scalar cubic equation as (real, imaginary) Expr pairs."""

    complex_coefficients: dict | None = None


def check_theorem2(cf: CubicForm, seed: int = 0) -> CubicConditionReport:
    """Test the cubic-correspondence coefficient conditions.

    Each identity is decided symbolically where possible, with a sampled
    fallback flagged as "numeric".  On success the report carries the
    complex coefficient pairs E3..E0 of the scalar cubic equation.
    """
    checks = []
    for label, (fa, ra, ja), (fb, rb, jb), scale in _CONDITIONS:
        lhs = cf.slot(fa, ra, ja)
        rhs = cf.slot(fb, rb, jb)
        diff, v = simplify_verdict(lhs - mul(C(scale), rhs), seed=seed)
        detail = "" if v.is_zero else f"difference = {to_string(diff)}"
        checks.append(ConditionCheck(label, v.is_zero, v.method, detail))
    report_checks = tuple(checks)
    complex_coefficients = None
    if all(c.holds for c in report_checks):
        complex_coefficients = {
            "E3": (cf.alpha[(1, 1)],
                   simplify(mul(C(Fraction(-1, 3)), cf.alpha[(1, 2)]))),
            "E2": (cf.beta[(1, 1)],
                   simplify(mul(C(Fraction(-1, 2)), cf.beta[(1, 2)]))),
            "E1": (cf.gamma[(1, 1)], simplify(neg(cf.gamma[(1, 2)]))),
            "E0": (cf.delta[1], cf.delta[2]),
        }
    return CubicConditionReport(
        title="cubic complex-correspondence conditions",
        checks=report_checks,
        complex_coefficients=complex_coefficients,
    )
