"""Real-system / scalar-complex-equation correspondence tests."""

from __future__ import annotations

import random

import pytest

from csalin.csa import CrViolated, check_cr, realify
from csalin.cubic import OdeSystem2, extract_cubic, check_theorem2
from csalin.expr import (
    C, VarContext, ZERO, mul, parse, simplify, sym, to_string, zero_verdict,
)

CTX = VarContext()


def _sys(o1: str, o2: str) -> OdeSystem2:
    return OdeSystem2(CTX, parse(o1, CTX), parse(o2, CTX))


WORKED = _sys("-dy^2 + dz^2 - (2/x)*dy", "-2*dy*dz - (2/x)*dz")


def test_cr_holds_on_worked_system():
    rep = check_cr(WORKED)
    assert rep.overall
    assert len(rep.checks) == 4


def test_cr_fails_and_names_condition():
    rep = check_cr(_sys("dy^2", "0"))
    assert not rep.overall
    names = [c.name for c in rep.failing()]
    assert "d(omega1)/dy' = d(omega2)/dz'" in names


def _analytic_pair(rng: random.Random):
    """(Re, Im) of f(x) + c*(y + i z) — analytic in the dependent pair."""
    a = parse(rng.choice(["x", "1/x", "3", "x^2", "0"]), CTX)
    c = C(rng.randint(-3, 3))
    return (simplify(a + mul(c, sym("y"))), simplify(mul(c, sym("z"))))


def test_realify_extract_identity_random():
    rng = random.Random(1234)
    for _ in range(30):
        pairs = [_analytic_pair(rng) for _ in range(4)]
        s = realify(*pairs, CTX)
        assert check_cr(s).overall
        # re-extract the complex coefficients and compare with the inputs
        rep = check_theorem2(extract_cubic(s))
        assert rep.overall
        cc = rep.complex_coefficients
        for (want_re, want_im), key in zip(pairs, ("E3", "E2", "E1", "E0")):
            got_re, got_im = cc[key]
            assert zero_verdict(simplify(got_re - want_re)).is_zero, key
            assert zero_verdict(simplify(got_im - want_im)).is_zero, key


def test_realify_rejects_non_analytic_coefficients():
    bad = (sym("y"), sym("y"))  # violates the two-variable conditions
    good = (ZERO, ZERO)
    with pytest.raises(CrViolated):
        realify(good, good, bad, good, CTX)


def test_realify_linear_coefficient_gives_derivative_coupled_system():
    # E1 = -(c1 + i c2) produces the first-derivative-coupled linear system
    ctx = VarContext(parameters=frozenset({"c1", "c2"}))
    zero = (ZERO, ZERO)
    e1 = (parse("-c1", ctx), parse("-c2", ctx))
    s = realify(zero, zero, e1, zero, ctx)
    want1 = parse("c1*dy - c2*dz", ctx)
    want2 = parse("c2*dy + c1*dz", ctx)
    assert zero_verdict(simplify(s.omega1 - want1)).is_zero
    assert zero_verdict(simplify(s.omega2 - want2)).is_zero


def test_realify_quadratic_coefficient():
    # E2 = 1 produces the quadratic coupling (z'^2 - y'^2, -2 y' z')
    zero = (ZERO, ZERO)
    s = realify(zero, (C(1), ZERO), zero, zero, CTX)
    assert zero_verdict(simplify(s.omega1 - parse("dz^2 - dy^2", CTX))).is_zero
    assert zero_verdict(simplify(s.omega2 - parse("-2*dy*dz", CTX))).is_zero
