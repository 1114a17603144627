"""Acceptance gate: the eight headline requirements, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

from __future__ import annotations

import random
import time

import numpy as np

from csalin.canon import (
    LinearForm, attempt_linear_equivalence, reduce_25_to_28,
)
from csalin.expr import (
    EvalDomainError, VarContext, ZERO, add, collect, differentiate,
    eval_expr, mul, parse, simplify, sym, to_string, zero_verdict,
)
from csalin.symmetry import (
    check_symmetry, constant_beta_witnesses, classify_beta,
    free_particle_algebra, generator_rank, reduced_system,
)
from csalin.cubic import OdeSystem2
from csalin.verify import run_example

import exprgen
from beta_corpus import CLASSIFICATION_TABLE, RANDOM_RATIONAL_BETAS

CTX = VarContext()


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_1_classification_table():
    ok = True
    worst = 0.0
    for beta, want in CLASSIFICATION_TABLE:
        t0 = time.time()
        got = classify_beta(beta).dimension
        dt = time.time() - t0
        worst = max(worst, dt)
        ok = ok and (got == want) and (dt <= 10.0)
    _report("criterion 1: classification table exact",
            ok, f"slowest case {worst:.2f}s")


def test_2_dimension_never_5_or_8():
    dims = set()
    for beta, _ in CLASSIFICATION_TABLE:
        dims.add(classify_beta(beta).dimension)
    for beta in RANDOM_RATIONAL_BETAS:
        dims.add(classify_beta(beta).dimension)
    _report("criterion 2: dimension never 5 or 8 over the corpus",
            dims <= {6, 7, 15}, f"observed {sorted(dims)}")


def test_3_unit_coefficient_witnesses():
    fields = constant_beta_witnesses(1.0)
    s = reduced_system(parse("1", CTX), CTX)
    all_sym = True
    for V in fields:
        okv, rep = check_symmetry(s, V)
        sym_methods = all(c.method == "symbolic" for c in rep.checks)
        all_sym = all_sym and okv and sym_methods
    rank = generator_rank(fields)
    _report("criterion 3: seven unit-coefficient witnesses close, rank 7",
            all_sym and len(fields) == 7 and rank == 7, f"rank={rank}")


def test_4_free_particle_algebra():
    fields = free_particle_algebra(CTX)
    s = OdeSystem2(CTX, ZERO, ZERO)
    good = all(check_symmetry(s, V)[0] for V in fields)
    rank = generator_rank(fields)
    _report("criterion 4: free-particle algebra of 15, rank 15",
            good and len(fields) == 15 and rank == 15, f"rank={rank}")


def test_5_worked_examples():
    t0 = time.time()
    reports = [run_example(i) for i in (1, 2, 3, 4)]
    total = time.time() - t0
    ok = all(r.passed for r in reports) and total <= 30.0
    dims = [r.dimension for r in reports]
    _report("criterion 5: worked examples 1-4 all PASS",
            ok, f"dims={dims}, total {total:.1f}s")


def test_6_constant_form_inequivalence():
    opt = LinearForm("optimal", {"dt11": 1, "dt12": 2, "dt21": 3})
    targets = [LinearForm("zero_order", {"a3": a, "a4": b})
               for a, b in ((0, 0), (0, 1), (1, 0), (2, 3), (-1, 2))]
    verdicts = [attempt_linear_equivalence(opt, t) for t in targets]
    all_inconsistent = all(
        (not v.consistent) and v.case == "inconsistent" for v in verdicts)
    degen = attempt_linear_equivalence(
        LinearForm("optimal", {"dt11": 1, "dt12": 1, "dt21": -1}),
        targets[1])
    flagged = (not degen.consistent) and degen.case == "degenerate-family"
    _report("criterion 6: constant optimal forms inequivalent to "
            "undifferentiated targets; degenerate family flagged",
            all_inconsistent and flagged)


def test_7_reduction_roundtrip():
    lf = LinearForm("zero_order", {"a3": "2/x^2", "a4": 1})
    res = reduce_25_to_28(lf, (1.0, 2.0))
    # rho against its closed form (t^3 + 2)/(3t)
    ts = res.rho.xs
    rho_err = float(np.max(np.abs(res.rho.values - (ts ** 3 + 2) / (3 * ts))))

    # integrate the reduced output and map its solutions back
    resid = exprgen.roundtrip_residual(res)
    _report("criterion 7: reduction round-trip residual and rho accuracy",
            resid <= 1e-6 and rho_err <= 1e-8,
            f"residual={resid:.2e}, rho_err={rho_err:.2e}")


def test_8_kernel_properties():
    rng = random.Random(99)
    checked = 0
    deriv_ok = True
    for e in exprgen.corpus(50, seed=7):
        de = differentiate(e, "x")
        for _ in range(3):
            pt = exprgen.sample_point(rng)
            try:
                up, dn = dict(pt), dict(pt)
                up["x"] += 1e-5
                dn["x"] -= 1e-5
                want = (eval_expr(e, up) - eval_expr(e, dn)) / 2e-5
                got = eval_expr(de, pt)
            except EvalDomainError:
                continue
            deriv_ok = deriv_ok and (
                abs(got - want) <= 1e-6 * max(1.0, abs(want)))
            checked += 1

    monos = [parse(m, CTX) for m in ("dy", "dz", "dy*dz", "dy^2")]
    collect_ok = True
    for e in exprgen.corpus(10, seed=23):
        target = simplify(add(mul(e, parse("dy", CTX)),
                              mul(sym("x"), parse("dz", CTX)),
                              parse("dy^2", CTX), sym("y")))
        parts, rem = collect(target, monos, ["y'", "z'"])
        rebuilt = simplify(add(rem, *[mul(c, m) for m, c in parts.items()]))
        collect_ok = collect_ok and zero_verdict(
            simplify(rebuilt - target)).is_zero

    roundtrip_ok = True
    for e in exprgen.corpus(200):
        s = to_string(e)
        back = parse(s, exprgen.CTX)
        s2 = to_string(back)
        roundtrip_ok = roundtrip_ok and (to_string(parse(s2, exprgen.CTX))
                                         == s2)

    _report("criterion 8: kernel derivative/collect/round-trip properties",
            deriv_ok and checked >= 100 and collect_ok and roundtrip_ok,
            f"{checked} derivative samples")
