"""Point-symmetry machinery: prolongation, determining systems, dimension."""

from __future__ import annotations

import pathlib
import warnings
from fractions import Fraction

import numpy as np
import pytest

from csalin import symmetry
from csalin.canon import CoefficientFn, PoleInInterval
from csalin.cubic import OdeSystem2
from csalin.expr import (
    C, VarContext, ZERO, eval_expr, parse, simplify, sym, zero_verdict,
)
from csalin.symmetry import (
    Classification, IntervalTooSmall, VectorField, check_symmetry,
    classify_beta, constant_beta_witnesses, determining_system_reduced,
    free_particle_algebra, generator_rank, parse_generators,
    prolong2_residuals, reduced_system, serialize_generators,
)

from beta_corpus import CLASSIFICATION_TABLE, RANDOM_RATIONAL_BETAS

CTX = VarContext()
HERE = pathlib.Path(__file__).parent


# ---------------------------------------------------------------------------
# prolongation and symmetry checking


def test_rotation_is_symmetry_of_rotational_system():
    s = reduced_system(parse("1", CTX), CTX)
    rot = VectorField(CTX, ZERO, sym("z"), simplify(ZERO - sym("y")))
    ok, rep = check_symmetry(s, rot)
    assert ok and rep.overall


def test_translation_not_symmetry_of_variable_coefficient_system():
    s = reduced_system(parse("x", CTX), CTX)
    ok, _ = check_symmetry(s, VectorField(CTX, parse("1", CTX), ZERO, ZERO))
    assert not ok


def test_vector_field_rejects_derivative_components():
    with pytest.raises(ValueError):
        VectorField(CTX, parse("dy", CTX), ZERO, ZERO)


def test_prolongation_residual_known_value():
    # for y'' = 0, z'' = 0 the scaling field x*d/dx has residual
    # (2 y'', 2 z'') minus applied parts; on the free particle it closes
    s = OdeSystem2(CTX, ZERO, ZERO)
    V = VectorField(CTX, sym("x"), ZERO, ZERO)
    r1, r2 = prolong2_residuals(s, V)
    assert zero_verdict(simplify(r1)).is_zero
    assert zero_verdict(simplify(r2)).is_zero


def test_free_particle_algebra_all_close():
    s = OdeSystem2(CTX, ZERO, ZERO)
    fields = free_particle_algebra(CTX)
    assert len(fields) == 15
    for V in fields:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()


def test_free_particle_algebra_matches_golden_file():
    got = serialize_generators(free_particle_algebra(CTX))
    want = (HERE / "golden_free_particle.txt").read_text()
    assert got.strip() == want.strip()


def test_free_particle_rank_is_15():
    assert generator_rank(free_particle_algebra(CTX)) == 15


def test_unit_beta_witnesses_close_and_rank_7():
    fields = constant_beta_witnesses(1.0)
    assert len(fields) == 7
    s = reduced_system(parse("1", CTX), CTX)
    for V in fields:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()
    assert generator_rank(fields) == 7


def test_general_constant_beta_witnesses_close():
    # the per-beta route: each concrete field prolonged on its own system
    for k in (3.0, -2.0, 0.5, 1, 2, Fraction(7, 3), 5, Fraction(-3, 2), -1):
        s = reduced_system(C(k), CTX)
        for V in constant_beta_witnesses(k):
            ok, rep = check_symmetry(s, V)
            assert ok, rep.render()


def test_general_proofs_are_symbolic():
    proofs = (symmetry._universal_proof(),
              symmetry._constant_case_proof(1),
              symmetry._constant_case_proof(-1))
    assert [len(p) for p in proofs] == [2, 7, 7]
    for proof in proofs:
        for ok, rep in proof:
            assert ok, rep.render()
            assert all(c.method == "symbolic" for c in rep.checks)


@pytest.mark.parametrize("beta", ["x^(-2)", "exp(x)", "(x+2)/(x^2+1)",
                                  "sin(x)"])
def test_scaling_and_rotation_pass_the_per_beta_route(beta):
    s = reduced_system(parse(beta, CTX), CTX)
    wit = classify_beta(beta).witness
    y, z = sym("y"), sym("z")
    assert [w.components for w in wit] == [(ZERO, y, z), (ZERO, z, -y)]
    for V in wit:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()


def test_classification_proves_witnesses_once_per_process(monkeypatch):
    calls = []
    real = symmetry.prolong2_residuals

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symmetry, "prolong2_residuals", counting)
    symmetry._universal_proof.cache_clear()
    symmetry._constant_case_proof.cache_clear()
    betas = ["0", "1", "-3/2", "7/3", "2^(1/2)", "x^(-2)", "-x^(-2)",
             "exp(x)", "sin(x)", "(x+2)/(x^2+1)"]
    for beta in betas:
        classify_beta(beta)
    assert len(calls) == 2 + 7 * 2
    for beta in betas:
        classify_beta(beta)
    assert len(calls) == 2 + 7 * 2


def test_constant_witnesses_built_once_per_value(monkeypatch):
    betas = ["1", "-3/2", "7/3", "2", "6/3"]
    symmetry._constant_witnesses.cache_clear()
    first = [classify_beta(b).witness for b in betas]
    calls = []
    real = symmetry._constant_beta_fields

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symmetry, "_constant_beta_fields", counting)
    second = [classify_beta(b).witness for b in betas]
    assert calls == []
    assert second == first
    assert first[3] == first[4]  # 2 and 6/3 are one value
    assert first == [tuple(constant_beta_witnesses(k))
                     for k in (1, -1.5, Fraction(7, 3), 2, 2)]


@pytest.mark.parametrize("beta", ["-3/2", "-1"])
def test_negative_constants_get_witnesses(beta):
    cls = classify_beta(beta)
    assert cls.dimension == 7 and not cls.notes
    assert len(cls.witness) == 7
    assert generator_rank(list(cls.witness)) == 7


def test_irrational_constant_notes_missing_witnesses():
    cls = classify_beta("2^(1/2)")
    assert cls.dimension == 7 and cls.witness is None
    assert cls.notes == ("no witnesses built: the constant 2^(1/2) is not "
                         "rational",)


def test_duplicated_generator_contributes_no_rank():
    V = VectorField(CTX, sym("x"), ZERO, ZERO)
    assert generator_rank([V, V, V]) == 1


def test_generator_serialization_roundtrip():
    fields = constant_beta_witnesses(2.0)
    back = parse_generators(serialize_generators(fields), CTX)
    assert len(back) == len(fields)
    pt = {"x": 0.7, "y": 1.1, "z": 0.4}
    for a, b in zip(fields, back):
        for ea, eb in zip(a.components, b.components):
            assert eval_expr(ea, pt) == pytest.approx(eval_expr(eb, pt),
                                                      rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# determining system


def test_reduced_ansatz_recovers_third_order_constraint():
    ds = determining_system_reduced(parse("x", CTX), ansatz="reduced")
    target = parse("g3'''/2 + x*(c1 + c2)", ds.ctx)
    # the constraint list must contain the third-order scalar condition
    hits = sum(
        1 for r in ds.residuals
        if zero_verdict(simplify(r - target)).is_zero)
    assert hits == 1


def test_full_ansatz_residuals_consistent_with_raw():
    # splitting by first-derivative monomials must reconstruct the raw
    # determining expressions: check numerically at sample points
    from csalin.expr import coefficients_in, free_symbols

    rng = np.random.default_rng(3)
    for beta_text in ("1", "x", "x^(-2)", "exp(x)"):
        ds = determining_system_reduced(parse(beta_text, CTX), ansatz="full")
        assert ds.raw is not None and len(ds.raw) == 2
        assert ds.residuals, beta_text
        split_vars = list(ds.ctx.first_derivatives)
        for raw in ds.raw:
            groups = coefficients_in(raw, split_vars)
            names = sorted(free_symbols(raw))
            for _ in range(30):
                pt = {n: float(rng.uniform(0.3, 1.7)) for n in names}
                want = eval_expr(raw, pt)
                got = sum(
                    eval_expr(c, pt)
                    * pt.get(split_vars[0], 1.0) ** sig[0]
                    * pt.get(split_vars[1], 1.0) ** sig[1]
                    for sig, c in groups.items())
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# classification


@pytest.mark.parametrize("values", [
    (2, "2", C(2), CoefficientFn.constant(2)),
    ("x^(-2)", parse("x^(-2)", CTX), CoefficientFn.symbolic("x^(-2)")),
], ids=["constant", "variable"])
def test_classify_beta_coerces_through_coefficient_of(values):
    # a number, a string, an Expr and a CoefficientFn classify alike
    first, *rest = (classify_beta(v) for v in values)
    assert all(c == first for c in rest)
    assert first.dimension == 7


@pytest.mark.parametrize("beta,dim", CLASSIFICATION_TABLE)
def test_classification_table(beta, dim):
    cls = classify_beta(beta)
    assert isinstance(cls, Classification)
    assert cls.dimension == dim


def test_dimension_is_never_5_or_8():
    seen = set()
    for beta, _ in CLASSIFICATION_TABLE:
        seen.add(classify_beta(beta).dimension)
    for beta in RANDOM_RATIONAL_BETAS:
        seen.add(classify_beta(beta).dimension)
    assert seen <= {6, 7, 15}
    assert 5 not in seen and 8 not in seen


def test_classification_interval_shift_invariance():
    a = classify_beta("x^(-2)", interval=(0.5, 3.0))
    b = classify_beta("x^(-2)", interval=(1.0, 4.0))
    assert a.dimension == b.dimension == 7


def test_classification_scaling_robustness():
    assert classify_beta("1000*exp(x)").dimension == 6
    assert classify_beta("1000*x^(-2)").dimension == 7
    assert classify_beta("1000000*exp(x)").dimension == 6


def test_classification_raises_no_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_beta("1000000*x^(-2)").dimension == 7


def test_classification_accepts_tabulated_coefficients():
    xs = np.linspace(0.5, 3.0, 2501)
    c = CoefficientFn.tabulated(xs, xs ** -2.0)
    assert classify_beta(c).dimension == 7
    const = CoefficientFn.tabulated(xs, np.full_like(xs, 2.0))
    assert classify_beta(const).dimension == 7


def test_classification_interval_too_small():
    with pytest.raises(IntervalTooSmall):
        classify_beta("x", interval=(1.0, 1.005))


def test_classification_pole_in_interval():
    with pytest.raises(PoleInInterval):
        classify_beta("1/(x-1)", interval=(0.5, 3.0))


def test_classification_rejects_a_coefficient_that_overflows():
    # exp(x^2) overflows to inf beyond x ~ 26.6; inf rows would reach the SVD
    with pytest.raises(PoleInInterval, match="not finite .* near x = 26"):
        classify_beta("exp(x^2)", interval=(0.5, 30.0))


@pytest.mark.parametrize("beta", ["1/(x-1.0001)", "1/(x-sqrt(2))"])
def test_classification_pole_between_grid_points(beta):
    with pytest.raises(PoleInInterval):
        classify_beta(beta, interval=(0.5, 3.0))


@pytest.mark.parametrize("beta,interval", [
    ("(-2)*(-2*x^2 + 5*x + 4)^(-2)", (0.5, 30.0)),   # root near 3.137
    ("(x^2 + 2*x + 2)/(-x^2 + 4*x + 1)", (0.5, 30.0)),  # root 2 + sqrt(5)
    ("1/(x^2-3)", (0.5, 3.0)),
    ("1/sin(x)", (0.5, 30.0)),
])
def test_classification_pole_anywhere_in_the_interval(beta, interval):
    with pytest.raises(PoleInInterval):
        classify_beta(beta, interval=interval)


def test_classification_refuses_a_steep_finite_beta_without_a_pole():
    # no real root (the discriminant is -4e-7), but a peak of 1e7 at x = 1:
    # the denominator's enclosure holds 0 on pieces near x = 1 until they
    # are far narrower than the width floor, so the classifier refuses,
    # and says it could not certify beta, not that beta has a pole
    with pytest.raises(PoleInInterval, match="could not certify beta"):
        classify_beta("1/(x^2-2*x+1.0000001)", interval=(0.5, 3.0))


def test_classification_of_a_wide_interval_builds_no_grid():
    # a grid of step 1e-3 on this interval would hold 1e12 points
    assert classify_beta("x^(-2)", interval=(0.5, 1e9)).dimension == 7


def test_classification_reports_witnesses_that_close():
    cls = classify_beta("2")
    assert cls.dimension == 7
    assert cls.witness is not None
    s = reduced_system(parse("2", CTX), CTX)
    for V in cls.witness:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()
