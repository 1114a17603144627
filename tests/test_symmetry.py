"""Point-symmetry machinery: prolongation, determining systems, dimension."""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from csalin import symmetry
from csalin.canon import (
    CoefficientFn, LinearForm, PoleInInterval, reduce_25_to_28,
)
from csalin.cubic import OdeSystem2
from csalin.expr import (
    C, VarContext, ZERO, eval_expr, parse, simplify, simplify_verdict, sym,
    zero_verdict,
)
from csalin.symmetry import (
    Classification, IntervalTooSmall, VectorField, check_symmetry,
    classify_beta, constant_beta_witnesses, determining_system_reduced,
    free_particle_algebra, generator_rank, parse_generators,
    prolong2_residuals, reduced_system, serialize_generators,
)

from beta_corpus import (
    BETA_CORPUS, CLASSIFICATION_TABLE, RANDOM_RATIONAL_BETAS, seeded_betas,
)

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
              symmetry._constant_case_proof(-1),
              (symmetry._inverse_square_proof(),))
    assert [len(p) for p in proofs] == [2, 7, 7, 1]
    for proof in proofs:
        for ok, rep in proof:
            assert ok, rep.render()
            assert all(c.method == "symbolic" for c in rep.checks)


@pytest.mark.parametrize("beta", ["x^(-2)", "exp(x)", "(x+2)/(x^2+1)",
                                  "sin(x)"])
def test_scaling_and_rotation_pass_the_per_beta_route(beta):
    s = reduced_system(parse(beta, CTX), CTX)
    wit = classify_beta(beta).witness[:2]
    y, z = sym("y"), sym("z")
    assert [w.components for w in wit] == [(ZERO, y, z), (ZERO, z, -y)]
    for V in wit:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()


def test_classification_proves_witnesses_once_per_process(monkeypatch):
    calls = []
    real = symmetry._prolong2

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symmetry, "_prolong2", counting)
    symmetry._universal_proof.cache_clear()
    symmetry._proved_universal_witnesses.cache_clear()
    symmetry._constant_case_proof.cache_clear()
    symmetry._inverse_square_proof.cache_clear()
    betas = ["0", "1", "-3/2", "7/3", "2^(1/2)", "x^(-2)", "-x^(-2)",
             "exp(x)", "sin(x)", "(x+2)/(x^2+1)"]
    for beta in betas:
        classify_beta(beta)
    assert len(calls) == 2 + 7 * 2 + 1
    for beta in betas:
        classify_beta(beta)
    assert len(calls) == 2 + 7 * 2 + 1


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


def test_witnesses_are_shared_within_a_context():
    # the proved scaling and rotation fields, and the free-particle
    # algebra, are built once per context: two classifications hold the
    # same objects
    seven, six = classify_beta("x^(-2)"), classify_beta("(x+2)/(x^2+1)")
    assert len(seven.witness) == 3 and len(six.witness) == 2
    assert all(u is v for u, v in zip(seven.witness, six.witness))
    assert classify_beta("exp(x)").witness is six.witness
    assert classify_beta("0").witness is classify_beta("0*x").witness


def _rebuilt(beta):
    """classify_beta(beta) with every witness cache emptied first."""
    for cached in (symmetry._proved_universal_witnesses,
                   symmetry._free_particle_witnesses,
                   symmetry._constant_witnesses):
        cached.cache_clear()
    return classify_beta(beta)


def test_shared_witnesses_leave_the_classifications_unchanged():
    # each classification, whose fields earlier ones built, equals one
    # built from empty caches; a constant gets the seven constant-case
    # fields, a variable 7 the scaling and rotation fields and X, a 6 the
    # first two
    shared = [classify_beta(beta) for beta, _ in BETA_CORPUS]
    for (beta, dim), cls in zip(BETA_CORPUS, shared):
        assert cls == _rebuilt(beta), beta
        constant = "x" not in beta
        want = {15: 15, 7: 7 if constant else 3, 6: 2}[dim]
        assert len(cls.witness) == want, beta
        assert len(cls.notes) == (not constant), beta


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


@pytest.mark.parametrize("knots", [2501, 1501])
def test_classification_accepts_tabulated_coefficients(knots):
    # at 1,501 knots, a cubic spline's slope error between knots leaves a
    # singular value of 2.8e-8 above the 1e-8 cutoff; the knots read 7
    xs = np.linspace(0.5, 3.0, knots)
    c = CoefficientFn.tabulated(xs, xs ** -2.0)
    assert classify_beta(c).dimension == 7
    const = CoefficientFn.tabulated(xs, np.full_like(xs, 2.0))
    assert classify_beta(const).dimension == 7


def _x_over_4(interval):
    """The reduction of a3 = x/4, a4 = 1 on interval."""
    return reduce_25_to_28(LinearForm("zero_order", {"a3": "x/4", "a4": 1}),
                           interval)


def test_a_table_is_collocated_at_its_knots_with_the_row_stencil():
    # rho'' = (t/4) rho with rho(0.5) = 1, rho'(0.5) = 0 is a combination
    # of Ai and Bi of k t, k = 4^(-1/3), and beta = rho^4 over
    # X = integral of rho^-2 has dbeta/dX = 4 rho^5 rho' exactly.  beta'
    # is 0 at t = 0.5, so the bound is absolute
    from scipy.special import airy

    res = _x_over_4((0.5, 2.0))
    beta = res.form["beta"]
    lo, hi = beta.domain
    xs, values, slopes = symmetry._collocation_samples(beta, lo + 0.03,
                                                       hi - 0.03)
    rows = np.searchsorted(beta.xs, xs)
    assert len(xs) == 40 and np.array_equal(beta.xs[rows], xs)
    assert np.array_equal(values, beta.values[rows])
    k = 4.0 ** (-1.0 / 3.0)
    ai, dai, bi, dbi = airy(k * 0.5)
    a, b = np.linalg.solve([[ai, bi], [k * dai, k * dbi]], [1.0, 0.0])
    ai, dai, bi, dbi = airy(k * res.rho.xs[rows])
    rho, drho = a * ai + b * bi, k * (a * dai + b * dbi)
    want = 4.0 * rho ** 5 * drho
    assert np.max(np.abs(slopes - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("beta,dim", [
    (b, d) for b, d in dict.fromkeys(
        BETA_CORPUS + [b for seed in range(5) for b in seeded_betas(seed)])])
def test_a_table_of_a_closed_form_classifies_as_the_closed_form(beta, dim):
    # exact values on 1,501 uniform knots over [0.5, 3]
    xs = np.linspace(0.5, 3.0, 1501)
    values = CoefficientFn.of(beta)(xs)
    assert classify_beta(CoefficientFn.tabulated(xs, values)).dimension == dim


def test_a_short_chain_table_classifies_at_fewer_than_40_knots():
    # a3 = x/4 reduced on [0.5, 0.52], as an example's dimension check
    # reads it, 2% in from each end
    beta = _x_over_4((0.5, 0.52)).form["beta"]
    lo, hi = beta.domain
    pad = 0.02 * (hi - lo)
    cls = classify_beta(beta, (lo + pad, hi - pad))
    assert (cls.dimension, cls.rank_report.collocation_points) == (6, 17)


def test_a_table_with_fewer_than_3_inner_knots_is_too_short():
    # 8 knots leave rows 3 and 4 for the row stencil
    xs = np.linspace(0.5, 0.6, 8)
    with pytest.raises(IntervalTooSmall, match="holds 2 knots of the table"):
        classify_beta(CoefficientFn.tabulated(xs, xs ** -2.0))


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


# the smallest root of a rational beta's denominator in its interval
_POLES = {"1/(x-1.0001)": 1.0001,
          "(-2)*(-2*x^2 + 5*x + 4)^(-2)": (5 + 57 ** 0.5) / 4,
          "(x^2 + 2*x + 2)/(-x^2 + 4*x + 1)": 2 + 5 ** 0.5,
          "1/(x^2-3)": 3 ** 0.5,
          "1/(x-1/2)": 0.5,
          "1/((x-1)^2*(x-2))": 1.0}


def _raises_pole_near(beta, interval):
    """PoleInInterval, naming a rational beta's pole within 1e-6."""
    with pytest.raises(PoleInInterval) as info:
        classify_beta(beta, interval=interval)
    if beta in _POLES:
        named = float(re.search(r"near x = (\S+)", str(info.value))[1])
        assert abs(named - _POLES[beta]) <= 1e-6, str(info.value)


@pytest.mark.parametrize("beta", ["1/(x-1.0001)", "1/(x-sqrt(2))"])
def test_classification_pole_between_grid_points(beta):
    _raises_pole_near(beta, (0.5, 3.0))


@pytest.mark.parametrize("beta,interval", [
    ("(-2)*(-2*x^2 + 5*x + 4)^(-2)", (0.5, 30.0)),   # root near 3.137
    ("(x^2 + 2*x + 2)/(-x^2 + 4*x + 1)", (0.5, 30.0)),  # root 2 + sqrt(5)
    ("1/(x^2-3)", (0.5, 3.0)),
    ("1/sin(x)", (0.5, 30.0)),
    ("1/(x-1/2)", (0.5, 3.0)),              # at the endpoint
    ("1/((x-1)^2*(x-2))", (0.5, 3.0)),      # the smallest root, a double
])
def test_classification_pole_anywhere_in_the_interval(beta, interval):
    _raises_pole_near(beta, interval)


def test_classification_decides_a_steep_finite_rational_beta():
    # no real root (discriminants -4e-5 and -4e-7), but peaks of 1e5 and
    # 1e7 at x = 1: interval enclosures cannot certify them finite, while
    # a Sturm count of the denominator's roots is exact
    for beta in ("1/(x^2-2*x+1.00001)", "1/(x^2-2*x+1.0000001)"):
        cls = classify_beta(beta, interval=(0.5, 3.0))
        assert cls.dimension == 6 and cls.rank_report is None


def test_classification_refuses_a_steep_finite_beta_it_cannot_certify():
    # not rational: exp(-16) ~ 1.1e-7 keeps the denominator off zero, yet
    # its enclosure holds 0 on pieces near x = 1 until they are far
    # narrower than the width floor, so the classifier refuses, and says
    # it could not certify beta, not that beta has a pole
    with pytest.raises(PoleInInterval, match="could not certify beta"):
        classify_beta("1/(x^2-2*x+1+exp(-16))", interval=(0.5, 3.0))


def _rational(beta):
    return symmetry._lowest_terms(parse(beta, CTX), "x") is not None


_SEEDED = [b for seed in range(20) for b in seeded_betas(seed)]


@pytest.mark.parametrize("beta,dim", [
    (b, d) for b, d in BETA_CORPUS + _SEEDED if d != 15 and _rational(b)])
def test_the_exact_route_agrees_with_collocation(beta, dim):
    # collocation is the oracle of the exact route, on every rational beta
    # of the corpus and of seeds 0-19: a disagreement fails here
    cls = classify_beta(beta)
    assert cls.rank_report is None
    oracle = symmetry._collocation_rank(CoefficientFn.of(beta), (0.5, 3.0),
                                        1e-8)
    assert cls.dimension == 11 - oracle.rank == dim


def _beta_fixed() -> list:
    """The fixed betas of the benchmark's beta_corpus workload."""
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BETA_FIXED


_CLOSED_FORMS = list(dict.fromkeys(
    (b, d) for b, d in BETA_CORPUS + _beta_fixed() + _SEEDED if d != 15))


@pytest.mark.parametrize("beta,dim", _CLOSED_FORMS)
def test_the_jet_route_agrees_with_collocation(beta, dim):
    # forced collocation is the oracle of the q''' certificate, on every
    # closed-form beta of the corpus, the benchmark and seeds 0-19: a
    # certificate for exactly the sixes, whatever route classify_beta takes
    cf = CoefficientFn.of(beta)
    pieces = symmetry._certify_finite(cf, 0.5, 3.0)
    note = symmetry._q3_certificate(cf, 0.5, 3.0, pieces)
    oracle = symmetry._collocation_rank(cf, (0.5, 3.0), 1e-8)
    assert 11 - oracle.rank == dim
    assert (note is not None) == (dim == 6)
    assert classify_beta(beta).dimension == dim


@pytest.mark.parametrize("beta", ["exp(x)", "sin(x)", "exp(-x^2)",
                                  "sqrt(4-x)"])
def test_a_closed_form_six_is_decided_by_its_jet(beta, monkeypatch):
    # no derivative expression, no constancy test and no collocation
    monkeypatch.setattr(symmetry, "_collocation_rank", None)
    monkeypatch.setattr(CoefficientFn, "is_constant", None)
    cls = classify_beta(beta)
    assert (cls.dimension, cls.rank_report) == (6, None)
    assert len(cls.witness) == 2
    assert cls.notes[0].startswith(
        "q = |beta|^(-1/2) is no quadratic: on the box [1.75, 1.75], beta "
        "lies in [")
    assert cls.notes[0].endswith(
        "beta and beta' are certified finite on [0.5, 3.0] in 1 piece")


def test_sin_on_an_interval_where_it_changes_sign_reads_6():
    # sin(x) is 0 at pi: the proof needs beta != 0 at the box only
    cls = classify_beta("sin(x)", interval=(0.5, 5.0))
    assert (cls.dimension, cls.rank_report) == (6, None)
    assert "on the box [2.75, 2.75]" in cls.notes[0]


@pytest.mark.parametrize("beta", ["sqrt(2)*x^(-2)", "exp(-2*log(x))"])
def test_a_seven_that_is_not_rational_falls_back_to_collocation(beta):
    # q = 2^(-1/4) x and q = x: q''' = 0, so no box certifies anything
    cls = classify_beta(beta)
    assert cls.dimension == 7 and cls.rank_report is not None
    assert cls.notes == ()


def test_a_constant_that_cannot_be_certified_finite_reads_7():
    # exp(1000) overflows, so the bisection fails; beta' = 0 still decides
    beta = CoefficientFn("symbolic", expr=parse("sqrt(2)*exp(x)/exp(x)",
                                                CTX))
    cls = classify_beta(beta, interval=(0.5, 1000.0))
    assert (cls.dimension, cls.case_label) == (
        7, "nonzero constant coefficient")
    with pytest.raises(PoleInInterval, match="not finite"):
        classify_beta("sqrt(2)*exp(x)", interval=(0.5, 1000.0))


@pytest.mark.parametrize("beta", [
    b for b, d in BETA_CORPUS if d == 7 and _rational(b) and "x" in b])
def test_a_rational_seven_has_three_symbolic_witnesses(beta):
    cls = classify_beta(beta)
    assert len(cls.witness) == 3
    s = reduced_system(parse(beta, CTX), CTX)
    for V in cls.witness:
        ok, rep = check_symmetry(s, V)
        assert ok, rep.render()
        assert all(c.method == "symbolic" for c in rep.checks)


def test_a_high_degree_rational_beta_takes_the_next_route(monkeypatch):
    # (x+1)^(-400) would build a degree-400 denominator: the exact route
    # refuses it before any polynomial product, and the jet route proves
    # q''' != 0 for q = (x+1)^200
    products = []
    real = symmetry._pmul

    def counting(*args):
        products.append(args)
        return real(*args)

    monkeypatch.setattr(symmetry, "_pmul", counting)
    cls = classify_beta("(x+1)^(-400)")
    assert products == []
    assert cls.dimension == 6 and cls.rank_report is None
    assert "q'''/3! in [" in cls.notes[0]


@pytest.mark.parametrize("beta,dim,num,den", [
    ("(x^2-1)/((x-1)*(x+1)^3)", 7, "1", "x^2 + 2*x + 1"),
    ("(x^2-1)/(x-1)", 6, "x + 1", "1")])
def test_the_exact_route_cancels_a_common_factor(beta, dim, num, den):
    # N and D share the factor x - 1 (and x + 1 in the first), which
    # _lowest_terms divides out before the degree and square tests
    cls = classify_beta(beta, interval=(1.5, 3.0))
    assert cls.dimension == dim and cls.rank_report is None
    assert f"with N = {num} and D = {den};" in cls.notes[0]


_ZERO_XS = np.linspace(0.5, 3.0, 51)


@pytest.mark.parametrize("beta,witnesses", [
    ("sin(x)^2 + cos(x)^2 - 1", 15),  # proved zero by the kernel
    ("exp(x)*exp(-x) - 1", 15),       # zero at every sample point
    (CoefficientFn.tabulated(_ZERO_XS, np.zeros_like(_ZERO_XS)), 0),
], ids=["proved", "sampled", "table"])
def test_a_zero_beta_off_the_exact_route_reads_15(beta, witnesses):
    cls = classify_beta(beta)
    assert (cls.dimension, cls.case_label) == (
        15, "coefficient identically zero")
    assert len(cls.witness or ()) == witnesses


_TABLE_XS = np.linspace(0.5, 3.0, 2501)


@pytest.mark.parametrize("beta,dim,method", [
    ("x^(-2)", 7, "symbolic"),                   # exact over Q[x]
    ("exp(x)", 6, "symbolic"),                   # a q''' certificate
    ("sin(x)^2 + cos(x)^2 + 1", 7, "symbolic"),  # the kernel proves beta' = 0
    ("sin(x)^2 + cos(x)^2 - 1", 15, "symbolic"),
    ("sin(2*x) - 2*sin(x)*cos(x) + 3", 7, "numeric"),  # beta' = 0 sampled
    ("exp(x)*exp(-x) - 1", 15, "numeric"),
    ("sqrt(2)*x^(-2)", 7, "numeric"),            # collocation
    (CoefficientFn.tabulated(_TABLE_XS, _TABLE_XS ** -2.0), 7, "numeric"),
    (CoefficientFn.tabulated(_TABLE_XS, np.full_like(_TABLE_XS, 2.0)), 7,
     "numeric"),
], ids=["rational", "jet", "proved-constant", "proved-zero",
        "sampled-constant", "sampled-zero", "collocation", "table",
        "constant-table"])
def test_a_classification_names_the_method_that_decided_it(beta, dim,
                                                           method):
    cls = classify_beta(beta)
    assert (cls.dimension, cls.method) == (dim, method)


def test_a_variable_non_rational_beta_is_not_zero_tested(monkeypatch):
    # beta' != 0 already rules out beta = 0, so only a constant beta pays
    # for a zero verdict on beta itself
    calls = []
    monkeypatch.setattr(symmetry, "simplify_verdict", lambda *a, **k: (
        calls.append(a) or simplify_verdict(*a, **k)))
    assert classify_beta("exp(x)").dimension == 6
    assert calls == []
    assert classify_beta("2^(1/2)").dimension == 7
    assert len(calls) == 1


# a CoefficientFn built directly keeps its removable pole at x = 1, so its
# beta is refused certification on (0.5, 3) before it reads as a constant
_UNCERTIFIED_CONSTANT = CoefficientFn(
    "symbolic", expr=parse("1/(x-1) + 2^(1/2) - 1/(x-1)", CTX))
_IRRATIONAL_NOTE = ("no witnesses built: the constant 2^(1/2) is not "
                    "rational",)


@pytest.mark.parametrize("beta,interval,dim,method,notes", [
    ("2^(1/2)", (0.5, 3.0), 7, "symbolic", _IRRATIONAL_NOTE),
    ("2^(1/2)", (1.0, 1.005), 7, "symbolic", _IRRATIONAL_NOTE),
    ("exp(2*x)-exp(x)^2", (1.0, 1.005), 15, "numeric", ()),
    (_UNCERTIFIED_CONSTANT, (0.5, 3.0), 7, "symbolic", _IRRATIONAL_NOTE),
], ids=["constant", "short-constant", "short-zero", "uncertified-constant"])
def test_each_constant_exit_of_the_closed_form_route(beta, interval, dim,
                                                     method, notes):
    # the certificate and collocation exits are pinned by
    # test_a_classification_names_the_method_that_decided_it
    cls = classify_beta(beta, interval)
    assert (cls.dimension, cls.method, cls.notes) == (dim, method, notes)


def test_the_uncertified_constant_is_refused_certification():
    with pytest.raises(PoleInInterval):
        symmetry._certify_finite(_UNCERTIFIED_CONSTANT, 0.5, 3.0)


def test_a_variable_closed_form_beta_keeps_its_refusal():
    # only a constant beta gets past a refusal to certify it
    with pytest.raises(IntervalTooSmall):
        classify_beta("exp(x)", interval=(1.0, 1.005))


def test_classifying_only_constants_proves_no_universal_witness():
    # the scaling and rotation fields are reached after the constant check
    symmetry._universal_proof.cache_clear()
    symmetry._proved_universal_witnesses.cache_clear()
    for beta, interval in (("2^(1/2)", (0.5, 3.0)), ("2^(1/2)", (1.0, 1.005)),
                           ("exp(2*x)-exp(x)^2", (1.0, 1.005)),
                           (_UNCERTIFIED_CONSTANT, (0.5, 3.0)),
                           ("sin(x)^2 + cos(x)^2", (0.5, 3.0)),
                           ("3/2", (0.5, 3.0)), ("0", (0.5, 3.0))):
        assert classify_beta(beta, interval).dimension in (7, 15)
    assert symmetry._universal_proof.cache_info().currsize == 0


def test_a_constant_beta_built_directly_is_simplified():
    # the dataclass constructor keeps beta as written; classify_beta
    # reads the constant 2 of its simplified form, as from a string
    beta = CoefficientFn("symbolic", expr=parse("sin(x)^2 + cos(x)^2 + 1",
                                                VarContext()))
    cls = classify_beta(beta)
    want = classify_beta("2")
    assert (cls.dimension, cls.case_label, cls.notes) == (
        7, want.case_label, want.notes)
    assert len(cls.witness) == len(want.witness) == 7


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
