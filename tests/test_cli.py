"""Command-line interface: exit codes, JSON output, determinism."""

from __future__ import annotations

import json

import pytest

from csalin.cli import main


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


CORRESPONDENT = {
    "system": {"omega1": "-dy^2 + dz^2 - (2/x)*dy",
               "omega2": "-2*dy*dz - (2/x)*dz"},
}

NOT_CORRESPONDENT = {"system": {"omega1": "dy^2", "omega2": "0"}}


def test_check_pass_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, "p.json", CORRESPONDENT)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "CSA-correspondent: yes" in out


def test_check_fail_exit_one(tmp_path, capsys):
    path = _write(tmp_path, "p.json", NOT_CORRESPONDENT)
    assert main(["check", path]) == 1
    assert "CSA-correspondent: no" in capsys.readouterr().out


def test_malformed_input_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    bad_expr = _write(tmp_path, "b2.json",
                      {"system": {"omega1": "1 + * 2", "omega2": "0"}})
    assert main(["check", bad_expr]) == 2


def test_an_expression_too_deep_to_parse_exit_two(capsys):
    beta = "(" * 2000 + "x" + ")" * 2000
    assert main(["classify", "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert err == "error: expression nests too deeply to parse\n"


def test_classify_inline_beta(capsys):
    assert main(["classify", "--beta", "0"]) == 0
    assert "15" in capsys.readouterr().out
    assert main(["classify", "--beta", "1"]) == 0
    assert "7" in capsys.readouterr().out
    assert main(["classify", "--beta", "exp(x)"]) == 0
    assert "6" in capsys.readouterr().out


def test_classify_overflowing_beta_exit_two(capsys):
    assert main(["classify", "--beta", "exp(x^2)",
                 "--interval", "0.5", "30"]) == 2
    assert "not finite on the interval" in capsys.readouterr().err


def test_classify_on_a_wide_interval(capsys):
    assert main(["--json", "classify", "--beta", "x^(-2)",
                 "--interval", "0.5", "1e9"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 7


def test_canonicalize_on_a_too_wide_interval_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "zero_order", "a3": "1", "a4": "x"},
                   "interval": [0.5, 1e9]})
    assert main(["canonicalize", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: interval [0.5, 1e+09] needs more than")
    assert err.count("\n") == 1


@pytest.mark.parametrize("a3,message", [
    ("exp(1000*x)", "error: state escaped near x = 0.501\n"),
    ("exp(x^3)", "error: step-doubling disagreement 1.170e+00 exceeds "
                 "1e-7\n"),
], ids=["overflow", "inaccurate"])
def test_canonicalize_refuses_an_untrustworthy_reduction(tmp_path, capsys,
                                                          a3, message):
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "zero_order", "a3": a3, "a4": "1"},
                   "interval": [0.5, 2]})
    assert main(["canonicalize", path]) == 2
    assert capsys.readouterr().err == message


def test_classify_requires_beta():
    assert main(["classify"]) == 2


def test_classify_json_deterministic(capsys):
    # exp(x) is not rational: a jet proves q''' != 0, and a note says where
    assert main(["--json", "classify", "--beta", "exp(x)"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "classify", "--beta", "exp(x)"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema_version"] == 2
    assert doc["dimension"] == 6
    assert "rank" not in doc and "svd_cutoff" not in doc
    assert doc["notes"][0].startswith("q = |beta|^(-1/2) is no quadratic: "
                                      "on the box [1.75, 1.75], beta lies in")


def test_classify_json_of_a_collocation_rank(capsys):
    # q = 2^(-1/4) x has q''' = 0, so collocation decides this beta
    assert main(["--json", "classify", "--beta", "sqrt(2)*x^(-2)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 7
    assert doc["rank"] == 11 - doc["dimension"]
    assert doc["svd_cutoff"] == 1e-8
    assert doc["notes"] == []
    # the singular values on either side of the rank cutoff, relative to
    # the largest: a gap of orders of magnitude on both sides of it
    kept, cut = doc["singular_values_at_cutoff"]
    assert 1e-3 < kept <= 1.0 and 0.0 <= cut < 1e-12
    assert kept > doc["svd_cutoff"] >= cut
    assert doc["schema_version"] == 2


def test_classify_json_of_a_rational_beta_is_exact(capsys):
    # decided over Q[x]: three witnesses, and no collocation rank
    assert main(["--json", "classify", "--beta", "x^(-2)"]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "classify", "--beta", "x^(-2)"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["dimension"] == 7
    assert doc["witness_count"] == 3
    assert "rank" not in doc and "svd_cutoff" not in doc
    assert "singular_values_at_cutoff" not in doc
    assert doc["notes"][0].startswith("decided exactly over Q[x]: ")


def test_json_output_round_trips_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, "p.json", CORRESPONDENT)
    assert main(["--json", "check", path]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) == out.strip()
    assert doc["correspondent"] is True


def test_canonicalize_symbolic_chain(tmp_path, capsys):
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "zero_order", "a3": "0", "a4": "1/x"},
                   "interval": [1.0, 2.0]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "reduced"
    assert doc["chain"] == ["zero_order -> reduced"]
    assert doc["coefficients"]["beta"] == {"kind": "symbolic",
                                          "expr": "x^(-1)"}


def test_canonicalize_a_constant_a3_prints_a_closed_form_beta(tmp_path,
                                                               capsys):
    # rho = cosh(w (x - 1/2)) with w^2 = 3/2 gives beta = 2 rho^4 =
    # 2 (1 - 3/2 (X - 1/2)^2)^-2
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "zero_order", "a3": "3/2", "a4": "2"},
                   "interval": [0.5, 2.0]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["rescaling"]) == ("reduced", "closed-form")
    assert doc["coefficients"]["beta"] == {
        "kind": "symbolic", "expr": "128*(12*x^2 - 12*x - 5)^(-2)"}


def test_canonicalize_full_chain_from_first_order(tmp_path, capsys):
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "first_order", "a1": "3", "a2": "0"},
                   "interval": [0.0, 1.0]})
    assert main(["canonicalize", path]) == 0
    out = capsys.readouterr().out
    assert "first_order -> zero_order" in out
    assert "zero_order -> reduced" in out
    assert "cross-check" not in out


def test_canonicalize_json_names_each_step_of_the_chain(tmp_path, capsys):
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "first_order", "a1": "1+x",
                            "a2": "1+x"}, "interval": [0.5, 2.0]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain"] == ["first_order -> zero_order",
                            "zero_order -> reduced"]


def test_canonicalize_first_order_reports_no_cross_check(tmp_path, capsys):
    # a3 + i a4 = zeta^2/4 - zeta'/2 is computed once, so there is no
    # second route to report (schema_version 2 dropped cross_check_error)
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "first_order", "a1": "1+x", "a2": "x"},
                   "interval": [0.5, 2.0]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2 and doc["kind"] == "reduced"
    assert "cross_check_error" not in doc
    assert main(["canonicalize", path]) == 0
    assert "cross-check" not in capsys.readouterr().out


@pytest.mark.parametrize("form,rescaling", [
    ({"kind": "zero_order", "a3": "25", "a4": "1"}, "closed-form"),
    ({"kind": "first_order", "a1": "1+x", "a2": "1+x"}, "closed-form"),
    ({"kind": "zero_order", "a3": "0", "a4": "1/x"}, "closed-form"),
    ({"kind": "zero_order", "a3": "2/x^2", "a4": "1"}, "rk4"),
    # M takes the closed form, rho'' = ((x^2 - 1)/4 - 1/2) rho takes RK4
    ({"kind": "first_order", "a1": "x", "a2": "1"}, "rk4"),
], ids=["constant-a3", "polynomial-a1-a2", "identity", "variable-a3",
        "mixed"])
def test_canonicalize_names_the_rescaling_route(tmp_path, capsys, form,
                                                rescaling):
    path = _write(tmp_path, "f.json", {"form": form, "interval": [1.0, 2.0]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "reduced" and doc["rescaling"] == rescaling
    assert main(["canonicalize", path]) == 0
    assert f"rescaling: {rescaling}" in capsys.readouterr().out.splitlines()


def test_canonicalize_refines_the_step_where_1e_3_misses_the_gate(
        tmp_path, capsys):
    # example 3 with c1 = 5, c2 = 1 in zero_order form: rho's run at 1e-3
    # reads 2.302e-05, so the reduction reruns at a finer step
    path = _write(tmp_path, "f.json", {
        "form": {"kind": "zero_order", "a3": "6*x^2 + 12*x + 7/2",
                 "a4": "5/2*x^2 + 5*x + 2"}, "interval": [0, 2]})
    assert main(["--json", "canonicalize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "reduced" and doc["rescaling"] == "rk4"
    beta = doc["coefficients"]["beta"]
    assert beta["points"] > 2001 and beta["error_estimate"] <= 1e-9


def test_canonicalize_refuses_a_saturating_closed_form(tmp_path, capsys):
    # tanh(20 (x - 0.5)) is 1.0 in float beyond x = 1.28: X stops moving
    path = _write(tmp_path, "f.json",
                  {"form": {"kind": "zero_order", "a3": "400", "a4": "1"},
                   "interval": [0.5, 2]})
    assert main(["canonicalize", path]) == 2
    assert capsys.readouterr().err == (
        "error: integral of rho^-2 stops increasing near x = 1.287\n")


def test_transform_reports_new_system(tmp_path, capsys):
    path = _write(tmp_path, "t.json", {
        **CORRESPONDENT,
        "transformation": {"X": "1/x", "Y": "exp(y)*cos(z)",
                           "Z": "exp(y)*sin(z)"},
    })
    assert main(["transform", path]) == 0
    out = capsys.readouterr().out
    assert "Y'' = 0" in out
    assert "Z'' = 0" in out


def test_verify_symmetry_pass_and_fail(tmp_path, capsys):
    base = {"system": {"omega1": "0", "omega2": "0"}}
    good = _write(tmp_path, "g.json", {
        **base, "generators": [{"xi": "1", "eta1": "0", "eta2": "0"},
                               {"xi": "x", "eta1": "0", "eta2": "0"}]})
    assert main(["verify-symmetry", good]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = _write(tmp_path, "b.json", {
        **base, "generators": [{"xi": "y", "eta1": "x^3", "eta2": "0"}]})
    assert main(["verify-symmetry", bad]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_demo_one_passes(capsys):
    assert main(["demo", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "15" in out


def test_demo_one_reads_its_dimension_off_the_target(capsys):
    # the free particle Y'' = Z'' = 0 is read as the zero_order form
    # a3 = a4 = 0, whose reduced coefficient is 0
    assert main(["--json", "demo", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 15
    assert doc["notes"] == ["reduced-form coefficient classified as: "
                            "coefficient identically zero"]


def test_demo_json_reports_the_richardson_error(capsys):
    assert main(["--json", "demo", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trajectory_residual"] <= 1e-5
    assert 0.0 < doc["integration_error"] <= 1e-7
    assert main(["demo", "1"]) == 0
    assert "trajectory step-doubling error: " \
        f"{doc['integration_error']:.3e}" in capsys.readouterr().out


def test_demo_json_reports_the_trajectory_step(capsys):
    # example 3's pilot of 1/24 misses the error budget and reruns at the
    # step it predicts; the pilot is reported beside the run kept
    assert main(["--json", "demo", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert 1e-3 < doc["trajectory_step"] < 5e-3
    assert doc["integration_error"] <= 1e-9
    (pilot,) = doc["trajectory_pilots"]
    assert pilot["step"] == 1 / 24 and pilot["error"] > 1e-9
    assert main(["demo", "3"]) == 0
    assert f"{doc['integration_error']:.3e} at step " \
        f"{doc['trajectory_step']:.3g} (discarded: {pilot['error']:.3e} " \
        "at step 0.0417)" in capsys.readouterr().out


def test_demo_bad_id(capsys):
    assert main(["demo", "9"]) == 2


@pytest.mark.parametrize("tol", ["0", "-1", "1", "nan"])
def test_tol_outside_the_unit_interval_exit_two(tol, capsys):
    assert main(["--tol", tol, "classify", "--beta", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol must lie in (0, 1)" in captured.err


def test_tol_reaches_the_svd_cutoff(capsys):
    assert main(["--json", "--tol", "1e-6", "classify", "--beta",
                 "sqrt(2)*x^(-2)"]) == 0
    assert json.loads(capsys.readouterr().out)["svd_cutoff"] == 1e-6


@pytest.mark.parametrize("lo, hi", [("nan", "1"), ("0.5", "inf"),
                                    ("3", "0.5")])
def test_classify_bad_interval_exit_two(lo, hi, capsys):
    assert main(["classify", "--beta", "x", "--interval", lo, hi]) == 2
    assert "--interval must be two finite numbers lo < hi" \
        in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"beta": "x", "interval": ["a", "b"]}, "interval"),
    ({"beta": "x", "interval": 5}, "interval"),
    ({"beta": "x", "interval": [3, 0.5]}, "interval"),
    ({"beta": [1]}, "beta"),
    ({**CORRESPONDENT, "parameters": 5}, "parameters"),
    ({**CORRESPONDENT, "parameters": "c1"}, "parameters"),
    ({**CORRESPONDENT, "variables": {"independent": 1}},
     "variables.independent"),
    ({**CORRESPONDENT, "variables": {"dependent": ["y"]}},
     "variables.dependent"),
    ({"system": ["a"]}, "system"),
    ({"system": {"omega1": 1, "omega2": "0"}}, "system.omega1"),
    ({"system": {"omega1": "0", "omega2": "0"},
      "generators": [{"xi": 1, "eta1": "0", "eta2": "0"}]},
     "generators[0].xi"),
    ({"form": {"kind": [1], "a3": "1", "a4": "1"}}, "form"),
    ({"form": {"kind": "zero_order", "a3": [1], "a4": "1"}}, "form.a3"),
], ids=["interval-strings", "interval-number", "interval-reversed",
        "beta-list", "parameters-number", "parameters-string",
        "independent-number", "dependent-one-name", "system-list",
        "omega1-number", "generator-number", "form-kind-list",
        "form-coefficient-list"])
def test_malformed_problem_field_exit_two(doc, field, tmp_path, capsys):
    path = _write(tmp_path, "p.json", doc)
    command = {"beta": "classify", "form": "canonicalize",
               "generators": "verify-symmetry"}
    sub = next((c for k, c in command.items() if k in doc), "check")
    assert main([sub, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be"), err
