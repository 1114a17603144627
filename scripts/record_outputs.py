#!/usr/bin/env python3
"""Print the pipeline's numeric outputs, one record per line, for a
bit-identity check between two checkouts.

Floats print as ``float.hex`` (so -0.0 differs from 0.0), arrays as their
shape and the sha256 of their float64 bytes, and a raised error as its
type and message.  A ``diff`` of the output of two checkouts, each run
with its own source tree, is then the identity check:

    PYTHONPATH=src python scripts/record_outputs.py > outputs.txt

The records are run_example(1..4).to_dict(); the trajectories of the
four worked examples (``integrate`` and ``map_trajectory`` at the step
from the error budget, and ``integrate`` at a fixed h = 1e-3); the forms
and tables of reduce_24_to_25 and reduce_25_to_28 along hand-written
chains from the examples' linear forms, a reference independent of
run_example, which reads its forms off the transformed targets; of
reduce_optimal on a general form, of two reductions that fail and of
three that take a closed form (a constant a3, one crossing zero, a
polynomial a1); classify_beta over `tests/beta_corpus.py`; the tabulated
beta over X of a3 = x/4, a4 = 1 on [0.5, 2], classified by collocation,
and the knots, beta and beta' that collocation reads; the dimension of
example 3's transformed target at (c1, c2) = (2, 1), where beta is a
table, and at (1, 2), where rho crosses zero and the chain reruns on the
safe sub-interval, with the collocation of each beta on the interval
that `_example_dimension` classifies it on; the collocation of the
tabulated beta of a3 = 2/x^2, a4 = 1 on [1, 2], and of 1,501-knot
uniform tables of x^(-2) and exp(x) on [0.5, 3]; the transform_system
right-hand sides of the four examples, and of the four systems (one not
CR) under the twelve maps of `tests/transform_corpus.py`, four of which
are refused; simplify of a few sin and cos powers, so that a change of
the kernel's normal form shows in the diff; and
attempt_linear_equivalence over a fixed list of constant optimal /
zero_order or reduced pairs.
"""

import hashlib
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

import csalin.verify
from csalin.canon import (
    CoefficientFn, LinearForm, RhoVanishes, attempt_linear_equivalence,
    reduce_24_to_25, reduce_25_to_28, reduce_optimal, transform_system,
)
from csalin.expr import ExprError, VarContext, parse, simplify, to_string
from csalin.symmetry import _collocation_samples, classify_beta
from csalin.verify import (
    _example_dimension, example_case, integrate, map_trajectory, run_example,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from beta_corpus import BETA_CORPUS  # noqa: E402
from transform_corpus import (  # noqa: E402
    TRANSFORM_MAPS, TRANSFORM_SYSTEMS, build,
)


def fmt(v) -> str:
    """v with every float bit-exact and every array hashed."""
    if isinstance(v, (bool, int, str)) or v is None:
        return repr(v)
    if isinstance(v, float):  # numpy's float64 included
        return v.hex()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, np.ndarray):
        data = np.ascontiguousarray(v, dtype=float).tobytes()
        return f"array{v.shape}:{hashlib.sha256(data).hexdigest()[:16]}"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {fmt(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(fmt(x) for x in v) + "]"
    raise TypeError(f"no record format for {type(v).__name__}")


def record(label: str, fn) -> None:
    """Print label and fn()'s record, or the ExprError or numeric error
    that fn raised."""
    try:
        out = fmt(fn())
    except (ExprError, ArithmeticError, ValueError) as exc:
        out = f"raises {type(exc).__name__}: {exc}"
    print(f"{label}: {out}")


def coefficient(c: CoefficientFn) -> dict:
    if c.kind == "symbolic":
        return {"expr": to_string(c.expr), "var": c.var}
    return {"xs": c.xs, "values": c.values, "step": c.step,
            "error": c.error_estimate}


def form(lf: LinearForm) -> dict:
    return {"kind": lf.kind, **{name: coefficient(c)
                                for name, c in lf.coeffs.items()}}


def rescaled(red) -> dict:
    return {"form": form(red.form), "rho": coefficient(red.rho),
            "new_var": coefficient(red.new_var),
            "error": red.error_estimate}


def first_order(red) -> dict:
    return {"form": form(red.form), "m1": coefficient(red.m1),
            "m2": coefficient(red.m2), "error": red.error_estimate}


def to_reduced(lf: LinearForm, interval: tuple) -> dict:
    """reduce_25_to_28 on interval, and where rho vanishes also on the
    first 95% of its safe sub-interval, as run_example does."""
    try:
        return {"full": rescaled(reduce_25_to_28(lf, interval))}
    except RhoVanishes as exc:
        lo, hi = exc.safe_interval
        return {"crossing": exc.crossing, "safe": exc.safe_interval,
                "shortened": rescaled(
                    reduce_25_to_28(lf, (lo, lo + 0.95 * (hi - lo))))}


def zero_order(a3, a4) -> LinearForm:
    return LinearForm("zero_order", {"a3": a3, "a4": a4})


def classification(beta, *interval) -> dict:
    cls = classify_beta(beta, *interval)
    r = cls.rank_report
    out = {"dimension": cls.dimension, "label": cls.case_label,
           "notes": cls.notes, "witness_count": len(cls.witness or ()),
           "collocation": r is not None}
    if r is not None:
        out.update(shape=r.shape, singular_values=r.singular_values,
                   rank=r.rank, cutoff=r.cutoff)
    return out


def example_beta(case, out) -> tuple:
    """(beta, interval) as `_example_dimension` classifies them."""
    seen, real = [], csalin.verify.classify_beta
    csalin.verify.classify_beta = lambda beta, interval, seed: (
        seen.append((beta, interval)) or real(beta, interval, seed=seed))
    try:
        _example_dimension(case, out, 0)
    finally:
        csalin.verify.classify_beta = real
    return seen[0]


def padded(c: CoefficientFn) -> tuple:
    """A table's domain 2% in from each end."""
    lo, hi = c.domain
    pad = 0.02 * (hi - lo)
    return (lo + pad, hi - pad)


def _dimension_record(case, out) -> dict:
    dim, check, notes = _example_dimension(case, out, 0)
    return {"dimension": dim, "check": check.to_dict(), "notes": notes}


def transformed(system: tuple, xyz: tuple, inverse: dict | None) -> dict:
    """transform_system of system under the map, and whether building the
    map warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sysx, T = build(system, xyz, inverse)
    out = transform_system(sysx, T)
    return {"omega1": to_string(out.omega1), "omega2": to_string(out.omega2),
            "warns": bool(caught)}


TRIG_POWERS = ("sin(x)^2 + cos(x)^2", "sin(x)^3", "sin(x)^4 - cos(x)^4",
               "sin(x+y)^2*cos(x+y)", "1/(sin(z)^2 + cos(z)^2)",
               "(sin(x) + x)^2/(sin(x) + x)", "sin(x)^(-2)")

# (dt11, dt12, dt21) against (a3, a4), or against beta when one value; the
# first two are one system written in both forms
EQUIVALENCE_PAIRS = (
    ((0, -1, 1), (0, 1)), ((1, -2, 1), (1,)), ((1, 2, 3), (0, 1)),
    ((1, 2, 3), (2, 3)), ((1, 2, 3), (1, 0)), ((1, 2, 3), (0, 0)),
    ((0, 0, 0), (0, 0)), ((0, 0, 0), (0, 1)), ((1, 1, -1), (0, 1)),
    (("1/2", "-5/4", 1), (1,)), ((3, -5, 2), (0, -1)),
    ((0, -2, 1), (0, "sqrt(2)")))


def equivalence(dt: tuple, tgt: tuple) -> dict:
    opt = LinearForm("optimal", dict(zip(("dt11", "dt12", "dt21"), dt)))
    target = (LinearForm("reduced", {"beta": tgt[0]}) if len(tgt) == 1
              else zero_order(*tgt))
    v = attempt_linear_equivalence(opt, target)
    return {"consistent": v.consistent, "case": v.case,
            "method": v.method, "solution": v.solution}


def main() -> int:
    for i in (1, 2, 3, 4):
        record(f"run_example {i}", lambda: run_example(i).to_dict())
    for i in (1, 2, 3, 4):
        case = example_case(i)
        traj = integrate(case.system, case.init, case.interval[1],
                         params=case.param_values)
        record(f"integrate {i}",
               lambda: {"xs": traj.xs, "states": traj.states,
                        "error": traj.error, "step": traj.step,
                        "pilots": traj.pilots})
        record(f"map_trajectory {i}", lambda: map_trajectory(
            traj, case.transformation, case.param_values))
        fixed = integrate(case.system, case.init, case.interval[1], h=1e-3,
                          params=case.param_values)
        record(f"integrate {i} at h = 1e-3",
               lambda: {"xs": fixed.xs, "states": fixed.states,
                        "error": fixed.error})

    # reference chains written by hand, independent of run_example, which
    # reads its forms off the transformed targets: examples 2 and 3 start
    # from a first-order form with c1 = c2 = 1, example 4 from a3 = a4 = 1
    for i, scale in ((2, "1"), (3, "1+x")):
        lf = LinearForm("first_order", {"a1": scale, "a2": scale})
        red = reduce_24_to_25(lf, (0.0, 2.0))
        record(f"reduce_24_to_25 {i}", lambda: first_order(red))
        record(f"reduce_25_to_28 {i}",
               lambda: to_reduced(red.form, (0.0, 2.0)))
    record("reduce_25_to_28 4", lambda: to_reduced(
        zero_order(1, 1), (0.0, 2.0)))
    general = LinearForm("general", {"d11": "2 + x", "d12": "3",
                                     "d21": "-1", "d22": "1/3"})
    record("reduce_optimal general",
           lambda: rescaled(reduce_optimal(general, (0.5, 2.0))))
    # a pole; an inaccurate rho; then closed forms: a constant a3 that
    # RK4 refused, a constant a3 whose rho crosses zero, and a polynomial
    # a1 that RK4 refused
    for a3 in ("1/(x-1)", "exp(x^3)", "25", "-4"):
        record(f"reduce_25_to_28 a3 = {a3}", lambda: to_reduced(
            zero_order(a3, "1"), (0.5, 2.0)))
    lf = LinearForm("first_order", {"a1": "2*x^5", "a2": "1"})
    record("reduce_24_to_25 a1 = 2*x^5",
           lambda: first_order(reduce_24_to_25(lf, (0.5, 2.0))))

    for beta, _ in BETA_CORPUS:
        record(f"classify_beta {beta}", lambda: classification(beta))
    # a table is an output of the chain: beta over X, and the knots that
    # collocation reads it at
    table = reduce_25_to_28(zero_order("x/4", 1), (0.5, 2.0)).form["beta"]
    lo, hi = table.domain
    record("classify_beta of the table of a3 = x/4",
           lambda: classification(table, (lo + 0.03, hi - 0.03)))
    record("collocation knots of the table of a3 = x/4",
           lambda: _collocation_samples(table, lo + 0.03, hi - 0.03))
    for c1, c2 in ((2.0, 1.0), (1.0, 2.0)):
        case = example_case(3)
        case.param_values = {"c1": c1, "c2": c2}
        out = transform_system(case.system, case.transformation)
        record(f"_example_dimension 3 at c1 = {c1}, c2 = {c2}",
               lambda: _dimension_record(case, out))
        record(f"classify_beta of example 3's beta at c1 = {c1}, c2 = {c2}",
               lambda: classification(*example_beta(case, out)))
    table = reduce_25_to_28(zero_order("2/x^2", 1), (1.0, 2.0)).form["beta"]
    record("classify_beta of the table of a3 = 2/x^2",
           lambda: classification(table, padded(table)))
    # exact knots of closed forms.  x^(-2) has dimension 7; a cubic
    # spline's slope error between its knots leaves a spurious singular
    # value above the cutoff and reads 6
    xs = np.linspace(0.5, 3.0, 1501)
    for name, values in (("x^(-2)", xs ** -2.0), ("exp(x)", np.exp(xs))):
        record(f"classify_beta of the 1,501-knot table of {name}",
               lambda: classification(CoefficientFn.tabulated(xs, values)))

    for i in (1, 2, 3, 4):
        case = example_case(i)
        out = transform_system(case.system, case.transformation)
        record(f"transform_system {i}", lambda: {
            "omega1": to_string(out.omega1), "omega2": to_string(out.omega2)})
    for system in TRANSFORM_SYSTEMS:
        for xyz, inverse in TRANSFORM_MAPS:
            record(f"transform_system {system} by {xyz}"
                   + (" with its inverse" if inverse else ""),
                   lambda: transformed(system, xyz, inverse))
    for text in TRIG_POWERS:
        record(f"simplify {text}",
               lambda: to_string(simplify(parse(text, VarContext()))))
    for dt, tgt in EQUIVALENCE_PAIRS:
        record(f"attempt_linear_equivalence {dt} {tgt}",
               lambda: equivalence(dt, tgt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
