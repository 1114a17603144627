"""The benchmark's tracer (perfbench/tracer.py) installed on real code.

A traced run wraps every function of `tracer.PUBLIC` where a csalin
module binds it, and its counters read `integrate`'s `sanity` argument,
`Classification.rank_report` and `ZeroVerdict.method`.  A rename there
would break the traced runs only; these tests run the code they time.
The functions are called through their modules, as the benchmark does,
so that the wrappers are the ones called.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from csalin import canon, symmetry, verify
from csalin.canon import LinearForm
from csalin.expr import VarContext, parse

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer as tr  # noqa: E402


class _Recording(tr.Tracer):
    """A tracer that also keeps (name, error) of each traced call that
    raised."""

    def __init__(self):
        super().__init__()
        self.raised = []

    @contextmanager
    def span(self, name: str):
        with super().span(name) as idx:
            try:
                yield idx
            except Exception as exc:
                self.raised.append((name, exc))
                raise


@pytest.fixture(scope="module")
def traced():
    """A worked example, one beta per route of classify_beta and a general
    form's chain, under the installed tracer: (tracer, the wrapper of each
    public function, the results)."""
    ctx = VarContext()
    tracer = _Recording()
    with tr.installed(tracer):
        wrapped = {f"{mod}.{name}": getattr(sys.modules[f"csalin.{mod}"],
                                            name)
                   for mod, names in tr.PUBLIC.items() for name in names}
        report = verify.run_example(3)
        exact = symmetry.classify_beta(parse("x^(-2)", ctx))
        jet = symmetry.classify_beta(parse("exp(x)", ctx))
        table = canon.reduce_25_to_28(
            LinearForm("zero_order", {"a3": "x/4", "a4": 1}),
            (0.5, 2.0)).form["beta"]
        lo, hi = table.domain
        collocated = symmetry.classify_beta(table, (lo + 0.03, hi - 0.03))
        # reduce_chain looks its steps up per call, so each is timed
        chain = canon.reduce_chain(LinearForm("general", {
            "d11": "2 + x", "d12": "x", "d21": "1", "d22": "x^2"}),
            (0.5, 2.0))
    return tracer, wrapped, (report, exact, jet, collocated, chain)


def test_every_public_function_is_wrapped_and_restored(traced):
    wrapped = traced[1]
    for name, fn in wrapped.items():
        mod, fname = name.split(".")
        assert fn.__wrapped__ is getattr(sys.modules[f"csalin.{mod}"],
                                         fname), name


def test_traced_routes_raise_nothing_and_fire_every_counter(traced):
    tracer, _, results = traced
    report, exact, jet, collocated, chain = results
    assert tracer.raised == []
    assert report.passed
    # the exact route over Q[x], the jet route's certificate, collocation
    assert exact.dimension == 7 and exact.rank_report is None
    assert exact.notes[0].startswith("decided exactly over Q[x]")
    assert jet.dimension == 6 and jet.rank_report is None
    assert jet.notes[0].startswith("q = |beta|^(-1/2) is no quadratic")
    assert collocated.dimension == 6 and collocated.rank_report is not None
    assert [red.rescaling for red in chain] == ["rk4"]
    # every public function ran, each under its own span; check_symmetry
    # proves the witnesses once per process, so an earlier test may have
    assert {span[0] for span in tracer.spans} | {
        "symmetry.check_symmetry"} == {
        f"{mod}.{name}" for mod, names in tr.PUBLIC.items()
        for name in names}
    counts = tracer.counts
    assert counts["verify.integrate.steps"] > 0
    # example 3's beta and the two closed forms count as exact
    assert counts["symmetry.classify_beta.exact"] == 3
    assert counts["symmetry.classify_beta.collocation"] == 1
    assert "symmetry.classify_beta.numpy_warnings" in counts
    assert counts["expr.zero_verdict.symbolic"] > 0
