"""Self-tests of the benchmark: verdict checking, self time, inputs.

    python3 -m pytest perfbench
"""

import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration as cal  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_planted_wrong_answer_counts_in_failed_share():
    runner = run.InProcess("beta_corpus", seed=0)
    reqs = [wl.BetaRequest("0", 15), wl.BetaRequest("0", 7)]
    samples, _, _ = run.run_requests(runner, reqs, 0.0, False, Tracer())
    assert [s.failure for s in samples] == [None, "wrong"]
    assert "expected 7" in samples[1].message
    metrics, notes = run.end_to_end("beta_corpus", samples, [1.0], 1024)
    assert notes["failed_share"] == 0.5
    assert metrics["correct_share"][0] == 0.5


def test_planted_wrong_cli_field_is_a_wrong_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    runner = run.Cli(seed=0)
    planted = wl.CliRequest("classify", ("classify", "--beta", "1"),
                            fields={"dimension": 6})
    kind, msg = runner.call(planted, Tracer(), None)
    assert kind == "wrong"
    assert msg == "dimension = 7, expected 6"
    assert runner.peak_rss_kib() > 0


def test_raising_request_is_an_error_not_an_abort():
    class Raises:
        def trace_context(self, tracer, traced):
            return nullcontext()

        def call(self, req, tracer, span):
            if req:
                raise ValueError("planted")
            return None, ""

        def label(self, req):
            return str(req)

    samples, _, _ = run.run_requests(Raises(), [True, False], 0.0, False,
                                     Tracer())
    assert [s.failure for s in samples] == ["error", None]
    assert samples[0].message == "ValueError: planted"


def _span(name, start, end, parent, request=0):
    return [name, float(start), float(end), parent, request]


def test_self_time_on_synthetic_tree():
    spans = [
        _span("request", 0, 10, None),
        _span("a", 1, 4, 0),
        _span("a.child", 2, 3, 1),
        _span("b", 5, 9, 0),
        _span("b.child", 6, 6.5, 3),
        _span("b.child", 7, 8, 3),
    ]
    assert self_times(spans) == pytest.approx([3, 2, 1, 2.5, 0.5, 1])


def test_overlapping_children_are_counted_once():
    spans = [_span("p", 0, 10, None), _span("c", 2, 6, 0),
             _span("c", 4, 8, 0), _span("c", 9, 12, 0)]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_per_layer_is_self_time_per_traced_request():
    tracer = Tracer()
    tracer.spans = [
        _span("request", 0, 4, None, 0),
        _span("verify.integrate", 1, 3, 0, 0),
        _span("request", 4, 6, None, 1),
        _span("verify.integrate", 4, 5, 2, 1),
    ]
    tracer.counts["verify.integrate.steps"] = 30
    samples = [run.Sample("a", 4.0, 0), run.Sample("b", 2.0, 0),
               run.Sample("a", 3.0, 1), run.Sample("b", 3.0, 1)]
    samples[1].factor = 2.0
    metrics = run.per_layer(tracer, samples, [True, False])
    assert metrics["verify.integrate.s"][0] == pytest.approx((2 + 2) / 2)
    assert metrics["request.s"][0] == pytest.approx((2 + 2) / 2)
    assert metrics["verify.integrate.steps"][0] == 15
    assert metrics["trace.overhead_share"][0] == pytest.approx(8 / 6 - 1)


def test_adopted_child_spans_hang_under_the_request():
    tracer = Tracer()
    with tracer.span("request") as req:
        tracer.adopt([["cli.import", 0.1, 0.2, None, 0],
                      ["cli.main", 0.2, 0.5, None, 0],
                      ["csa.check_cr", 0.3, 0.4, 1, 0]], req)
    assert [s[3] for s in tracer.spans] == [None, 0, 0, 2]


def test_nearest_rank_tail():
    vals = list(range(1, 41))
    assert run.nearest_rank(vals, 64) == (26, 14)
    assert run.nearest_rank(vals, 100) == (40, 0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    assert wl.beta_requests(5) == wl.beta_requests(5)
    assert wl.beta_requests(5) != wl.beta_requests(6)
    assert wl.example_requests(3) == wl.example_requests(3)
    a = wl.cli_requests(4, tmp_path / "a")
    b = wl.cli_requests(4, tmp_path / "b")
    assert [r.label for r in a] == [r.label for r in b]
    assert (tmp_path / "a" / "general.json").read_text() == \
        (tmp_path / "b" / "general.json").read_text()


def test_fixed_corpus_is_kept_whole():
    betas = [b for b, _ in wl.BETA_FIXED]
    assert len(betas) == 24 and len(set(betas)) == 24
    reqs = wl.beta_requests(0)
    assert {r.beta for r in reqs} >= set(betas)
    assert sum(r.expected == 7 for r in reqs) - \
        sum(d == 7 for _, d in wl.BETA_FIXED) == len(wl.SEVEN_DEGREES)


def test_speed_factors_use_the_kernel_timings_around_each_request():
    kernel = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    f = cal.factors(kernel, 6)
    assert f[0] == pytest.approx((cal.REFERENCE_S / 1.0) ** cal.EXPONENT)
    assert f[5] == pytest.approx((cal.REFERENCE_S / 4.0) ** cal.EXPONENT)
    assert len(f) == 6


def test_throughput_is_requests_per_scaled_second():
    samples = [run.Sample("a", 1.0, 0), run.Sample("b", 1.0, 0),
               run.Sample("a", 2.0, 1), run.Sample("b", 2.0, 1),
               run.Sample("a", 4.0, 2), run.Sample("b", 4.0, 2)]
    for s in samples[4:]:
        s.factor = 0.25
    rps, p50, tail, beyond = run.timings("worked_examples", samples,
                                         lambda s: s.scaled)
    assert rps == pytest.approx(6 / 8)
    assert p50 == pytest.approx(1.0)
