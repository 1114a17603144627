#!/usr/bin/env python3
"""csalin benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: worked_examples, beta_corpus, cli_cold (see README.md).  The
run times set-up in fresh interpreters, then sends requests one at a time
in whole cycles over the workload's inputs until S seconds have passed,
checks every verdict against the reference answers in workloads.py, and
prints a JSON object as its last line.  With --trace 0 it holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, from a
run that alternates traced and untraced cycles.  A run record and, when
traced, the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibration as cal  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("worked_examples", "beta_corpus", "cli_cold")

# Fixed per workload so that parent and change report the same quantile:
# with whole cycles of unequal requests, a percentile that followed the
# sample count would move between request kinds as the code got faster.
# Each leaves at least ten samples beyond it in a 30-second run at the
# commit that introduced the benchmark.
TAIL_PERCENTILE = {"worked_examples": 64, "beta_corpus": 90, "cli_cold": 64}

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0

SETUP_CODE = """
import sys
src, here, workload, seed, input_dir = sys.argv[1:]
sys.path[:0] = [src, here]
import csalin
if not csalin.__file__.startswith(src):
    sys.exit("csalin imported from " + csalin.__file__)
import workloads
from pathlib import Path
workloads.build(workload, int(seed), Path(input_dir))
"""

LAYERS = [f"{m}.{f}" for m, fs in tr.PUBLIC.items() for f in fs] + \
    ["cli.main", "request"]
COUNTS = ["verify.integrate.steps",
          "symmetry.classify_beta.collocation",
          "symmetry.classify_beta.exact",
          "symmetry.classify_beta.numpy_warnings",
          "expr.zero_verdict.symbolic",
          "expr.zero_verdict.numeric"]


@dataclass
class Sample:
    label: str
    latency: float               # wall seconds
    cycle: int
    failure: str | None = None   # "error" (raised / exit 2) or "wrong"
    message: str = ""
    warnings: int = 0
    factor: float = 1.0          # machine-speed scale, see calibration.py

    @property
    def scaled(self) -> float:
        return self.latency * self.factor


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one whose speed
    the calibration kernel measures."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def spawn(argv, stdout_path: Path, stderr_path: Path):
    """Run one child to completion: (exit code, wall seconds, max RSS KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def measure_setup(workload: str, seed: int, input_dir: Path) -> tuple:
    """Fresh interpreter to csalin imported and the inputs built:
    (wall seconds, scaled seconds) of each repeat."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(cal.kernel_seconds())
        code, wall, _ = spawn(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
             workload, str(seed), str(input_dir)],
            OUT / "setup.stdout", OUT / "setup.stderr")
        if code != 0:
            raise RuntimeError("set-up failed: " +
                               (OUT / "setup.stderr").read_text()[-2000:])
        times.append(wall)
    kernel.append(cal.kernel_seconds())
    return times, [t * f for t, f in zip(times, cal.factors(kernel,
                                                            len(times)))]


# -- requests ---------------------------------------------------------------


class InProcess:
    """worked_examples and beta_corpus: csalin called in this process."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        import csalin
        import csalin.symmetry
        import csalin.verify
        if not csalin.__file__.startswith(str(SRC)):
            raise RuntimeError(f"csalin imported from {csalin.__file__}")
        self.csalin = csalin
        self.workload = workload
        self.seed = seed
        self.recorded = {}

    def trace_context(self, tracer, traced: bool):
        return tr.installed(tracer) if traced else nullcontext()

    def call(self, req, tracer, span) -> tuple:
        # looked up at call time so that the traced wrappers are used
        if self.workload == "worked_examples":
            report = self.csalin.verify.run_example(req.example,
                                                    seed=self.seed)
            if req.expected is None:
                self.recorded[f"example {req.example} dimension"] = \
                    report.dimension
            if not report.passed:
                bad = [c.name for c in report.checks if not c.holds]
                return "wrong", f"report failed: {bad}, dimension " \
                    f"{report.dimension}"
            if req.expected is not None and report.dimension != req.expected:
                return "wrong", \
                    f"dimension {report.dimension}, expected {req.expected}"
            return None, ""
        cls = self.csalin.symmetry.classify_beta(req.beta, wl.INTERVAL,
                                                 seed=self.seed)
        if cls.dimension != req.expected:
            return "wrong", f"dimension {cls.dimension}, " \
                f"expected {req.expected}"
        return None, ""

    def label(self, req) -> str:
        if self.workload == "worked_examples":
            return f"example {req.example}"
        return req.beta

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cli:
    """cli_cold: one fresh ``python -m csalin.cli --json`` per request."""

    def __init__(self, seed: int):
        self.seed = seed
        self.recorded = {}
        self.max_rss = 0
        self.dir = OUT / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)

    def trace_context(self, tracer, traced: bool):
        return nullcontext()

    def call(self, req, tracer, span) -> tuple:
        stdout, stderr = self.dir / "stdout", self.dir / "stderr"
        head = ["--json", "--seed", str(self.seed), *req.args]
        if span is None:
            argv = [sys.executable, "-m", "csalin.cli", *head]
        else:
            spans_file = self.dir / "spans.json"
            spans_file.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_child.py"),
                    str(spans_file), *head]
        code, _, rss = spawn(argv, stdout, stderr)
        self.max_rss = max(self.max_rss, rss)
        if span is not None and spans_file.exists():
            child = json.loads(spans_file.read_text())
            tracer.adopt(child["spans"], span)
            tracer.counts.update(child["counts"])
        text = stdout.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if code != 0:
            # exit 1 with a report is a negative verdict; anything else broke
            kind = "wrong" if doc is not None and code == 1 else "error"
            return kind, f"exit {code}: " + stderr.read_text().strip()[-300:]
        if doc is None:
            return "wrong", "output is not JSON"
        for key, want in req.fields.items():
            if doc.get(key) != want:
                return "wrong", f"{key} = {doc.get(key)!r}, expected {want!r}"
        return None, ""

    def label(self, req) -> str:
        return req.label

    def peak_rss_kib(self) -> int:
        return self.max_rss


def run_requests(runner, requests, seconds: float, traced: bool,
                 tracer: tr.Tracer):
    """Closed loop over whole cycles of ``requests``.

    Untraced, it stops at the first cycle boundary after ``seconds``.
    Traced, even cycles run with spans and odd ones without, and at least
    one of each runs.  The calibration kernel runs before each request,
    outside its timing.  Returns (samples, cycles, elapsed seconds), where
    cycles[i] tells whether cycle i was traced.
    """
    samples, cycles, kernel = [], [], []
    begin = time.perf_counter()
    while True:
        spans_on = traced and len(cycles) % 2 == 0
        with runner.trace_context(tracer, spans_on):
            for req in requests:
                kernel.append(cal.kernel_seconds())
                tracer.request = len(samples)
                span_cm = tracer.span("request") if spans_on \
                    else nullcontext()
                t0 = time.perf_counter()
                with span_cm as span, \
                        warnings.catch_warnings(record=True) as log:
                    warnings.simplefilter("always")
                    try:
                        kind, msg = runner.call(req, tracer, span)
                    except Exception as exc:  # counted, never aborts the run
                        kind, msg = "error", f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                nwarn = sum(issubclass(w.category, RuntimeWarning)
                            for w in log)
                samples.append(Sample(runner.label(req), t1 - t0,
                                      len(cycles), kind, msg, nwarn))
        cycles.append(spans_on)
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (not traced or len(cycles) >= 2):
            kernel.append(cal.kernel_seconds())
            for s, f in zip(samples, cal.factors(kernel, len(samples))):
                s.factor = f
            return samples, cycles, elapsed


# -- metrics ----------------------------------------------------------------


def nearest_rank(sorted_vals, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def timings(workload: str, samples, key) -> tuple:
    """(throughput, p50, tail, samples beyond the tail) with each
    request's time given by ``key``.  Throughput counts requests per
    second spent in requests, so the calibration kernel is left out."""
    ok = sorted(key(s) for s in samples if s.failure is None)
    if not ok:
        raise RuntimeError("every request failed")
    rps = len(samples) / sum(key(s) for s in samples)
    tail, beyond = nearest_rank(ok, TAIL_PERCENTILE[workload])
    return rps, statistics.median(ok), tail, beyond


def end_to_end(workload, samples, setup_scaled, rss_kib) -> tuple:
    rps, p50, tail, beyond = timings(workload, samples, lambda s: s.scaled)
    failed = sum(s.failure is not None for s in samples)
    metrics = {
        "throughput_rps": (rps, "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "correct_share": (1 - failed / len(samples), "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    notes = {"tail_percentile": TAIL_PERCENTILE[workload],
             "samples_beyond_tail": beyond,
             "latency_samples": len(samples) - failed,
             "failed_share": failed / len(samples)}
    return metrics, notes


def per_layer(tracer: tr.Tracer, samples, cycles) -> dict:
    """Per traced request: scaled self time of each layer, and counts."""
    spans = tracer.spans
    selfs = tr.self_times(spans)
    requests = sum(1 for s in spans if s[0] == "request")
    busy = defaultdict(float)
    for span, own in zip(spans, selfs):
        busy[span[0]] += own * samples[span[4]].factor
    imports = sum((s[2] - s[1]) * samples[s[4]].factor
                  for s in spans if s[0] == "cli.import")
    metrics = {f"{name}.s": (busy[name] / requests, "s/req")
               for name in LAYERS}
    metrics.update({name: (tracer.counts[name] / requests, "count/req")
                    for name in COUNTS})
    metrics["cli.import_s"] = (imports / requests, "s/req")
    metrics["trace.spans"] = ((len(spans) - requests) / requests,
                              "count/req")
    cycle_s = defaultdict(float)
    for s in samples:
        cycle_s[s.cycle] += s.scaled
    on = statistics.median(cycle_s[i] for i, t in enumerate(cycles) if t)
    off = statistics.median(cycle_s[i] for i, t in enumerate(cycles)
                            if not t)
    metrics["trace.overhead_share"] = (on / off - 1, "ratio")
    return metrics


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def summarize(samples) -> dict:
    """Failing and warning inputs, by label."""
    failures = defaultdict(Counter)
    warned = Counter()
    for s in samples:
        if s.failure is not None:
            failures[s.label][f"{s.failure}: {s.message}"] += 1
        if s.warnings:
            warned[s.label] += s.warnings
    return {"failures": {k: dict(v) for k, v in failures.items()},
            "numpy_runtime_warnings": dict(warned)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "csalin" / "__init__.py").is_file():
        print(f"error: no csalin sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(), **versions(),
              "nproc": os.cpu_count(),
              "usable_cpus": len(os.sched_getaffinity(0)),
              "loadavg_start": loadavg()}
    input_dir = OUT / "inputs" / args.workload
    setup_wall, setup_scaled = measure_setup(args.workload, args.seed,
                                             input_dir)
    requests = wl.build(args.workload, args.seed, input_dir)
    runner = Cli(args.seed) if args.workload == "cli_cold" \
        else InProcess(args.workload, args.seed)
    tracer = tr.Tracer()
    samples, cycles, elapsed = run_requests(runner, requests, args.seconds,
                                            bool(args.trace), tracer)

    wrong = sum(s.failure == "wrong" for s in samples)
    failed = sum(s.failure is not None for s in samples)
    if args.trace:
        metrics = per_layer(tracer, samples, cycles)
        notes = {"traced_cycles": sum(cycles)}
    else:
        metrics, notes = end_to_end(args.workload, samples, setup_scaled,
                                    runner.peak_rss_kib())
        rps, p50, tail, _ = timings(args.workload, samples,
                                    lambda s: s.latency)
        notes["wall"] = {"throughput_rps": rps, "latency_p50_s": p50,
                         "latency_tail_s": tail,
                         "setup_s": statistics.median(setup_wall)}
    record.update({
        "loadavg_end": loadavg(),
        "requests": len(samples), "requests_per_cycle": len(requests),
        "cycles": len(cycles), "elapsed_s": elapsed,
        "setup_wall_s": setup_wall,
        "speed_factor_median": statistics.median(s.factor for s in samples),
        **notes,
        "recorded": runner.recorded, **summarize(samples),
        "samples": [[s.label, s.cycle, s.latency, s.factor, s.failure]
                    for s in samples],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request"],
             "spans": tracer.spans}))

    print(f"{args.workload} seed {args.seed}: {len(samples)} requests in "
          f"{len(cycles)} cycles over {elapsed:.1f} s, {failed} failed; "
          f"times scaled by {record['speed_factor_median']:.3f} (median)")
    for label, kinds in record["failures"].items():
        for what, n in kinds.items():
            print(f"  failed x{n}: {label}: {what}")
    for label, n in record["numpy_runtime_warnings"].items():
        print(f"  numpy RuntimeWarnings: {label}: {n}")
    if not args.trace:
        print(f"  failed_share {notes['failed_share']:.4f} ratio; "
              f"latency_tail_s is p{notes['tail_percentile']} with "
              f"{notes['samples_beyond_tail']} samples beyond it")
        print("  unscaled: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in notes["wall"].items()))
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(f"  record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": wrong == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
