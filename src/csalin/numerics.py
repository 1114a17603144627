"""Numeric integration helpers.

RK4 with Richardson step-doubling validation, on a uniform grid whose step
comes from the error budget: the caller's h is the largest step accepted,
a run whose state escapes is rerun once at a quarter of the step, and
a run whose step-doubling error misses `ERROR_BUDGET` is rerun at the
step the RK4 error law (error ~ h^4) predicts, at most `REFINEMENTS`
times.  A coarse pilot is therefore cheap: the trajectory verifier starts
from 24 steps of its span and lets the law pick the step.  Coefficients on
the working intervals are smooth, so one uniform grid per run is enough.
Callers: the trajectory verifier (`verify.integrate`) and the rho / M
rescalings of the reduction chain (`canon`) that have no closed form; a
constant or polynomial coefficient is tabulated in closed form on
`checked_grid`, rk4_checked's grid.  States have two to four components,
so the state is a tuple of plain Python floats: numpy's per-call cost on
arrays that small outweighs the arithmetic.

Every right-hand side is a `Field`, and `rk4` runs it in a loop generated
as Python source for the call, with its expressions (through
`expr.emit_code`, whose sums are plain float additions) and the stage
arithmetic inlined.  The source is compiled once per process
(`expr.compile_source`): integrating the same system again, from another
initial state say, runs the compiled loop in a fresh namespace that
binds this call's Field.  A stage whose expressions raise is evaluated
again with `eval_expr`, which returns the reference value (inf for an
overflowing exp) or names the undefined subterm in a `DomainError`.  The
loop returns one tuple per grid point, and their floats reach numpy in
one pass into a preallocated (n + 1) x d float64 block.

`row_derivative` differentiates a table over its row index, for the
trajectory residual and a tabulated beta's collocation: nothing reads a
table between its rows.  numpy is imported only where arrays are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .expr import (
    EMIT_NAMESPACE, EvalDomainError, ExprError, compile_source, emit_code,
    eval_expr,
)


class Blowup(ExprError):
    """The integrated state left the trusted range."""


class DomainError(ExprError):
    """A right-hand side hit a pole or other undefined point."""


class IntervalTooLong(ExprError):
    """An interval needs more RK4 steps than `MAX_STEPS`."""


class InaccurateIntegration(ExprError):
    """Step-doubling disagreement exceeded the sanity tolerance."""


# the most RK4 steps of h one run takes (rk4_checked rounds an odd count up
# to even, and its step-doubling run takes half as many)
MAX_STEPS = 200_000

# the step-doubling error rk4_checked aims at, 100 times under the 1e-7
# that require_accuracy allows
ERROR_BUDGET = 1e-9

# a refined step aims at SAFETY^4 (about 2/3) of the budget, since the h^4
# law only predicts the error
SAFETY = 0.9

# a pilot whose state escapes reruns once at a step this many times finer
ESCAPE_REFINE = 4

# the most reruns at the step the h^4 law predicts: one is not always
# enough, since the law only predicts the error.  From integrate's 24-step
# pilot, two seeded geodesic-type trajectories with (1+x)-growing
# coefficients end at 1.1e-9 and 1.2e-9 after one rerun, and within the
# budget after a second
REFINEMENTS = 2


@dataclass(frozen=True, eq=False)
class Field:
    """A right-hand side y' = f(t, y), described for the generated loop.

    * `symbols` binds each symbol of `values` to ``"t"`` (the stage time),
      to ``"s<i>"`` (component i of the stage state) or to a float, which
      is inlined as a constant;
    * `values` are expressions evaluated once per stage into ``v0, v1,
      ...``; a subtree they share is evaluated once;
    * `derivs` holds, per state component, the Python expression of its
      derivative over ``t``, ``s<i>`` and ``v<j>`` (``inf`` is bound);
    * with `bound` set, each stage state must satisfy ``-bound <= s<i>
      <= bound`` (NaN fails), or the loop raises Blowup.
    """

    symbols: dict
    values: tuple
    derivs: tuple
    bound: float | None = None


def _stage_values(f: Field, t: float, state: tuple) -> list:
    """f's values at one stage by ``eval_expr``: the value a raising
    generated stage stands for, or a DomainError located at t."""
    at = {"t": t, **{f"s{i}": v for i, v in enumerate(state)}}
    bindings = {name: at.get(code, code) for name, code in f.symbols.items()}
    try:
        return [eval_expr(e, bindings) for e in f.values]
    except EvalDomainError as exc:
        raise DomainError(
            f"right-hand side undefined near x = {t:.6g}: {exc}") from exc


def _fuse(f: Field):
    """The generated RK4 loop of f, called as loop(grid, y, h, h2, h6) and
    returning the rows of the state on the grid."""
    d = len(f.derivs)
    state = "".join(f"s{i}, " for i in range(d))
    ns = {**EMIT_NAMESPACE, "inf": math.inf, "Blowup": Blowup,
          "_values": lambda t, s: _stage_values(f, t, s)}
    symbols = {name: code if isinstance(code, str) else f"({code!r})"
               for name, code in f.symbols.items()}
    check = [] if f.bound is None else [
        "if not (" + " and ".join(
            f"{-f.bound!r} <= s{i} <= {f.bound!r}" for i in range(d)) + "):",
        "    raise Blowup(f'state escaped near x = {t:.6g}')"]
    # the stage values, from t and s<i> alike in all four stages, so their
    # code is emitted once
    values = []
    if f.values:
        temps = []
        codes = emit_code(f.values, symbols, temps)
        temps += [f"v{j} = {code}" for j, code in enumerate(codes)]
        values = ["try:", *("    " + line for line in temps),
                  "except (ArithmeticError, ValueError):",
                  f"    {''.join(f'v{j}, ' for j in range(len(codes)))}"
                  f"= _values(t, ({state}))"]
    lines = [f"{''.join(f'y{i}, ' for i in range(d))}= y", "rows = [y]",
             "for x, x_next in zip(grid, grid[1:]):"]
    # (stage time, stage state); the third stage keeps the second's time
    stages = (("x", "y{i}"), ("x + h2", "y{i} + h2 * k1_{i}"),
              (None, "y{i} + h2 * k2_{i}"), ("x_next", "y{i} + h * k3_{i}"))
    for n, (time, update) in enumerate(stages, 1):
        body = [] if time is None else [f"t = {time}"]
        body += [f"s{i} = " + update.format(i=i) for i in range(d)]
        body += check + values
        body += [f"k{n}_{i} = {code}" for i, code in enumerate(f.derivs)]
        lines += ["    " + line for line in body]
    lines += [f"    y{i} = y{i} + h6 * (((k1_{i} + 2.0 * k2_{i}) + "
              f"2.0 * k3_{i}) + k4_{i})" for i in range(d)]
    lines += [f"    rows.append(({''.join(f'y{i}, ' for i in range(d))}))"]
    exec(compile_source("def _loop(grid, y, h, h2, h6):\n" + "".join(
        f"    {line}\n" for line in lines) + "    return rows\n"), ns)
    return ns["_loop"]


def _steps(t0: float, t1: float, h: float) -> int:
    """The number of RK4 steps of at most h from t0 to t1."""
    steps = abs(t1 - t0) / h
    if steps > MAX_STEPS:
        raise IntervalTooLong(
            f"interval [{t0:g}, {t1:g}] needs more than {MAX_STEPS} "
            f"RK4 steps of h = {h:g}")
    return max(1, math.ceil(steps))


def _grid(t0: float, t1: float, n: int):
    """The n + 1 points t0 + i h, h = (t1 - t0) / n, as a float array."""
    import numpy as np

    return t0 + (t1 - t0) / n * np.arange(n + 1)


def checked_grid(t0: float, t1: float, h: float = 1e-3):
    """The grid rk4_checked integrates on: n steps of at most h, n rounded
    up to even, so the step-doubling run lands on every second point.  A
    table that tabulates a closed form on it matches an RK4 table in
    length and abscissae bit for bit."""
    n = _steps(t0, t1, h)
    return _grid(t0, t1, n + n % 2)


def row_derivative(f):
    """The derivative of the array f over its row index, from the 7-point
    sixth-order central difference (B. Fornberg, Math. Comp. 51 (1988)
    699-706), on rows 3 to len(f) - 4.  The ratio D(f)/D(x) of two columns
    on one grid is then df/dx there, with no step size in it."""
    def step(k):  # f[i + k] - f[i - k]
        return f[3 + k:len(f) - 3 + k] - f[3 - k:len(f) - 3 - k]
    return (45.0 * step(1) - 9.0 * step(2) + step(3)) / 60.0


def _rk4(loop, t0: float, y0, t1: float, ts):
    import numpy as np

    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1:
        raise ValueError(f"rk4 needs a 1-d initial state, got shape "
                         f"{y0.shape}")
    h = (t1 - t0) / (ts.size - 1)
    rows = loop(ts.tolist(), tuple(y0.tolist()), h, h / 2, h / 6)
    # np.array(rows) scans each tuple as a sequence into a temporary;
    # fromiter fills the preallocated block in one pass
    ys = np.fromiter(chain.from_iterable(rows), float, ts.size * y0.size)
    return ys.reshape(ts.size, y0.size)


def rk4(f: Field, t0: float, y0, t1: float, h: float = 1e-3):
    """Integrate y' = f(t, y) from t0 to t1 with fixed-step RK4.

    y0 must be 1-d.  The span may be negative (integration backwards in
    t), and may take at most MAX_STEPS steps of h (else IntervalTooLong).
    The step is shrunk slightly so the grid lands exactly on t1, and the
    last stage of each step is evaluated at the next grid point ts[i + 1].
    Returns (ts, ys) with ys[i] the state at ts[i], ys of shape (n + 1, d).
    """
    ts = _grid(t0, t1, _steps(t0, t1, h))
    return ts, _rk4(_fuse(f), t0, y0, t1, ts)


def _checked_run(loop, t0: float, y0, t1: float, h: float) -> tuple:
    """(ts, ys, err): a run on checked_grid(t0, t1, h) and its step-doubling
    error against the run of twice the step on ts[::2]."""
    ts = checked_grid(t0, t1, h)
    runs = []
    # (t1 - t0) / (n / 2) is 2 h exactly, so ts[::2] is the 2h run's grid
    for grid in (ts, ts[::2]):
        rows = _rk4(loop, t0, y0, t1, grid)
        finite = (abs(rows) < math.inf).all(axis=1)  # NaN fails
        if not finite.all():
            raise Blowup(
                f"state escaped near x = {grid[finite.argmin()]:.6g}")
        runs.append(rows)
    ys, ys2 = runs
    return ts, ys, float(abs(ys[::2] - ys2).max())


def rk4_checked(f: Field, t0: float, y0, t1: float, h: float = 1e-3,
                discarded: list | None = None):
    """RK4 plus a step-doubling Richardson error estimate, at a step of at
    most h chosen from the error budget.

    The number of steps of h is rounded up to even (`checked_grid`), so a
    run of half as many steps of twice the size lands on ts[::2]; err is
    the max-norm difference between the two runs there, for RK4 about 15
    times the error of ys.  Where err exceeds ERROR_BUDGET, the run at h
    is the pilot of a rerun at SAFETY * h * (ERROR_BUDGET / err)^(1/4),
    the step the h^4 law puts at SAFETY^4 of the budget, and a rerun that
    still misses the budget is the pilot of one more, REFINEMENTS reruns
    in all.  A pilot is kept where its predicted step would take more
    than MAX_STEPS steps, so no larger grid is ever built.  The caller
    applies `require_accuracy` to the returned err.  Returns (ts, ys, err,
    step) with step the h of the run kept; where `discarded` is a list,
    the (step, err) of each run not kept is appended to it in order, err
    None for a run that escaped, also where rk4_checked then raises.

    The run at h goes first, so an error it raises comes before any of
    the 2h run; a state that is not finite in either run raises Blowup at
    the first grid point where it appears.  A pilot that raises Blowup
    is run once more at h / ESCAPE_REFINE, which then takes its place,
    unless that takes more than MAX_STEPS steps: a step of h can leave
    RK4's stability region where the solution stays bounded.  Where the
    finer pilot escapes too, the pilot's Blowup is raised.
    """
    loop = _fuse(f)
    runs = [] if discarded is None else discarded

    def run(step: float) -> tuple:
        try:
            return _checked_run(loop, t0, y0, t1, step)
        except Blowup:
            runs.append((step, None))
            raise

    try:
        ts, ys, err = run(h)
    except Blowup as escaped:
        fine = h / ESCAPE_REFINE
        if abs(t1 - t0) / fine > MAX_STEPS:
            raise
        try:
            ts, ys, err = run(fine)
        except Blowup:
            raise escaped from None
        h = fine
    for _ in range(REFINEMENTS):
        if err <= ERROR_BUDGET:
            break
        fine = SAFETY * h * (ERROR_BUDGET / err) ** 0.25
        if abs(t1 - t0) / fine > MAX_STEPS:
            break
        runs.append((h, err))
        h = fine
        ts, ys, err = run(h)
    return ts, ys, err, h


def require_accuracy(err: float) -> None:
    """Raise InaccurateIntegration when a step-doubling error exceeds 1e-7
    (NaN included)."""
    if not err <= 1e-7:
        raise InaccurateIntegration(
            f"step-doubling disagreement {err:.3e} exceeds 1e-7")
