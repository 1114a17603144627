"""Inputs and reference answers for the three benchmark workloads.

Every expected answer here is written down from the paper's results, not
computed by csalin:

* worked examples 1-3 have symmetry dimensions 15, 7 and 6; example 4 has
  no stated dimension and is only recorded;
* the reduced system Y'' = -beta Z, Z'' = beta Y has a 15-dimensional
  algebra for beta = 0, and otherwise a 7-dimensional one exactly when
  |beta|^(-1/2) is a polynomial of degree <= 2 in x; every other beta
  gives 6;
* the CLI inputs are built so that their verdicts hold by construction
  (see ``cli_requests``).

The inputs depend only on the seed.  Building them touches no csalin code,
so the same functions serve the benchmark process and the fresh
interpreters that time set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

INTERVAL = (0.5, 3.0)

# (label, expected dimension or None when only recorded)
EXAMPLE_DIMENSIONS = {1: 15, 2: 7, 3: 6, 4: None}

# The corpus of scripts/classify_corpus.py followed by the ROADMAP extras.
# ``sqrt(4-x)`` raises EvalDomainError at the time this corpus was written,
# and ``1000000*x^(-2)`` reaches its dimension through numpy overflow
# warnings; both stay in, so the defects show in the metrics.
BETA_FIXED = [
    ("0", 15),
    ("1", 7),
    ("2", 7),
    ("x^(-2)", 7),               # |beta|^(-1/2) = x
    ("x^(-4)", 7),               # x^2
    ("(x+1)^(-4)", 7),           # (x+1)^2
    ("1/x", 6),                  # x^(1/2)
    ("x^2", 6),                  # 1/x
    ("x^2 + 1", 6),
    ("x^2 - 1", 6),
    ("exp(x)", 6),
    ("(x+2)/(x^2+1)", 6),
    ("(3*x^2+1)/(5+x)", 6),
    ("x/(x^2+4)", 6),
    ("(x^2+x+1)/(x+10)", 6),
    ("(2*x+3)/(x^2+x+7)", 6),
    ("(x^2+1)^(-2)", 7),         # x^2 + 1
    ("3*(2*x^2-x+5)^(-2)", 7),   # (2x^2 - x + 5)/sqrt(3)
    ("-x^(-2)", 7),              # x
    ("sin(x)", 6),
    ("exp(-x^2)", 6),
    ("(x^2+1)^(-2)+1/1000", 6),
    ("sqrt(4-x)", 6),            # (4-x)^(-1/4)
    ("1000000*x^(-2)", 7),       # x/1000
]

# Degrees of the seeded draws, one entry per draw: every seed gets the same
# shapes, so runs with different seeds do about the same amount of work.
SEVEN_DEGREES = (1, 2, 1, 2)                   # deg q
SIX_DEGREES = ((1, 0), (1, 1), (2, 1), (2, 2))  # (deg p, deg r)


@dataclass(frozen=True)
class BetaRequest:
    beta: str
    expected: int


@dataclass(frozen=True)
class ExampleRequest:
    example: int
    expected: int | None


@dataclass(frozen=True)
class CliRequest:
    label: str
    args: tuple                  # arguments after ``csalin --json --seed N``
    fields: dict = field(default_factory=dict)  # expected JSON fields


def _poly(coeffs) -> str:
    """Expression string of sum(c_i x^i) in the parser's grammar."""
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = {0: "", 1: "x", 2: "x^2"}[power]
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    head_sign, head = terms[-1]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in reversed(terms[:-1]):
        out += f" {sign} {body}"
    return out


def _values(coeffs, n: int = 251) -> list:
    lo, hi = INTERVAL
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs]


def _draw_poly(rng: random.Random, degree: int, low: float, high: float):
    """Integer polynomial of exact degree with low <= |p| <= high and no
    sign change on INTERVAL."""
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        if degree and coeffs[degree] == 0:
            continue
        vals = _values(coeffs)
        if (min(vals) > 0 or max(vals) < 0) and \
                low <= min(abs(v) for v in vals) and \
                max(abs(v) for v in vals) <= high:
            return coeffs


def _draw_scale(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))


def _frac(f: Fraction) -> str:
    return f"({f.numerator}/{f.denominator})" if f.denominator != 1 \
        else f"({f.numerator})"


def draw_seven(rng: random.Random, degree: int) -> BetaRequest:
    """k q(x)^(-2) with q of degree 1 or 2 keeping one sign on INTERVAL:
    |beta|^(-1/2) = |q|/sqrt|k| is a polynomial of degree <= 2."""
    q = _draw_poly(rng, degree, 0.5, 12.0)
    return BetaRequest(f"{_frac(_draw_scale(rng))}*({_poly(q)})^(-2)", 7)


def draw_six(rng: random.Random, p_degree: int,
             r_degree: int) -> BetaRequest:
    """p(x)/r(x) with deg p in {1, 2}, deg r <= 2, neither vanishing on
    INTERVAL and beta not constant.  |beta|^(-1/2) = sqrt(r/p) would need
    p s^2 = r for a polynomial s, which these degrees rule out unless p
    and r are proportional, so the dimension is 6."""
    while True:
        p = _draw_poly(rng, p_degree, 0.5, 20.0)
        r = _draw_poly(rng, r_degree, 0.5, 20.0)
        ratios = [a / b for a, b in zip(_values(p), _values(r))]
        lo, hi = min(map(abs, ratios)), max(map(abs, ratios))
        if hi >= 1.5 * lo:
            return BetaRequest(f"({_poly(p)})/({_poly(r)})", 6)


def beta_requests(seed: int) -> list:
    rng = random.Random(seed)
    reqs = [BetaRequest(b, d) for b, d in BETA_FIXED]
    reqs += [draw_seven(rng, d) for d in SEVEN_DEGREES]
    reqs += [draw_six(rng, *d) for d in SIX_DEGREES]
    rng.shuffle(reqs)
    return reqs


def example_requests(seed: int) -> list:
    order = list(EXAMPLE_DIMENSIONS)
    random.Random(seed).shuffle(order)
    return [ExampleRequest(i, EXAMPLE_DIMENSIONS[i]) for i in order]


# Free-particle point symmetries (y'' = z'' = 0), as (xi, eta1, eta2); any
# linear combination of them is again a symmetry.
_FREE_PARTICLE = [
    ("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
    ("x", "0", "0"), ("0", "x", "0"), ("0", "0", "x"),
    ("y", "0", "0"), ("z", "0", "0"), ("0", "y", "0"),
    ("0", "z", "0"), ("0", "0", "y"), ("0", "0", "z"),
    ("x^2", "x*y", "x*z"), ("x*y", "y^2", "y*z"), ("x*z", "y*z", "z^2"),
]


def _combination(rng: random.Random) -> dict:
    picks = rng.sample(_FREE_PARTICLE, 3)
    weights = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in picks]
    return {name: " + ".join(f"({w})*({row[k]})"
                             for w, row in zip(weights, picks))
            for k, name in enumerate(("xi", "eta1", "eta2"))}


def cli_requests(seed: int, input_dir: Path) -> list:
    """One request per subcommand path; writes the problem files.

    * check: the real form of u'' = -u'^2 - (k/x) u' is CR by construction;
    * transform: (1/x, e^y cos z, e^y sin z) maps the k = 2 member to the
      free particle Y'' = Z'' = 0;
    * verify-symmetry: combinations of free-particle generators;
    * classify: a nonzero constant and k x^(-2) are both 7-dimensional;
    * canonicalize: a general form with positive trace reduces to the
      optimal form, and a zero_order form with a3 > 0 reaches the reduced
      form (rho'' = a3 rho stays positive on the interval).
    """
    rng = random.Random(seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    k = rng.randint(1, 9)

    def geodesic(kk):
        return {"omega1": f"-dy^2 + dz^2 - ({kk}/x)*dy",
                "omega2": f"-2*dy*dz - ({kk}/x)*dz"}

    docs = {
        "check": {"system": geodesic(k)},
        "transform": {"system": geodesic(2),
                      "transformation": {"X": "1/x", "Y": "exp(y)*cos(z)",
                                         "Z": "exp(y)*sin(z)"}},
        "verify_symmetry": {"system": {"omega1": "0", "omega2": "0"},
                            "generators": [_combination(rng)
                                           for _ in range(3)]},
        "general": {"form": {"kind": "general",
                             "d11": f"{rng.randint(1, 4)} + x",
                             "d12": str(rng.randint(1, 5)),
                             "d21": str(-rng.randint(1, 5)),
                             "d22": f"1/{rng.randint(2, 5)}"},
                    "interval": [0.5, 2.0]},
        "zero_order": {"form": {"kind": "zero_order",
                                "a3": f"{rng.randint(1, 5)}/2",
                                "a4": str(rng.randint(1, 5))},
                       "interval": [0.5, 2.0]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = input_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc, sort_keys=True))
    const = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    scale = rng.randint(1, 9)
    reqs = [
        CliRequest("check", ("check", str(paths["check"])),
                   fields={"correspondent": True}),
        CliRequest("transform", ("transform", str(paths["transform"])),
                   fields={"omega1": "0", "omega2": "0"}),
        CliRequest("verify-symmetry",
                   ("verify-symmetry", str(paths["verify_symmetry"])),
                   fields={"all_pass": True}),
        CliRequest("classify-constant",
                   ("classify", "--beta", str(const)),
                   fields={"dimension": 7}),
        CliRequest("classify-inverse-square",
                   ("classify", "--beta", f"{scale}*x^(-2)"),
                   fields={"dimension": 7}),
        CliRequest("canonicalize-general",
                   ("canonicalize", str(paths["general"])),
                   fields={"kind": "optimal"}),
        CliRequest("canonicalize-zero-order",
                   ("canonicalize", str(paths["zero_order"])),
                   fields={"kind": "reduced"}),
    ]
    rng.shuffle(reqs)
    return reqs


def build(workload: str, seed: int, input_dir: Path) -> list:
    if workload == "worked_examples":
        return example_requests(seed)
    if workload == "beta_corpus":
        return beta_requests(seed)
    if workload == "cli_cold":
        return cli_requests(seed, input_dir)
    raise ValueError(f"unknown workload {workload!r}")
