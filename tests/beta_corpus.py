"""The shared beta corpus of the reduced system Y'' = -beta Z, Z'' = beta Y.

Each entry is (beta, symmetry dimension on the default interval [0.5, 3]):
15 for beta = 0, 7 when |beta|^(-1/2) is a polynomial of degree <= 2
(constants included), 6 otherwise.  The tests and
`scripts/classify_corpus.py` all read it from here.

`seeded_betas(seed)` adds draws of known dimension: k q(x)^(-2) with q of
degree 1 or 2 (7) and p(x)/r(x) with deg p in {1, 2}, deg r <= 2 (6), no
polynomial vanishing on [0.5, 3].
"""

import random
from fractions import Fraction

CLASSIFICATION_TABLE = [
    ("0", 15),
    ("1", 7),
    ("2", 7),
    ("-3/2", 7),                 # negative constant: the k < 0 witnesses
    ("7/3", 7),                  # irrational a = sqrt(7/6) in the witnesses
    ("x^(-2)", 7),
    ("-x^(-2)", 7),              # |beta|^(-1/2) = x
    ("x^(-4)", 7),
    ("(x+1)^(-4)", 7),
    ("3*(2*x^2-x+5)^(-2)", 7),   # (2x^2 - x + 5)/sqrt(3)
    ("1/x", 6),
    ("x^2", 6),
    ("x^2 + 1", 6),
    ("x^2 - 1", 6),
    ("exp(x)", 6),
    ("sqrt(4-x)", 6),            # (4-x)^(-1/4)
]

RANDOM_RATIONAL_BETAS = [
    "(x+2)/(x^2+1)",
    "(3*x^2+1)/(5+x)",
    "x/(x^2+4)",
    "(x^2+x+1)/(x+10)",
    "(2*x+3)/(x^2+x+7)",
    "(3*x^2-x+7)^8/(5*x^2+x+3)^7+1/(x+4)^2",  # N, D of degree 18
]

# every random rational beta above is 6-dimensional
BETA_CORPUS = CLASSIFICATION_TABLE + [(b, 6) for b in RANDOM_RATIONAL_BETAS]


# one entry per draw, so every seed draws the same shapes
SEVEN_DEGREES = (1, 2, 1, 2)                    # deg q
SIX_DEGREES = ((1, 0), (1, 1), (2, 1), (2, 2))  # (deg p, deg r)
_GRID = [0.5 + 2.5 * i / 250 for i in range(251)]


def _poly(coeffs) -> str:
    return " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs) if c)


def _values(coeffs) -> list:
    return [sum(c * x ** i for i, c in enumerate(coeffs)) for x in _GRID]


def _draw_poly(rng: random.Random, degree: int, low: float, high: float):
    """Integer coefficients of exact degree, low <= |value| <= high on the
    grid and no sign change there."""
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(degree + 1)]
        if degree and not coeffs[-1]:
            continue
        vals = _values(coeffs)
        if (min(vals) > 0 or max(vals) < 0) and \
                low <= min(map(abs, vals)) and max(map(abs, vals)) <= high:
            return coeffs


def seeded_betas(seed: int) -> list:
    """(beta, dimension) for the draws of one seed."""
    rng = random.Random(seed)
    out = []
    for degree in SEVEN_DEGREES:
        q = _draw_poly(rng, degree, 0.5, 12.0)
        k = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        out.append((f"({k})*({_poly(q)})^(-2)", 7))
    for p_degree, r_degree in SIX_DEGREES:
        while True:
            p = _draw_poly(rng, p_degree, 0.5, 20.0)
            r = _draw_poly(rng, r_degree, 0.5, 20.0)
            ratios = [abs(a / b) for a, b in zip(_values(p), _values(r))]
            if max(ratios) >= 1.5 * min(ratios):  # beta is not constant
                break
        out.append((f"({_poly(p)})/({_poly(r)})", 6))
    return out
