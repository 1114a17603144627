"""The shared beta corpus of the reduced system Y'' = -beta Z, Z'' = beta Y.

Each entry is (beta, symmetry dimension on the default interval [0.5, 3]):
15 for beta = 0, 7 when |beta|^(-1/2) is a polynomial of degree <= 2
(constants included), 6 otherwise.  The tests and
`scripts/classify_corpus.py` all read it from here.
"""

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
]

# every random rational beta above is 6-dimensional
BETA_CORPUS = CLASSIFICATION_TABLE + [(b, 6) for b in RANDOM_RATIONAL_BETAS]
