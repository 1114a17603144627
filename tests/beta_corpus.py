"""The shared beta corpus of the reduced system Y'' = -beta Z, Z'' = beta Y.

Each entry is (beta, symmetry dimension on the default interval [0.5, 3]):
15 for beta = 0, 7 when |beta|^(-1/2) is a polynomial of degree <= 2
(constants included), 6 otherwise.  The tests and
`scripts/classify_corpus.py` all read it from here.
"""

BETA_CORPUS = [
    ("0", 15),
    ("1", 7),
    ("2", 7),
    ("x^(-2)", 7),
    ("x^(-4)", 7),
    ("(x+1)^(-4)", 7),
    ("1/x", 6),
    ("x^2", 6),
    ("x^2 + 1", 6),
    ("x^2 - 1", 6),
    ("exp(x)", 6),
    # random rational betas
    ("(x+2)/(x^2+1)", 6),
    ("(3*x^2+1)/(5+x)", 6),
    ("x/(x^2+4)", 6),
    ("(x^2+x+1)/(x+10)", 6),
    ("(2*x+3)/(x^2+x+7)", 6),
]

CLASSIFICATION_TABLE = BETA_CORPUS[:11]
RANDOM_RATIONAL_BETAS = [beta for beta, _ in BETA_CORPUS[11:]]
