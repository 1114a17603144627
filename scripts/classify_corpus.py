#!/usr/bin/env python3
"""Classify the symmetry dimension of a corpus of reduced-form coefficients.

Prints a table of beta -> point-symmetry algebra dimension for the reduced
canonical system Y'' = -beta(x) Z, Z'' = beta(x) Y.  Without arguments it
runs the shared corpus of `tests/beta_corpus.py`, prints the expected
dimension next to each result and exits 1 on any mismatch; betas given on
the command line have no expected dimension.
"""

import sys
import time
from pathlib import Path

from csalin.symmetry import classify_beta

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from beta_corpus import BETA_CORPUS  # noqa: E402


def main() -> int:
    cases = [(b, None) for b in sys.argv[1:]] or BETA_CORPUS
    width = max(len(b) for b, _ in cases) + 2
    print(f"{'beta':<{width}} dim  exp  case")
    mismatches = 0
    for beta, want in cases:
        t0 = time.time()
        cls = classify_beta(beta)
        dt = time.time() - t0
        bad = want is not None and cls.dimension != want
        mismatches += bad
        print(f"{beta:<{width}} {cls.dimension:>3}  "
              f"{'-' if want is None else want:>3}  "
              f"{cls.case_label} ({dt:.2f}s){'  MISMATCH' if bad else ''}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
