"""Numeric tolerances and probe thresholds.

Every tolerance is a constant: no command-line option or parameter sets
one. The geometric tolerance grows with the number of generator matrices
in a product, by geo_scaled.
"""
from __future__ import annotations

import math

# half-width of the trace band reported as parabolic
CLASSIFY_BAND = 1e-9
# relative determinant floor below which a matrix counts as singular
SINGULAR_FLOOR = 1e-12
# geometric residuals: orthogonality traces, antipodality, endpoint matching
DEFAULT_GEO = 1e-6


def geo_scaled(word_length: int) -> float:
    """The geometric tolerance for a product of word_length generators."""
    return DEFAULT_GEO * (word_length if word_length > 1 else 1)


# probe thresholds, in hyperbolic length units along the core geodesic.
# A finite position needs both off-diagonal entries above SINGULAR_FLOOR *
# scale, so no certified |s| exceeds this ceiling.
CERTIFIABLE_CEILING = 0.5 * math.log(1 / SINGULAR_FLOOR)
# The default escape radius lies above that ceiling and therefore records
# no witness; pass a smaller radius to probe or witness_search (--escape
# on the command line) for escape evidence.
DEFAULT_ESCAPE = 25.0
# growth of max|s| over two depths below which the spectrum has plateaued
DEFAULT_PLATEAU = 0.01
