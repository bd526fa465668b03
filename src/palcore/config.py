"""Numeric tolerances and probe thresholds.

All thresholds are overridable, and the library reads every field below.
Operations that consume a product of n generator matrices scale the
geometric tolerance by n (see Tolerances.geo_scaled).
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # half-width of the trace band reported as parabolic
    classify: float = 1e-9
    # geometric residuals: orthogonality traces, antipodality, endpoint matching
    geo: float = 1e-6
    # relative determinant floor below which a matrix counts as singular
    singular: float = 1e-12

    def geo_scaled(self, word_length: int) -> float:
        return self.geo * max(1, word_length)

    def with_geo(self, geo: float) -> "Tolerances":
        return replace(self, geo=geo)


DEFAULT_TOLERANCES = Tolerances()

# probe thresholds, in hyperbolic length units along the core geodesic.
# A finite position needs both off-diagonal entries above singular * scale,
# so no certified |s| exceeds 1/2 ln(1/singular) (13.8155 at the default
# singular = 1e-12). The default escape radius lies above that ceiling and
# therefore records no witness at default tolerances; pass a smaller radius
# to probe or witness_search (--escape on the command line) for escape
# evidence.
DEFAULT_ESCAPE = 25.0
DEFAULT_PLATEAU = 0.01
