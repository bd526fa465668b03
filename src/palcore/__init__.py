"""Exploration of two-generator matrix groups through palindromic axes.

The library models elements of PSL(2, C) as unimodular matrices up to
sign, indexes the primitive conjugacy classes of the rank-2 free group by
rationals through the Stern-Brocot tree, evaluates palindromic
representatives in a concrete representation, and measures where their
axes cross the core geodesic of the generator pair. The boundedness of
those crossing positions is the discreteness evidence reported by the
probe.
"""
from types import ModuleType as _ModuleType

from .config import (
    CLASSIFY_BAND,
    DEFAULT_ESCAPE,
    DEFAULT_GEO,
    DEFAULT_PLATEAU,
    SINGULAR_FLOOR,
)
from .errors import (
    CommutingPair,
    DegenerateAxis,
    DegenerateGeodesic,
    ElementaryGroup,
    IdentityElement,
    IdentityImage,
    InvalidRational,
    NotPalindrome,
    OrthogonalityViolation,
    PalcoreError,
    SchemeViolation,
    SharedEndpoint,
    SingularMatrix,
    TrivialPalindromization,
)
from .farey import (
    FareyNode,
    christoffel,
    enumerate_farey,
    primitive_word,
)
from .geodesics import (
    Geodesic,
    axis,
    common_perpendicular,
    line_matrix,
)
from .probe import (
    BOUNDED_CONSISTENT_WITH_GF,
    INCONCLUSIVE,
    PARABOLIC_ENDS_DETECTED,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    JorgensenResult,
    ProbeReport,
    SampleEntry,
    SpectrumEntry,
    WitnessRecord,
    jorgensen_baseline,
    pi_spectrum,
    probe,
    sample_palindromizations,
    spectrum_to_csv,
    witness_search,
)
from .representation import (
    Hexagon,
    PiImage,
    Representation,
    build,
    hexagon,
    palindromize,
    pi_of_pair,
    pi_of_palindrome,
    rational_pi,
    rep_from_json,
)
from .sl2c import (
    INFINITY,
    GroupElement,
    boundary_key,
    chordal_distance,
    classify,
    fixed_points,
    is_identity,
    matrix_from_json,
    normalize,
)
from .words import (
    EllipticPowerFactorization,
    Word,
    elliptic_power_factorization,
    evaluate,
    is_palindrome,
    letter_table,
    reduced_words,
    reverse,
)

__version__ = "0.1.0"

# every public name bound above, so the import blocks are the one list
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
