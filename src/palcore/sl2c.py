"""2x2 complex unimodular matrices up to sign, acting on the sphere at infinity.

A matrix [[a, b], [c, d]] with ad - bc = 1 acts on C u {inf} by
z -> (az + b)/(cz + d). The matrices m and -m act identically, so equality,
classification and fixed points are all taken up to an overall sign.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

from .config import CLASSIFY_BAND, DEFAULT_GEO, SINGULAR_FLOOR
from .errors import IdentityElement, SingularMatrix


class _Infinity:
    """The point at infinity on the Riemann sphere."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

BoundaryPoint = complex | _Infinity


def boundary_key(z: BoundaryPoint) -> tuple[int, float, float]:
    """Sort key for boundary points: lexicographic by (Re, Im), infinity greatest."""
    if z is INFINITY:
        return (1, 0.0, 0.0)
    return (0, z.real, z.imag)


def chordal_distance(u: BoundaryPoint, v: BoundaryPoint) -> float:
    """Chordal metric on the Riemann sphere, range [0, 2]."""
    if u is INFINITY and v is INFINITY:
        return 0.0
    if u is INFINITY:
        u, v = v, u
    if v is INFINITY:
        return 2.0 / math.sqrt(1.0 + abs(u) ** 2)
    return 2.0 * abs(u - v) / math.sqrt((1.0 + abs(u) ** 2) * (1.0 + abs(v) ** 2))


@dataclass(frozen=True)
class GroupElement:
    """Unimodular 2x2 complex matrix, understood projectively (up to sign)."""

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1 + 0j, 0j, 0j, 1 + 0j)

    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def max_norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return GroupElement(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "GroupElement":
        # adjugate; exact inverse for a unimodular matrix
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.a, -self.b, -self.c, -self.d)

    def apply(self, z: BoundaryPoint) -> BoundaryPoint:
        """Moebius action on the boundary sphere."""
        if z is INFINITY:
            return INFINITY if self.c == 0 else self.a / self.c
        den = self.c * z + self.d
        if den == 0:
            return INFINITY
        return (self.a * z + self.b) / den

    def to_json(self) -> dict:
        return {
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "c": [self.c.real, self.c.imag],
            "d": [self.d.real, self.d.imag],
        }


def normalize(m: GroupElement) -> GroupElement:
    """Scale the matrix m to determinant one by the principal square root.

    Raises SingularMatrix when |det| is below SINGULAR_FLOOR relative to the
    squared entry scale.
    """
    d = m.det()
    scale = m.max_norm()
    if scale == 0.0 or abs(d) <= SINGULAR_FLOOR * scale * scale:
        raise SingularMatrix(f"determinant {d} too small relative to entries")
    s = cmath.sqrt(d)
    return GroupElement(m.a / s, m.b / s, m.c / s, m.d / s)


def psl_distance(g: GroupElement, h: GroupElement) -> float:
    """Max entry distance between g and h minimized over the sign ambiguity."""
    direct = max(
        abs(x - y) for x, y in zip(g.entries(), h.entries())
    )
    flipped = max(
        abs(x + y) for x, y in zip(g.entries(), h.entries())
    )
    return min(direct, flipped)


def psl_equal(
    g: GroupElement, h: GroupElement, tol: float = DEFAULT_GEO
) -> bool:
    return psl_distance(g, h) <= tol


def is_identity(g: GroupElement, eps: float = CLASSIFY_BAND) -> bool:
    """psl_distance(g, identity) <= eps, with the distance taken inline."""
    a, b, c, d = g.a, g.b, g.c, g.d
    direct = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    flipped = max(abs(a + 1), abs(b), abs(c), abs(d + 1))
    return min(direct, flipped) <= eps


def classify(g: GroupElement) -> str:
    """Isometry type: one of identity, parabolic, elliptic, loxodromic.

    The trichotomy is on the square of the trace, which is sign-independent:
    tr^2 = 4 parabolic, tr real with tr^2 < 4 elliptic, anything else
    loxodromic. The band |tr^2 - 4| <= CLASSIFY_BAND is reported as parabolic.
    """
    if is_identity(g, CLASSIFY_BAND):
        return "identity"
    t = g.trace()
    t2 = t * t
    if abs(t2 - 4) <= CLASSIFY_BAND:
        return "parabolic"
    if abs(t.imag) <= CLASSIFY_BAND and t2.real < 4:
        return "elliptic"
    return "loxodromic"


def fixed_points(g: GroupElement) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Both fixed points of g on the boundary, sorted by boundary_key.

    These are the roots of c z^2 + (d - a) z - b = 0, with infinity standing
    in when c = 0. A parabolic g returns its single fixed point twice.
    Raises IdentityElement when g is (plus or minus) the identity.
    """
    return _fixed_points(g, classify(g))


def _fixed_points(g: GroupElement, kind: str) -> tuple[BoundaryPoint, BoundaryPoint]:
    """fixed_points(g) for a caller that has kind = classify(g)."""
    if kind == "identity":
        raise IdentityElement("every point is fixed")
    a, b, c, d = g.entries()
    scale = g.max_norm()
    if abs(c) <= SINGULAR_FLOOR * scale:
        if kind == "parabolic":
            return (INFINITY, INFINITY)
        return tuple(sorted((b / (d - a), INFINITY), key=boundary_key))
    if kind == "parabolic":
        p = (a - d) / (2 * c)
        return (p, p)
    disc = g.trace() ** 2 - 4  # equals (a - d)^2 + 4bc for det 1
    sq = cmath.sqrt(disc)
    t = a - d
    # take the root with the larger numerator first, then use the product
    # of roots -b/c for the other; avoids cancellation near parabolics
    num = t + sq if abs(t + sq) >= abs(t - sq) else t - sq
    r1 = num / (2 * c)
    r2 = (-b / c) / r1 if r1 != 0 else 0j
    return tuple(sorted((r1, r2), key=boundary_key))


def _json_text(v) -> str:
    """v as JSON spells it, for naming a bad input value."""
    return json.dumps(v, default=repr)


def _is_pair(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) == 2


def _real_from_json(x, entry) -> float:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            if math.isfinite(x):
                return float(x)
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(
        "matrix entry must be a finite number or an [re, im] pair of them, "
        f"got {_json_text(entry)}"
    )


def _complex_from_json(v) -> complex:
    """A JSON entry: a finite real number or an [re, im] pair of them.

    Raises ValueError naming the entry for anything else: null, a boolean,
    a string, NaN or an infinity, or a list that is not a pair.
    """
    if _is_pair(v):
        return complex(_real_from_json(v[0], v), _real_from_json(v[1], v))
    return complex(_real_from_json(v, v))


def matrix_from_json(obj) -> GroupElement:
    """Parse a matrix from JSON data.

    Accepts the entry map {"a": ..., "b": ..., "c": ..., "d": ...} or row
    form [[a, b], [c, d]]; each entry is a real number or an [re, im] pair
    (see _complex_from_json). Raises ValueError naming the bad value for a
    document of neither form or a row that is not a pair, KeyError for a
    missing map key.
    """
    if isinstance(obj, dict):
        entries = [obj[k] for k in "abcd"]
    elif _is_pair(obj):
        for row in obj:
            if not _is_pair(row):
                raise ValueError(
                    f"matrix row must be a pair of entries, got {_json_text(row)}"
                )
        (a, b), (c, d) = obj
        entries = [a, b, c, d]
    else:
        raise ValueError(
            "matrix must be [[a, b], [c, d]] rows or an entry map, "
            f"got {_json_text(obj)}"
        )
    return GroupElement(*map(_complex_from_json, entries))


def boundary_to_json(z: BoundaryPoint) -> list | str:
    if z is INFINITY:
        return "inf"
    return [z.real, z.imag]
