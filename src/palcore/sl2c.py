"""2x2 complex unimodular matrices up to sign, acting on the sphere at infinity.

A matrix [[a, b], [c, d]] with ad - bc = 1 acts on C u {inf} by
z -> (az + b)/(cz + d). The matrices m and -m act identically, so equality,
classification and fixed points are all taken up to an overall sign.
"""
from __future__ import annotations

import cmath
import json
import math
from typing import NamedTuple

from .config import CLASSIFY_BAND, SINGULAR_FLOOR
from .errors import IdentityElement, SingularMatrix


class _Infinity:
    """The point at infinity on the Riemann sphere."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __reduce__(self) -> str:
        # copies and pickles are the module's one instance, which every
        # boundary test compares by identity
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


def _max4(w: float, x: float, y: float, z: float) -> float:
    """max(w, x, y, z) by the builtin's own comparisons in its order, so
    with the same result, NaN included, at a fraction of its call cost."""
    if x > w:
        w = x
    if y > w:
        w = y
    if z > w:
        w = z
    return w


# the entries (a, b, c, d) of a matrix as a plain tuple, the form the
# position path passes
Entries = tuple[complex, complex, complex, complex]


def product(m, factors) -> Entries:
    """Entries of the matrix m multiplied on the right by each of factors
    in turn, left to right; m and the factors are (a, b, c, d) entry
    sequences, GroupElements or plain tuples.

    GroupElement.__mul__, the word fold (words.evaluate), the pair position
    and the spectrum's parent products run it. The running product is kept
    in local variables, so no matrix object is built per factor, and it is
    updated one row at a time, a, b and then c, d: a row of the product
    reads only its own row of the running product, and a two-name
    assignment builds no tuple, where a four-name one builds and unpacks
    one per factor.

    representation._half_image runs the same two row updates in place on
    a palindrome's long first half, or its reverse, so no list of factors
    and no call is made per fold: the half images of the 64,896 candidates
    of witness_search(mu_half, 12, 3), 29,448 of them folded, took
    0.115-0.120 s that way against 0.129-0.134 s through this function
    (best of 21 in each of three processes on one CPU of a 2-vCPU VM,
    Python 3.11), with the same bits.
    """
    a, b, c, d = m
    for e, f, g, h in factors:
        a, b = a * e + b * g, a * f + b * h
        c, d = c * e + d * g, c * f + d * h
    return a, b, c, d


class GroupElement(NamedTuple):
    """Unimodular 2x2 complex matrix, understood projectively (up to sign).

    A GroupElement is the tuple (a, b, c, d) of its entries, so a, b, c, d =
    m reads it and a plain tuple of entries alike. The functions of this
    module that take a matrix accept either.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def entries(self) -> Entries:
        return tuple(self)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def max_norm(self) -> float:
        return _max4(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement._make(product(self, (other,)))

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


IDENTITY = GroupElement(1 + 0j, 0j, 0j, 1 + 0j)


def normalize(m) -> GroupElement:
    """Scale the matrix m to determinant one by the principal square root.

    Raises SingularMatrix when |det| is below SINGULAR_FLOOR relative to the
    squared entry scale, and, naming the overflow, when det is infinite, when
    a modulus is past the float range, where abs() raises, and when det is
    NaN because the entry products overflowed (inf - inf).
    """
    a, b, c, d = m
    det = a * d - b * c
    try:
        scale = _max4(abs(a), abs(b), abs(c), abs(d))
        size = abs(det)
    except OverflowError:
        scale = size = math.inf
    if math.isinf(size):
        raise SingularMatrix(f"entry scale {scale:.3g} overflows the determinant check")
    if math.isnan(size):
        raise SingularMatrix(
            "determinant overflows to NaN: entry products are past the float range"
        )
    # |det| / scale against the floor times scale: scale squared may overflow
    if scale == 0.0 or size / scale <= SINGULAR_FLOOR * scale:
        raise SingularMatrix(f"determinant {det} too small relative to entries")
    s = cmath.sqrt(det)
    return GroupElement(a / s, b / s, c / s, d / s)


def is_identity(g) -> bool:
    """True iff g is within CLASSIFY_BAND of the identity up to sign: the
    minimum, over the two signs, of the maximum entry distance to +I or -I
    is at most the band.

    Both distances are at least max(|b|, |c|), so an off-diagonal entry
    past the band answers False at once. A NaN entry is not past the band,
    so it meets the full comparison.
    """
    a, b, c, d = g
    abs_b, abs_c = abs(b), abs(c)
    if abs_b > CLASSIFY_BAND or abs_c > CLASSIFY_BAND:
        return False
    direct = _max4(abs(a - 1), abs_b, abs_c, abs(d - 1))
    flipped = _max4(abs(a + 1), abs_b, abs_c, abs(d + 1))
    # min(direct, flipped), compared as the builtin compares
    return (flipped if flipped < direct else direct) <= CLASSIFY_BAND


def classify(g) -> str:
    """Isometry type: one of identity, parabolic, elliptic, loxodromic.

    The trichotomy is on the square of the trace, which is sign-independent:
    tr^2 = 4 parabolic, tr real with tr^2 < 4 elliptic, anything else
    loxodromic. The band |tr^2 - 4| <= CLASSIFY_BAND is reported as parabolic.

    Both off-diagonal moduli are taken first, |b| then |c| as is_identity
    takes them, so an OverflowError of abs(c) is raised even when |b| is
    past the band, as is_identity raises it; _classify_moduli applies the
    rule to them.
    """
    a, b, c, d = g
    return _classify_moduli(g, a, d, abs(b), abs(c))


def _classify_moduli(g, a, d, abs_b: float, abs_c: float) -> str:
    """classify(g) from g's diagonal entries a, d and the moduli |b|, |c|
    of its off-diagonal entries, which its caller has taken: the one copy
    of the rule, which the palindrome kernel also calls with the moduli it
    needs for its entry scale, so they are taken once an image.

    is_identity is called only when neither modulus is past CLASSIFY_BAND:
    otherwise it would answer False from those two moduli alone. Most
    matrices on the position path are far from the identity, so they skip
    that call. A NaN modulus is not past the band and meets is_identity's
    full comparison.
    """
    if not (abs_b > CLASSIFY_BAND or abs_c > CLASSIFY_BAND) and is_identity(g):
        return "identity"
    t = a + d
    t2 = t * t
    if abs(t2 - 4) <= CLASSIFY_BAND:
        return "parabolic"
    if abs(t.imag) <= CLASSIFY_BAND and t2.real < 4:
        return "elliptic"
    return "loxodromic"


def fixed_points(g) -> tuple[BoundaryPoint, BoundaryPoint]:
    """Both fixed points of g on the boundary, sorted by boundary_key.

    These are the roots of c z^2 + (d - a) z - b = 0, with infinity standing
    in when c = 0. A parabolic g returns its single fixed point twice.
    Raises IdentityElement when g is (plus or minus) the identity.
    """
    kind = classify(g)
    if kind == "identity":
        raise IdentityElement("every point is fixed")
    a, b, c, d = g
    scale = _max4(abs(a), abs(b), abs(c), abs(d))
    if abs(c) <= SINGULAR_FLOOR * scale:
        if kind == "parabolic":
            return (INFINITY, INFINITY)
        return (b / (d - a), INFINITY)  # infinity sorts last
    t = a - d
    if kind == "parabolic":
        p = t / (2 * c)
        return (p, p)
    disc = (a + d) ** 2 - 4  # equals (a - d)^2 + 4bc for det 1
    sq = cmath.sqrt(disc)
    # take the root with the larger numerator first, then use the product
    # of roots -b/c for the other; avoids cancellation near parabolics
    plus, minus = t + sq, t - sq
    num = plus if abs(plus) >= abs(minus) else minus
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
    document of neither form or a row that is not a pair, and naming the
    first missing key of an entry map.
    """
    if isinstance(obj, dict):
        for k in "abcd":
            if k not in obj:
                raise ValueError(f'matrix entry map has no "{k}" entry')
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
