"""Geodesics of hyperbolic 3-space as unordered endpoint pairs on the boundary.

A geodesic is determined by its two ideal endpoints in C u {inf}. The
half-turn about a geodesic is realized by a trace-zero unimodular matrix
(the line matrix); the common perpendicular of two geodesics is read off
the trace-zero part of the product of their line matrices.

A degenerate pair [p, p] is allowed as a marker for the "axis" of a
parabolic fixing p; it has no line matrix but a common perpendicular from
it is still defined (the perpendicular must end at p).
"""
from __future__ import annotations

from operator import itemgetter

from .config import DEFAULT_GEO
from .errors import DegenerateGeodesic, SharedEndpoint, SingularMatrix
from .sl2c import (
    INFINITY,
    BoundaryPoint,
    GroupElement,
    boundary_key,
    boundary_to_json,
    chordal_distance,
    fixed_points,
    normalize,
)


class Geodesic(tuple):
    """Unordered pair of boundary points, stored in canonical order.

    Canonical order is lexicographic by (Re, Im) with inf greatest, so two
    Geodesics with the same endpoint set compare equal and hash alike.

    A tuple (e1, e2) built by __new__, which coerces each finite endpoint
    to complex and orders the pair; e1 and e2 are read-only.
    """

    __slots__ = ()

    def __new__(cls, e1: BoundaryPoint, e2: BoundaryPoint) -> Geodesic:
        if e1 is not INFINITY:
            e1 = complex(e1)
        if e2 is not INFINITY:
            e2 = complex(e2)
        if boundary_key(e1) > boundary_key(e2):
            e1, e2 = e2, e1
        return tuple.__new__(cls, (e1, e2))

    def __getnewargs__(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        return tuple(self)

    e1 = property(itemgetter(0), doc="The smaller endpoint in canonical order.")
    e2 = property(itemgetter(1), doc="The larger endpoint, inf when the pair has it.")

    @property
    def degenerate(self) -> bool:
        if self.e1 is INFINITY or self.e2 is INFINITY:
            return self.e1 is INFINITY and self.e2 is INFINITY
        return self.e1 == self.e2

    def endpoints(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        return (self.e1, self.e2)

    def to_json(self) -> dict:
        return {"e1": boundary_to_json(self.e1), "e2": boundary_to_json(self.e2)}

    def __repr__(self) -> str:
        return f"Geodesic[{self.e1}, {self.e2}]"


def axis(g: GroupElement) -> Geodesic:
    """Invariant geodesic of a non-identity element.

    Loxodromic and elliptic elements give the geodesic between their fixed
    points. A parabolic gives the degenerate marker [p, p] at its single
    fixed point. Raises IdentityElement for (plus or minus) the identity.
    """
    return Geodesic(*fixed_points(g))


def line_matrix(g: Geodesic) -> GroupElement:
    """Trace-zero unimodular matrix whose Moebius action is the half-turn
    about g. It fixes both endpoints and squares to -I.

    Raises DegenerateGeodesic for a marker [p, p].
    """
    if g.degenerate:
        raise DegenerateGeodesic(f"no line matrix for degenerate {g}")
    if g.e2 is INFINITY:
        p = g.e1
        raw = GroupElement(1 + 0j, -2 * p, 0j, -1 + 0j)
    else:
        p, q = g.e1, g.e2
        raw = GroupElement(p + q, -2 * p * q, 2 + 0j, -(p + q))
    return normalize(raw)


def _shared_endpoint(g1: Geodesic, g2: Geodesic) -> bool:
    return any(
        chordal_distance(u, v) <= DEFAULT_GEO
        for u in g1.endpoints()
        for v in g2.endpoints()
    )


def common_perpendicular(g1: Geodesic, g2: Geodesic) -> Geodesic:
    """The unique geodesic orthogonal to both inputs.

    Both inputs proper: take the trace-zero part of L1 L2, normalize, and
    read off its fixed points; when the inputs intersect this yields the
    perpendicular through the intersection point, so there is a single code
    path. A degenerate marker [p, p] contributes p as one endpoint, with the
    other endpoint the half-turn image of p about the proper input (or the
    second marker point).

    Raises SharedEndpoint when the inputs share an endpoint within
    DEFAULT_GEO in the chordal metric (an elementary configuration).
    """
    if _shared_endpoint(g1, g2):
        raise SharedEndpoint(f"{g1} and {g2} share an endpoint")
    if g1.degenerate and g2.degenerate:
        return Geodesic(g1.e1, g2.e1)
    if g1.degenerate or g2.degenerate:
        marker, proper = (g1, g2) if g1.degenerate else (g2, g1)
        p = marker.e1
        q = line_matrix(proper).apply(p)
        return Geodesic(p, q)
    prod = line_matrix(g1) * line_matrix(g2)
    half_tr = prod.trace() / 2
    traceless = GroupElement(
        prod.a - half_tr, prod.b, prod.c, prod.d - half_tr
    )
    try:
        t = normalize(traceless)
    except SingularMatrix as exc:
        raise SharedEndpoint(
            f"perpendicular between {g1} and {g2} is not determined"
        ) from exc
    return Geodesic(*fixed_points(t))
