"""Geodesic layer: line matrices, orthogonality, common perpendiculars,
and the axis-route position helper of tests/conftest.py."""

import copy
import math
import pickle
import random

import pytest

from palcore.config import DEFAULT_GEO
from palcore.errors import DegenerateGeodesic, SharedEndpoint
from palcore.geodesics import (
    Geodesic,
    axis,
    common_perpendicular,
    line_matrix,
)
from palcore.sl2c import (
    IDENTITY,
    INFINITY,
    GroupElement,
    chordal_distance,
    fixed_points,
)

from .conftest import (
    position_on_vertical_axis,
    random_loxodromic,
    random_mobius,
    transform,
)
from .oracles import (
    VERTICAL_AXIS,
    geodesic_distance,
    orthogonality_residual,
    psl_distance,
)


class TestGeodesic:
    def test_endpoints_are_canonically_ordered(self):
        g = Geodesic(2 + 0j, -1 + 0j)
        assert g.e1 == -1 and g.e2 == 2
        assert Geodesic(INFINITY, 0j).e2 is INFINITY

    def test_endpoints_are_coerced_to_complex(self):
        g = Geodesic(3, 1.5)
        assert g.endpoints() == (1.5 + 0j, 3 + 0j)
        assert all(type(e) is complex for e in g.endpoints())
        assert Geodesic(2, INFINITY).endpoints() == (2 + 0j, INFINITY)
        # canonical order is by real part, then imaginary part
        assert Geodesic(1 + 1j, 1 - 1j).endpoints() == (1 - 1j, 1 + 1j)
        assert Geodesic(-1 + 5j, 0j).endpoints() == (-1 + 5j, 0j)

    def test_endpoints_are_read_only(self):
        g = Geodesic(0j, 1j)
        with pytest.raises(AttributeError):
            g.e1 = 5j
        with pytest.raises(AttributeError):
            g.e2 = 5j
        with pytest.raises(AttributeError):
            g.label = "core"
        assert g.endpoints() == (0j, 1j)

    def test_equality_and_hash_go_by_the_endpoint_set(self):
        g, h = Geodesic(2 + 1j, -1), Geodesic(-1 + 0j, 2 + 1j)
        assert g == h and hash(g) == hash(h)
        assert len({g, h, Geodesic(INFINITY, 0j), Geodesic(0, INFINITY)}) == 2
        assert g != Geodesic(-1, 2)
        assert Geodesic(1j, 1j) == Geodesic(1j, 1j) != Geodesic(1j, -1j)
        # a copy is built again through __new__ from the two endpoints, and
        # a copied or unpickled inf is INFINITY itself
        assert copy.deepcopy(g) == g and type(copy.copy(g)) is Geodesic
        vertical = Geodesic(0j, INFINITY)
        assert copy.deepcopy(vertical).e2 is INFINITY
        assert pickle.loads(pickle.dumps(vertical)).e2 is INFINITY

    def test_repr(self):
        assert repr(Geodesic(2, -1)) == "Geodesic[(-1+0j), (2+0j)]"
        assert repr(Geodesic(INFINITY, 1j)) == "Geodesic[1j, INFINITY]"
        assert str(Geodesic(0j, INFINITY)) == "Geodesic[0j, INFINITY]"

    def test_degenerate_marker(self):
        assert Geodesic(1j, 1j).degenerate
        assert not Geodesic(0j, 1j).degenerate

    def test_distance_ignores_orientation(self):
        g = Geodesic(0j, 1 + 1j)
        assert geodesic_distance(g, Geodesic(1 + 1j, 0j)) == 0.0

    def test_json_encoding(self):
        # endpoints in canonical order, inf last
        assert Geodesic(INFINITY, 1.5 - 2j).to_json() == {"e1": [1.5, -2.0], "e2": "inf"}
        assert Geodesic(1j, -3 + 0j).to_json() == {"e1": [-3.0, 0.0], "e2": [0.0, 1.0]}
        assert Geodesic(3, 1).to_json() == {"e1": [1.0, 0.0], "e2": [3.0, 0.0]}
        assert Geodesic(INFINITY, INFINITY).to_json() == {"e1": "inf", "e2": "inf"}

    def test_transform_applies_moebius(self):
        g = Geodesic(0j, INFINITY)
        m = GroupElement(1, 1, 0, 1)
        assert transform(g, m) == Geodesic(1 + 0j, INFINITY)


class TestAxis:
    def test_axis_connects_fixed_points(self):
        rng = random.Random(31)
        g = random_loxodromic(rng)
        assert axis(g) == Geodesic(*fixed_points(g))

    def test_parabolic_axis_is_marker(self):
        assert axis(GroupElement(1, 0, 3, 1)) == Geodesic(0j, 0j)

    def test_axis_equivariance(self):
        rng = random.Random(32)
        for _ in range(15):
            g = random_loxodromic(rng)
            h = random_mobius(rng)
            left = axis(h * g * h.inverse())
            right = transform(axis(g), h)
            assert geodesic_distance(left, right) < 1e-8


class TestLineMatrix:
    def test_vertical_axis_form(self):
        L = line_matrix(VERTICAL_AXIS)
        assert psl_distance(L, GroupElement(1j, 0, 0, -1j)) <= 1e-15

    def test_trace_zero_det_one(self):
        rng = random.Random(7)
        for _ in range(20):
            g = axis(random_loxodromic(rng))
            L = line_matrix(g)
            assert abs(L.trace()) < 1e-12
            assert abs(L.det() - 1) < 1e-12

    def test_half_turn_fixes_endpoints(self):
        g = Geodesic(2 + 1j, -0.5 + 0j)
        L = line_matrix(g)
        assert chordal_distance(L.apply(g.e1), g.e1) < 1e-12
        assert chordal_distance(L.apply(g.e2), g.e2) < 1e-12

    def test_half_turn_is_involution(self):
        g = Geodesic(1 + 0j, INFINITY)
        L = line_matrix(g)
        assert psl_distance(L * L, IDENTITY) <= 1e-12

    def test_marker_rejected(self):
        with pytest.raises(DegenerateGeodesic):
            line_matrix(Geodesic(1j, 1j))

    def test_half_turn_conjugate_reflects(self):
        # half-turn about the vertical axis is z -> -z on the boundary
        g = GroupElement(1, 1, 0, 1)
        h = line_matrix(VERTICAL_AXIS)
        refl = h * g * h.inverse()
        assert psl_distance(refl, GroupElement(1, -1, 0, 1)) <= 1e-12


class TestOrthogonality:
    def test_vertical_meets_centered_circle(self):
        circle = Geodesic(-1 + 0j, 1 + 0j)
        assert orthogonality_residual(VERTICAL_AXIS, circle) <= DEFAULT_GEO
        assert orthogonality_residual(VERTICAL_AXIS, Geodesic(-2 + 0j, 2 + 0j)) < 1e-15

    def test_offset_circle_is_not_orthogonal(self):
        circle = Geodesic(1 + 0j, 2 + 0j)
        assert orthogonality_residual(VERTICAL_AXIS, circle) > DEFAULT_GEO

    def test_invariant_under_moebius(self):
        rng = random.Random(41)
        g1 = Geodesic(-1 + 0j, 1 + 0j)
        g2 = VERTICAL_AXIS
        for _ in range(10):
            m = random_mobius(rng)
            residual = orthogonality_residual(transform(g1, m), transform(g2, m))
            assert residual <= DEFAULT_GEO


class TestCommonPerpendicular:
    def test_nested_circles_give_vertical(self):
        perp = common_perpendicular(
            Geodesic(-1 + 0j, 1 + 0j), Geodesic(-2 + 0j, 2 + 0j)
        )
        assert geodesic_distance(perp, VERTICAL_AXIS) < 1e-12

    def test_intersecting_circles_also_resolve(self):
        # |z| = 1 over the real and imaginary axes meet at the apex; the
        # common perpendicular is the vertical line through it
        perp = common_perpendicular(Geodesic(-1 + 0j, 1 + 0j), Geodesic(-1j, 1j))
        assert geodesic_distance(perp, VERTICAL_AXIS) < 1e-12

    def test_perpendicular_is_orthogonal_to_both(self):
        rng = random.Random(13)
        for _ in range(15):
            g1 = axis(random_loxodromic(rng))
            g2 = axis(random_loxodromic(rng))
            try:
                perp = common_perpendicular(g1, g2)
            except SharedEndpoint:
                continue
            assert orthogonality_residual(perp, g1) < 1e-9
            assert orthogonality_residual(perp, g2) < 1e-9

    def test_shared_endpoint_rejected(self):
        with pytest.raises(SharedEndpoint):
            common_perpendicular(Geodesic(0j, INFINITY), Geodesic(0j, 1 + 0j))

    def test_marker_contributes_its_point(self):
        # degenerate [p, p] pins the perpendicular through p
        perp = common_perpendicular(
            Geodesic(1 + 0j, 1 + 0j), Geodesic(-1 + 0j, -1 + 0j)
        )
        assert perp == Geodesic(-1 + 0j, 1 + 0j)

    def test_marker_against_proper_geodesic(self):
        perp = common_perpendicular(Geodesic(2 + 0j, 2 + 0j), Geodesic(-1 + 0j, 1 + 0j))
        assert chordal_distance(perp.e1, 0.5 + 0j) < 1e-12 or chordal_distance(
            perp.e2, 0.5 + 0j
        ) < 1e-12
        assert any(chordal_distance(e, 2 + 0j) < 1e-12 for e in perp.endpoints())
        assert orthogonality_residual(perp, Geodesic(-1 + 0j, 1 + 0j)) < 1e-12


class TestPositionOnVerticalAxis:
    def test_symmetric_circle_position(self):
        assert position_on_vertical_axis(Geodesic(-2 + 0j, 2 + 0j)) == math.log(2)
        assert position_on_vertical_axis(Geodesic(-1 + 0j, 1 + 0j)) == 0.0

    def test_complex_antipodal_endpoints(self):
        x = 1.5 * complex(math.cos(0.7), math.sin(0.7))
        s = position_on_vertical_axis(Geodesic(x, -x))
        assert abs(s - math.log(1.5)) < 1e-12

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="not antipodal"):
            position_on_vertical_axis(Geodesic(1 + 0j, 2 + 0j))

    def test_marker_rejected(self):
        with pytest.raises(DegenerateGeodesic):
            position_on_vertical_axis(Geodesic(1 + 0j, 1 + 0j))

    def test_eps_override_loosens_check(self):
        g = Geodesic(1 + 0j, -1.001 + 0j)
        with pytest.raises(ValueError, match="not antipodal"):
            position_on_vertical_axis(g)
        s = position_on_vertical_axis(g, eps=0.01)
        assert abs(s) < 1e-3


def test_line_matrix_conjugation_transports_geodesics():
    rng = random.Random(55)
    for _ in range(10):
        g = axis(random_loxodromic(rng))
        m = random_mobius(rng)
        left = line_matrix(transform(g, m))
        right = m * line_matrix(g) * m.inverse()
        assert min(
            max(abs(x - y) for x, y in zip(left.entries(), right.entries())),
            max(abs(x + y) for x, y in zip(left.entries(), right.entries())),
        ) < 1e-9
