"""Matrix layer: algebra, normalization, classification, fixed points."""

import cmath
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palcore.config import CLASSIFY_BAND
from palcore.errors import IdentityElement, SingularMatrix
from palcore.sl2c import (
    IDENTITY,
    INFINITY,
    GroupElement,
    boundary_key,
    boundary_to_json,
    chordal_distance,
    classify,
    fixed_points,
    is_identity,
    matrix_from_json,
    normalize,
    product,
)

from .conftest import loxodromic_between, random_loxodromic, random_mobius
from .oracles import psl_distance


def _reference_is_identity(g):
    """is_identity as it was: the distance to a built identity element."""
    return psl_distance(g, IDENTITY) <= CLASSIFY_BAND


def _outcome(fn, *args):
    """What a call did: its return value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


_complex_st = st.complex_numbers(allow_nan=True, allow_infinity=True)
_matrix_st = st.builds(GroupElement, _complex_st, _complex_st, _complex_st, _complex_st)
# the classify band and its neighbouring floats, signed: an off-diagonal
# entry of such a part puts a matrix's distance to the identity on the
# band or one float to either side of it, where is_identity's answer turns
_band_edge_st = st.sampled_from(tuple(
    sign * x for sign in (1, -1) for x in (
        math.nextafter(CLASSIFY_BAND, 0.0), CLASSIFY_BAND,
        math.nextafter(CLASSIFY_BAND, 1.0),
    )
))
# perturbations around the classify band 1e-9, signed zeros included
_perturbation_st = st.one_of(
    st.just(0j),
    st.just(complex(-0.0, -0.0)),
    st.complex_numbers(max_magnitude=1e-6),
    st.builds(
        complex,
        st.floats(-3e-9, 3e-9),
        st.floats(-3e-9, 3e-9),
    ),
    st.builds(complex, _band_edge_st, st.sampled_from((0.0, -0.0))),
    st.builds(complex, st.sampled_from((0.0, -0.0)), _band_edge_st),
)
# entry parts that reach the edge cases of the arithmetic: signed zeros,
# infinities, NaN, and parts whose modulus together is past the float range
_part_st = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                     1.2711610061536464e308, -1.7e308, 5e-324)),
    st.floats(allow_nan=True, allow_infinity=True),
)
_edge_complex_st = st.builds(complex, _part_st, _part_st)
_edge_matrix_st = st.builds(
    GroupElement, _edge_complex_st, _edge_complex_st, _edge_complex_st,
    _edge_complex_st,
)


def _reference_product(m, factors):
    """product as it was: the running product updated by one four-name
    assignment per factor."""
    a, b, c, d = m
    for e, f, g, h in factors:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def _reference_classify(g):
    """classify as it was: is_identity first, on every matrix."""
    if is_identity(g):
        return "identity"
    a, _, _, d = g
    t = a + d
    t2 = t * t
    if abs(t2 - 4) <= CLASSIFY_BAND:
        return "parabolic"
    if abs(t.imag) <= CLASSIFY_BAND and t2.real < 4:
        return "elliptic"
    return "loxodromic"


def _hex_parts(entries):
    return [part.hex() for z in entries for part in (z.real, z.imag)]


class TestAlgebra:
    def test_identity_element(self):
        e = IDENTITY
        assert e.entries() == (1, 0, 0, 1)
        assert e.det() == 1
        assert e.trace() == 2

    def test_product_and_inverse(self):
        g = GroupElement(2, 1, 1, 1)
        h = g * g.inverse()
        assert psl_distance(h, IDENTITY) <= 1e-15

    def test_inverse_is_adjugate(self):
        g = GroupElement(3, 2, 4, 3)  # det 1
        assert g.inverse().entries() == (3, -2, -4, 3)

    def test_linear_ops(self):
        g = GroupElement(1, 2, 3, 4)
        h = GroupElement(4, 3, 2, 1)
        assert (g + h).entries() == (5, 5, 5, 5)
        assert (g - h).entries() == (-3, -1, 1, 3)
        assert (-g).entries() == (-1, -2, -3, -4)

    def test_apply_moebius(self):
        g = GroupElement(1, 1, 0, 1)  # z + 1
        assert g.apply(2 + 0j) == 3 + 0j
        assert g.apply(INFINITY) is INFINITY

    def test_apply_pole_goes_to_infinity(self):
        g = GroupElement(0, 1, -1, 0)  # -1/z
        assert g.apply(0j) is INFINITY
        assert g.apply(INFINITY) == 0

    def test_max_norm(self):
        assert GroupElement(1, -3j, 2, 0).max_norm() == 3.0

    @given(
        st.one_of(_edge_matrix_st, _matrix_st),
        st.lists(st.one_of(_edge_matrix_st, _matrix_st), max_size=6),
    )
    def test_row_update_keeps_the_four_name_product_bits(self, m, factors):
        """product updates a, b and then c, d; every part of every entry
        has the bits of the four-name update, NaN and infinities included."""
        assert _hex_parts(product(m, factors)) == _hex_parts(
            _reference_product(m, factors)
        )
        assert _hex_parts(product(tuple(m), map(tuple, factors))) == _hex_parts(
            _reference_product(m, factors)
        )


class TestNormalize:
    def test_rescales_to_det_one(self):
        g = GroupElement(2, 0, 0, 2)
        n = normalize(g)
        assert abs(n.det() - 1) < 1e-14

    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            normalize(GroupElement(1, 1, 1, 1))

    def test_determinant_overflowing_to_nan_is_named(self):
        # the entry products overflow to inf, and their difference is NaN
        with pytest.raises(SingularMatrix, match="^determinant overflows to NaN: "
                           "entry products are past the float range$"):
            normalize(GroupElement(1e200, 1e200, 1e200, 1e200))

    def test_scale_invariant_up_to_sign(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_mobius(rng)
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            scaled = GroupElement(*(lam * e for e in g.entries()))
            assert psl_distance(normalize(scaled), g) < 1e-12


class TestProjectiveEquality:
    def test_sign_is_quotiented(self):
        g = GroupElement(2, 1, 1, 1)
        assert psl_distance(g, -g) == 0.0

    def test_distinct_elements_are_far(self):
        assert psl_distance(GroupElement(2, 1, 1, 1), IDENTITY) > 1e-6

    def test_is_identity_both_signs(self):
        assert is_identity(IDENTITY)
        assert is_identity(-IDENTITY)
        assert not is_identity(GroupElement(1, 1e-3, 0, 1))

    def test_is_identity_band_is_closed(self):
        # the distance CLASSIFY_BAND itself is within the band, the next
        # float past it is not
        assert is_identity(GroupElement(1, CLASSIFY_BAND, 0, 1))
        assert is_identity(GroupElement(-1, 0, -CLASSIFY_BAND, -1))
        past = math.nextafter(CLASSIFY_BAND, 1.0)
        assert not is_identity(GroupElement(1, past, 0, 1))
        assert not is_identity(GroupElement(-1, 0, -past, -1))

    # abs(d - 1) overflows to OverflowError for this d, on both sides; in
    # the second, |c| = 1 is past the band, so is_identity answers False
    # before it takes that distance; in the third, |c| itself overflows
    @example(GroupElement(1 + 0j, 0j, 0j, complex(1.2711610061536464e308,
                                                  1.2711610061536464e308)))
    @example(GroupElement(0j, 0j, 1j, complex(1.2711610061536462e308,
                                              1.2711610061536464e308)))
    @example(GroupElement(0j, 1j, complex(1.2711610061536462e308,
                                          1.2711610061536464e308), 0j))
    @given(_matrix_st)
    def test_is_identity_matches_reference_on_any_matrix(self, g):
        expected = _outcome(_reference_is_identity, g)
        off_diagonal = _outcome(lambda: (abs(g.b), abs(g.c)))
        if expected is OverflowError and isinstance(off_diagonal, tuple) and (
            off_diagonal[0] > CLASSIFY_BAND or off_diagonal[1] > CLASSIFY_BAND
        ):
            # the distance the reference overflows on is at least |b| and
            # |c|, so it is past the band: the answer is False
            expected = False
        assert _outcome(is_identity, g) == expected

    @given(st.sampled_from((1, -1)), _perturbation_st, _perturbation_st,
           _perturbation_st, _perturbation_st)
    def test_is_identity_matches_reference_near_identity(self, sign, da, db, dc, dd):
        g = GroupElement(sign + da, db, dc, sign + dd)
        assert is_identity(g) == _reference_is_identity(g)


class TestClassify:
    def test_canonical_forms(self):
        assert classify(GroupElement(1, 1, 0, 1)) == "parabolic"
        assert classify(GroupElement(2, 0, 0, 0.5)) == "loxodromic"
        t = cmath.exp(0.4j)
        assert classify(GroupElement(t, 0, 0, 1 / t)) == "elliptic"
        assert classify(IDENTITY) == "identity"
        assert classify(-IDENTITY) == "identity"

    def test_complex_trace_is_loxodromic(self):
        # tr^2 real and < 4 means elliptic only for real trace
        g = GroupElement(1.2 * cmath.exp(0.3j), 0, 0, 1 / (1.2 * cmath.exp(0.3j)))
        assert classify(g) == "loxodromic"

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_loxodromic(rng)
            h = random_mobius(rng)
            assert classify(h * g * h.inverse()) == classify(g)

    # |b| = 1 is past the band and |c| overflows: classify must still raise
    # the OverflowError is_identity raises, where a test that stopped at
    # |b| would read tr^2 = 4 as parabolic
    @example(GroupElement(1 + 0j, 1 + 0j, complex(1.2711610061536462e308,
                                                  1.2711610061536464e308), 1 + 0j))
    # |b| is NaN, which is not past the band: is_identity's comparison
    # ignores it and answers True, where a <= test would read parabolic
    @example(GroupElement(1 + 0j, complex(math.nan, 0.0), 0j, 1 + 0j))
    @example(GroupElement(-1 + 0j, 2e-9 + 0j, 0j, -1 + 0j))
    @given(st.one_of(
        _matrix_st,
        _edge_matrix_st,
        st.builds(
            lambda sign, da, db, dc, dd: GroupElement(sign + da, db, dc, sign + dd),
            st.sampled_from((1, -1)), _perturbation_st, _perturbation_st,
            _perturbation_st, _perturbation_st,
        ),
    ))
    def test_band_first_matches_the_identity_first_classify(self, g):
        """classify takes both off-diagonal moduli before is_identity; on
        any matrix it gives the class, or raises the exception type, that
        the is_identity-first classify does."""
        assert _outcome(classify, g) == _outcome(_reference_classify, g)


class TestFixedPoints:
    def test_points_are_fixed(self):
        rng = random.Random(23)
        for _ in range(30):
            g = random_loxodromic(rng)
            for z in fixed_points(g):
                assert chordal_distance(g.apply(z), z) < 1e-8

    def test_diagonal_case_sorted(self):
        g = GroupElement(2, 0, 0, 0.5)
        assert fixed_points(g) == (0j, INFINITY)

    def test_parabolic_double_point(self):
        g = GroupElement(1, 0, 3, 1)
        p, q = fixed_points(g)
        assert p == q == 0j
        assert fixed_points(GroupElement(1, 2, 0, 1)) == (INFINITY, INFINITY)

    def test_identity_raises(self):
        with pytest.raises(IdentityElement):
            fixed_points(IDENTITY)

    def test_close_fixed_points_stay_accurate(self):
        x = 1e-3
        g = loxodromic_between(complex(x), complex(-x), 2.0 + 0j)
        p, q = fixed_points(g)
        assert min(abs(p - x), abs(p + x)) < 1e-12
        assert min(abs(q - x), abs(q + x)) < 1e-12


class TestBoundary:
    def test_key_orders_infinity_last(self):
        pts = [INFINITY, 1 + 0j, -2 + 5j, 1 - 3j]
        assert sorted(pts, key=boundary_key)[-1] is INFINITY

    def test_key_is_lexicographic(self):
        assert boundary_key(1 + 2j) < boundary_key(2 - 5j)
        assert boundary_key(1 - 2j) < boundary_key(1 + 2j)

    def test_chordal_metric(self):
        assert chordal_distance(0j, INFINITY) == 2.0
        assert chordal_distance(INFINITY, INFINITY) == 0.0
        assert chordal_distance(1 + 0j, 1 + 0j) == 0.0
        assert abs(chordal_distance(0j, 1 + 0j) - math.sqrt(2)) < 1e-15

    def test_chordal_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            u = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            v = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert chordal_distance(u, v) == chordal_distance(v, u)
            assert chordal_distance(u, INFINITY) == chordal_distance(INFINITY, u)


class TestJson:
    def test_matrix_round_trip(self):
        g = GroupElement(1 + 2j, -0.5, 3j, 0.25 - 1j)
        assert matrix_from_json(g.to_json()).entries() == g.entries()

    def test_row_form(self):
        g = matrix_from_json([[1, 2], [3, 4]])
        assert g.entries() == (1, 2, 3, 4)

    def test_row_form_complex_entries(self):
        g = matrix_from_json([[[0, 1], 2], [3, [4, -1]]])
        assert g.entries() == (1j, 2, 3, 4 - 1j)

    @pytest.mark.parametrize("obj, named", [
        ([1, 2], "got 1"),
        (5, "got 5"),
        ("ab", 'got "ab"'),
        ([[1, 2], [3, None]], "got null"),
        ([[1, 2], [3, True]], "got true"),
        ([[math.nan, 0], [0, 1]], "got NaN"),
        ([[math.inf, 0], [0, 1]], "got Infinity"),
        ([[1, [0, -math.inf]], [0, 1]], "got [0, -Infinity]"),
        ([[10**400, 0], [0, 1]], "got 1000"),
        ([[1, 2], [3]], "got [3]"),
        ([[1, 2], [3, 4], [5, 6]], "got [[1, 2], [3, 4], [5, 6]]"),
        ([[1, 2], [3, [4, 5, 6]]], "got [4, 5, 6]"),
        ({"a": 1, "b": 0, "c": 0, "d": "1"}, 'got "1"'),
        ({"a": 1, "b": False, "c": 0, "d": 1}, "got false"),
    ])
    def test_malformed_matrix_names_the_value(self, obj, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            matrix_from_json(obj)

    def test_valid_entries_keep_their_values(self):
        # the checks keep exact values: ints, negative zeros, [re, im] pairs
        g = matrix_from_json({"a": [1, -0.0], "b": -0.0, "c": 2**53 + 1, "d": [0, 3]})
        assert g.entries() == (complex(1, -0.0), complex(-0.0), complex(2**53 + 1), 3j)
        assert math.copysign(1.0, g.a.imag) == math.copysign(1.0, g.b.real) == -1.0

    def test_boundary_encoding(self):
        assert boundary_to_json(INFINITY) == "inf"
        assert boundary_to_json(1.5 - 2j) == [1.5, -2.0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_normalized_conjugation_preserves_trace_squared(seed):
    rng = random.Random(seed)
    g = random_loxodromic(rng)
    h = random_mobius(rng)
    conj = h * g * h.inverse()
    assert abs(conj.trace() ** 2 - g.trace() ** 2) < 1e-8 * max(
        1.0, abs(g.trace()) ** 2
    )
