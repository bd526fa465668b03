"""Rational indexing: Stern-Brocot descent, Christoffel words, primitive
word scheme, associates, enumeration."""

import math
import random
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palcore import farey
from palcore.errors import InvalidRational, SchemeViolation
from palcore.farey import (
    FareyNode,
    christoffel,
    enumerate_farey,
    farey_table,
    primitive_word,
    validate_slope,
)
from palcore.words import Word, is_palindrome

from .oracles import (
    abelianize,
    are_associates,
    child_by_products,
    cyclically_equal,
    enumerate_farey_by_children,
    is_primitive,
    primitive_word_by_steps,
)


def coprime_slopes(limit):
    for q in range(limit + 1):
        for p in range(limit + 1):
            if p + q == 0 or p + q > limit:
                continue
            if math.gcd(p, q) == 1:
                yield p, q


def _reference_christoffel(p, q):
    """christoffel as it was: one floor comparison per letter."""
    n = p + q
    return Word("".join(
        "b" if (k * p) // n > ((k - 1) * p) // n else "a" for k in range(1, n + 1)
    ))


class TestValidation:
    def test_accepts_reduced_nonnegative(self):
        for s in ((0, 1), (1, 0), (3, 5), (7, 2)):
            validate_slope(*s)

    def test_rejects_common_factor(self):
        with pytest.raises(InvalidRational):
            validate_slope(2, 4)

    def test_rejects_negatives_and_zero_zero(self):
        for s in ((-1, 2), (1, -2), (0, 0)):
            with pytest.raises(InvalidRational):
                validate_slope(*s)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidRational):
            validate_slope(1.5, 2)

    @pytest.mark.parametrize("p, q", [(True, False), (True, 2), (1, True), (False, 1)])
    def test_rejects_booleans(self, p, q):
        # a bool is an int to isinstance: True/False would read as 1/0
        for check in (validate_slope, christoffel, primitive_word):
            with pytest.raises(InvalidRational, match="must be integers"):
                check(p, q)


class TestParents:
    """The parents and depth a slope's node carries."""

    def test_known_parents(self):
        assert primitive_word(3, 5).parents == ((1, 2), (2, 3))
        assert primitive_word(1, 3).parents == ((0, 1), (1, 2))
        assert primitive_word(1, 1).parents == ((0, 1), (1, 0))

    def test_roots_have_no_parents(self):
        for s in ((0, 1), (1, 0)):
            assert primitive_word(*s).parents is None

    def test_mediant_and_unimodularity(self):
        for p, q in coprime_slopes(24):
            if (p, q) in ((0, 1), (1, 0)):
                continue
            (r, s), (t, u) = primitive_word(p, q).parents
            assert (r + t, s + u) == (p, q)
            assert abs(r * u - t * s) == 1

    def test_depths(self):
        assert primitive_word(0, 1).depth == 0
        assert primitive_word(1, 0).depth == 0
        assert primitive_word(1, 1).depth == 1
        assert primitive_word(3, 5).depth == 4
        assert primitive_word(1, 6).depth == 6


class TestChristoffel:
    def test_roots_and_mediant(self):
        assert christoffel(0, 1) == Word("a")
        assert christoffel(1, 0) == Word("b")
        assert christoffel(1, 1) == Word("ab")

    def test_known_words(self):
        assert str(christoffel(2, 3)) == "aabab"
        assert str(christoffel(1, 3)) == "aaab"
        assert str(christoffel(3, 1)) == "abbb"

    def test_letter_counts_match_slope(self):
        for p, q in coprime_slopes(15):
            ea, eb = abelianize(christoffel(p, q))
            assert (ea, eb) == (q, p)

    def test_matches_letter_by_letter_form(self):
        slopes = [(n.p, n.q) for n in enumerate_farey(12)]
        slopes += [(1, 2000), (2000, 1), (1597, 987), (987, 1597), (2, 2001)]
        for p, q in slopes:
            assert christoffel(p, q) == _reference_christoffel(p, q), (p, q)


class TestPrimitiveWord:
    def test_roots(self):
        assert str(primitive_word(0, 1).word) == "a"
        assert str(primitive_word(1, 0).word) == "b"

    def test_even_case_is_palindromic_rotation(self):
        node = primitive_word(2, 5)
        assert str(node.word) == "abaaaba"
        assert node.factorization is None
        assert is_palindrome(node.word)
        assert cyclically_equal(node.word, christoffel(2, 5))

    def test_odd_case_factors(self):
        node = primitive_word(3, 5)
        assert str(node.word) == "abaababa"
        u, v = node.factorization
        assert (str(u), str(v)) == ("aba", "ababa")
        assert is_palindrome(u) and is_palindrome(v)
        assert u * v == node.word

    def test_one_one_splits_into_letters(self):
        node = primitive_word(1, 1)
        assert node.factorization is not None
        u, v = node.factorization
        assert u * v == node.word

    def test_palindromic_rotation_is_unique(self):
        # pq even: exactly one rotation of the Christoffel word reads the
        # same both ways, and the parent recursion builds that rotation
        even = [n for n in enumerate_farey(11) if (n.p * n.q) % 2 == 0]
        assert len(even) == 1366
        for node in even:
            w = str(christoffel(node.p, node.q))
            rotations = {w[i:] + w[:i] for i in range(len(w))}
            pals = [r for r in rotations if r == r[::-1]]
            assert len(pals) == 1, (node.p, node.q)
            assert primitive_word(node.p, node.q).word == pals[0]

    def test_deep_slope_needs_no_deep_recursion(self):
        # 1/1200 lies 1200 mediant steps down, beyond the interpreter's
        # recursion limit if each word recursed into its parents; the
        # descent is a loop
        node = primitive_word(1, 1200)
        assert node.depth == 1200
        assert str(node.word) == "a" * 600 + "b" + "a" * 600

    def test_scheme_checks_raise(self, monkeypatch):
        # the one runtime check fires on a descent given a wrong
        # Christoffel word
        farey = sys.modules["palcore.farey"]
        monkeypatch.setattr(farey, "christoffel", lambda p, q: Word("bba"))
        with pytest.raises(SchemeViolation, match="not conjugate to Christoffel"):
            primitive_word(1, 2)

    def test_node_metadata(self):
        node = primitive_word(3, 5)
        assert (node.p, node.q, node.depth) == (3, 5, 4)
        assert node.parents == ((1, 2), (2, 3))

    def test_all_words_are_primitive(self):
        for p, q in coprime_slopes(10):
            assert is_primitive(primitive_word(p, q).word)

    def test_rejects_unreduced(self):
        with pytest.raises(InvalidRational):
            primitive_word(2, 4)


def _assert_scheme(node):
    """The three scheme checks on a node: the palindrome, or the two
    palindromic factors whose product is the word, and the word a rotation
    of the Christoffel word."""
    word, factors = node.word, node.factorization
    if factors is None:
        assert word == word[::-1]
    else:
        u, v = factors
        assert u == u[::-1] and v == v[::-1] and u * v == word
    chris = christoffel(node.p, node.q)
    assert len(word) == len(chris) and chris in word + word


class TestOneBuilder:
    """enumerate_farey and primitive_word build each word by one child
    rule from the words of its parents."""

    def test_enumerated_slopes_are_the_descent_nodes(self):
        nodes = enumerate_farey(12)
        assert len(nodes) == 2**12 + 1
        for node in nodes:
            assert primitive_word(node.p, node.q) == node
            _assert_scheme(node)

    @pytest.mark.parametrize("p, q", [(1, 2000), (2000, 1), (1597, 987), (987, 1597)])
    def test_long_slopes_pass_the_scheme_checks(self, p, q):
        node = primitive_word(p, q)
        assert (node.p, node.q) == (p, q) and len(node.word) == p + q
        _assert_scheme(node)

    def test_words_are_texts(self):
        node = primitive_word(3, 5)
        # a node holds Words, each equal to its text
        assert node.word == "abaababa" and node.factorization == ("aba", "ababa")
        assert all(isinstance(w, Word) for w in (node.word, *node.factorization))


def _seeded_long_slopes(seed, count, limit):
    rng = random.Random(seed)
    slopes = []
    while len(slopes) < count:
        p, q = rng.randint(0, limit), rng.randint(0, limit)
        if p + q and math.gcd(p, q) == 1:
            slopes.append((p, q))
    return slopes


class TestRunDescent:
    """primitive_word descends run by run; the step-by-step descent of
    tests/oracles.py is its reference, node for node."""

    def test_every_enumerated_slope_matches_the_step_descent(self):
        nodes = enumerate_farey(14)
        assert len(nodes) == 2**14 + 1
        for node in nodes[2:]:
            got = primitive_word(node.p, node.q)
            assert got == primitive_word_by_steps(node.p, node.q) == node
            assert type(got.word) is Word
            assert all(type(w) is Word for w in got.factorization or ())

    @pytest.mark.parametrize(
        "p, q",
        [(1, 1999), (1999, 1), (2, 2001), (1597, 987), (987, 1597), (1000, 999)]
        + _seeded_long_slopes(24, 40, 3000),
    )
    def test_long_slopes_match_the_step_descent(self, p, q):
        got = primitive_word(p, q)
        assert got == primitive_word_by_steps(p, q)
        assert len(got.word) == p + q

    def test_long_run_is_linear(self):
        # the step descent builds 120,000 words for this slope, 7.2e9
        # letters in all; the run descent builds one word of 120,001
        start = time.perf_counter()
        node = primitive_word(120000, 1)
        assert time.perf_counter() - start < 0.5
        assert node.depth == 120000
        assert node.parents == ((119999, 1), (1, 0))


def _assert_same_nodes(got, reference):
    assert got == reference
    for node in got:
        assert type(node) is FareyNode and type(node.word) is Word
        assert all(type(w) is Word for w in node.factorization or ())
        parents = node.parents
        assert parents is None or (
            type(parents) is tuple
            and all(type(s) is tuple and len(s) == 2 for s in parents)
        )
        assert node.factorization is None or type(node.factorization) is tuple


def _assert_walk_order(table):
    """farey_table's lists are in the order of its level-by-level walk:
    the roots 0/1 and 1/0 first, every other slope's Farey parents at
    smaller places than its own, level never decreasing, and order the
    places sorted by (q, p), 1/0 and then 0/1 first."""
    n = len(table.p)
    assert all(len(column) == n for column in table)
    assert list(zip(table.p[:2], table.q[:2])) == [(0, 1), (1, 0)]
    assert table.lo[:2] == table.hi[:2] == [None, None]
    assert all(lo < i and hi < i
               for i, lo, hi in zip(range(2, n), table.lo[2:], table.hi[2:]))
    assert all(a <= b for a, b in zip(table.level, table.level[1:]))
    assert sorted(table.order) == list(range(n))
    keys = [(table.q[i], table.p[i]) for i in table.order]
    assert keys == sorted(set(keys))
    assert keys[:2] == [(0, 1), (1, 0)]


class TestWalkOrder:
    """The table keeps the order its walk fills it in; order alone gives
    the (q, p) order of enumerate_farey and of the spectrum."""

    @pytest.mark.parametrize("depth", range(15))
    def test_parents_come_first_and_order_sorts_by_q_then_p(self, depth):
        _assert_walk_order(farey_table(depth))


class TestPalindromesOnly:
    """The table keeps only the palindromes' texts: an odd slope's pair is
    its Farey parents' palindromes, held by reference, and enumerate_farey
    joins it into the slope's word."""

    @pytest.mark.parametrize("depth", range(15))
    def test_odd_pairs_are_the_parents_palindromes(self, depth):
        table = farey_table(depth)
        assert "word" not in table._fields
        words = table.words
        odd = [(lo, hi, pair) for lo, hi, pair in zip(table.lo, table.hi, words)
               if len(pair) == 2]
        assert len(odd) == (2**depth + 1) // 3
        for lo, hi, pair in odd:
            assert len(words[lo]) == len(words[hi]) == 1
            assert pair == (words[lo][0], words[hi][0])
            assert pair[0] is words[lo][0] and pair[1] is words[hi][0]


class TestLeanChild:
    """_child concatenates its parents' words, and farey_table joins the
    palindromes of each level's neighbours; the child rule by Word products
    (tests/oracles.py) is their reference, node for node, and for the
    table through the depth-first walk by parent nodes,
    enumerate_farey_by_children."""

    @pytest.mark.parametrize("depth", range(15))
    def test_enumeration_matches_the_product_rule(self, depth):
        _assert_same_nodes(enumerate_farey(depth), enumerate_farey_by_children(depth))

    @pytest.mark.parametrize("p, q", [(1, 2000), (2000, 1), (1597, 987), (987, 1597)])
    def test_long_slopes_match_the_product_rule(self, monkeypatch, p, q):
        got = primitive_word(p, q)
        monkeypatch.setattr(farey, "_child", child_by_products)
        _assert_same_nodes([got], [primitive_word(p, q)])


class TestAssociates:
    def test_parents_are_associates(self):
        for p, q in coprime_slopes(16):
            if (p, q) in ((0, 1), (1, 0)):
                continue
            (r, s), (t, u) = primitive_word(p, q).parents
            assert are_associates((r, s), (t, u))
            assert are_associates((p, q), (r, s))
            assert are_associates((p, q), (t, u))

    def test_distant_slopes_are_not(self):
        assert not are_associates((1, 3), (3, 5))
        assert not are_associates((0, 1), (2, 1))

    def test_symmetric(self):
        assert are_associates((1, 2), (1, 3)) == are_associates((1, 3), (1, 2))


class TestEnumeration:
    def test_counts(self):
        for depth in range(7):
            assert len(enumerate_farey(depth)) == 2**depth + 1

    def test_sorted_by_q_then_p(self):
        nodes = enumerate_farey(4)
        keys = [(n.q, n.p) for n in nodes]
        assert keys == sorted(keys)

    def test_membership(self):
        slopes = {(n.p, n.q) for n in enumerate_farey(4)}
        assert (3, 5) in slopes and (5, 3) in slopes
        assert (1, 5) not in slopes  # depth 5

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            enumerate_farey(-1)


@given(st.integers(0, 500))
def test_depth_recursion(i):
    slopes = [s for s in coprime_slopes(30) if s not in ((0, 1), (1, 0))]
    p, q = slopes[i % len(slopes)]
    node = primitive_word(p, q)
    lo, hi = node.parents
    assert node.depth == 1 + max(primitive_word(*lo).depth, primitive_word(*hi).depth)
