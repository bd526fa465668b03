"""Word layer: free reduction, reversal, palindromes, Nielsen moves,
primitivity."""

import cmath
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from palcore.errors import NotPalindrome
from palcore.representation import build
from palcore.sl2c import IDENTITY, GroupElement, psl_distance
from palcore.words import (
    LETTERS,
    AbelianImage,
    Word,
    abelianize,
    cyclic_reduce,
    cyclically_equal,
    elliptic_power_factorization,
    evaluate,
    is_palindrome,
    is_primitive,
    letter_table,
    nielsen_reduce_pair,
    parse,
    reduced_words,
    reverse,
)

from .conftest import loxodromic_between, random_loxodromic, random_palindrome

letters_st = st.sampled_from(LETTERS)
raw_st = st.lists(letters_st, max_size=24).map(tuple)
word_st = raw_st.map(Word)


# Reference implementations: the letter-by-letter forms the word layer had
# before it folded products in local variables and scanned letters at C
# speed. The tests below demand bit-for-bit equal results from both.

def _reference_evaluate(w, A, B):
    table = {1: A, -1: A.inverse(), 2: B, -2: B.inverse()}
    out = IDENTITY
    for x in w.letters:
        out = out * table[x]
    return out


def _reference_letters(raw):
    for x in raw:
        if x not in (1, -1, 2, -2):
            raise ValueError(f"invalid letter {x!r}")
    out = []
    for x in raw:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _reference_str(w):
    chars = []
    for x in w.letters:
        lab = "ab"[abs(x) - 1]
        chars.append(lab if x > 0 else lab.upper())
    return "".join(chars)


def _reference_cyclic_reduce(letters):
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return tuple(letters)


def _bits(g):
    """Every entry of a matrix (its entry tuple or a GroupElement) as the
    hex of its real and imaginary parts: equal bits, signed zeros
    included."""
    return tuple((complex(z).real.hex(), complex(z).imag.hex()) for z in g)


_MU4 = build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, 4, 1))
_MU_HALF = build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, 0.5, 1))
_EVALUATION_PAIRS = {
    "mu4": (_MU4.norm_A, _MU4.norm_B),
    "mu_half": (_MU_HALF.norm_A, _MU_HALF.norm_B),
    "loxodromic": (
        loxodromic_between(0.3 + 0.2j, -1.1 + 0.5j, 1.7 * cmath.exp(0.6j)),
        loxodromic_between(2 - 1j, -0.4 - 0.9j, 1.3 * cmath.exp(-1.1j)),
    ),
}

# raw sequences built from letters and inverse pairs, so that cancellation
# (including cascades) is common
_cancelling_raw_st = st.lists(
    st.one_of(
        letters_st.map(lambda x: (x,)),
        letters_st.map(lambda x: (x, -x)),
        letters_st.map(lambda x: (-x, x, x)),
    ),
    max_size=40,
).map(lambda blocks: tuple(x for block in blocks for x in block))
_invalid_letter_st = st.sampled_from((0, 3, -3, 1.5, "a", None, (1,), [1]))


class TestReduction:
    def test_adjacent_inverses_cancel(self):
        assert Word((1, -1, 2)).letters == (2,)
        assert Word((1, 2, -2, -1)).letters == ()

    def test_cascading_cancellation(self):
        assert Word((1, 2, -2, -1, 1, 2)).letters == (1, 2)

    @given(raw_st)
    def test_reduction_is_idempotent(self, raw):
        w = Word(raw)
        assert Word(w.letters).letters == w.letters

    @given(raw_st)
    def test_no_adjacent_inverses_remain(self, raw):
        w = Word(raw)
        assert all(x + y != 0 for x, y in zip(w.letters, w.letters[1:]))

    @given(word_st)
    def test_word_times_inverse_is_identity(self, w):
        assert not (w * w.inverse())
        assert not (w.inverse() * w)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            Word((3,))

    @given(_cancelling_raw_st)
    def test_matches_reference_reduction(self, raw):
        w = Word(raw)
        assert w.letters == _reference_letters(raw)
        assert type(w.letters) is tuple

    @given(_cancelling_raw_st, st.data())
    def test_invalid_letter_message_matches_reference(self, raw, data):
        bad = data.draw(_invalid_letter_st)
        at = data.draw(st.integers(0, len(raw)))
        spoiled = raw[:at] + (bad,) + raw[at:]
        with pytest.raises(ValueError) as expected:
            _reference_letters(spoiled)
        with pytest.raises(ValueError) as got:
            Word(spoiled)
        assert str(got.value) == str(expected.value)

    def test_first_invalid_letter_is_named(self):
        with pytest.raises(ValueError, match=r"invalid letter 0$"):
            Word((1, 0, 2, 3))
        with pytest.raises(ValueError, match=r"invalid letter \[1\]$"):
            Word((1, -1, [1]))


@st.composite
def _junction_pair_st(draw):
    """Reduced words u, v where v opens with the inverse of a suffix of u, so
    that u * v cancels across the junction, up to the whole of both."""
    u = Word(draw(_cancelling_raw_st))
    k = draw(st.integers(0, len(u)))
    tail = draw(_cancelling_raw_st)
    v = Word(Word(u.letters[len(u) - k:]).inverse().letters + tail)
    return u, v


class TestJunction:
    """Products, reversals and inverses skip validation and reduce only at
    the junction; they must equal the validated Word(raw) construction."""

    @staticmethod
    def _same(got, want):
        assert got.letters == want.letters
        assert type(got.letters) is tuple

    @given(_junction_pair_st())
    def test_product_matches_validated_construction(self, pair):
        u, v = pair
        self._same(u * v, Word(u.letters + v.letters))

    @given(word_st)
    def test_reverse_and_inverse_match_validated_construction(self, w):
        self._same(reverse(w), Word(tuple(reversed(w.letters))))
        self._same(w.inverse(), Word(tuple(-x for x in reversed(w.letters))))

    @pytest.mark.parametrize("k", [1, 2, 50, 5000])
    def test_long_cancellation(self, k):
        # a^k b A^k . a^k B A^k: A^k a^k, then b B, then a^k A^k cancel
        a, b = parse("a"), parse("b")
        u = a ** k * b * a ** -k
        v = a ** k * b.inverse() * a ** -k
        self._same(u * v, Word(u.letters + v.letters))
        assert not u * v
        w = a ** k * b
        self._same(u * w, Word(u.letters + w.letters))
        assert str(u * w) == "a" * k + "bb"


class TestParseAndFormat:
    def test_round_trip(self):
        for text in ("abA", "aaBAb", "", "BBBa"):
            assert str(parse(text)) == text

    def test_case_encodes_inversion(self):
        assert parse("aA").letters == ()
        assert parse("Ab").letters == (-1, 2)

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            parse("axb")

    @given(_cancelling_raw_st)
    def test_str_matches_letter_loop(self, raw):
        w = Word(raw)
        assert str(w) == _reference_str(w)


class TestAlgebra:
    def test_pow(self):
        w = parse("ab")
        assert w**3 == w * w * w
        assert w**0 == Word()
        assert w**-2 == (w.inverse()) * (w.inverse())

    @given(word_st, st.integers(-6, 6))
    def test_pow_matches_repeated_product(self, w, n):
        base = w if n >= 0 else w.inverse()
        out = Word(())
        for _ in range(abs(n)):
            out = out * base
        assert w**n == out

    @given(word_st, word_st)
    def test_abelianize_is_additive(self, u, v):
        au, av, auv = abelianize(u), abelianize(v), abelianize(u * v)
        assert auv == AbelianImage(au.ea + av.ea, au.eb + av.eb)

    @given(word_st)
    def test_abelianize_inverse_negates(self, w):
        aw, ai = abelianize(w), abelianize(w.inverse())
        assert (ai.ea, ai.eb) == (-aw.ea, -aw.eb)


class TestReverse:
    @given(word_st, word_st)
    def test_antihomomorphism(self, u, v):
        assert reverse(u * v) == reverse(v) * reverse(u)

    @given(word_st)
    def test_involution(self, w):
        assert reverse(reverse(w)) == w

    @given(word_st)
    def test_palindromization_yields_palindrome(self, w):
        assert is_palindrome(reverse(w) * w)

    @given(word_st)
    def test_palindromization_exactly_doubles(self, w):
        # the seam letters are equal, never inverse, so nothing cancels
        assert len(reverse(w) * w) == 2 * len(w)

    def test_is_palindrome_examples(self):
        assert is_palindrome(parse("abaaba"[::-1]))  # same reversed
        assert is_palindrome(parse("aBa"))
        assert not is_palindrome(parse("ab"))
        assert is_palindrome(Word())


class TestEvaluate:
    def test_homomorphism_on_reduction(self):
        rng = random.Random(71)
        A, B = random_loxodromic(rng), random_loxodromic(rng)
        for _ in range(20):
            u = Word(tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 8))))
            v = Word(tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 8))))
            t = letter_table(A, B)
            lhs = evaluate(u * v, t)
            rhs = GroupElement._make(evaluate(u, t)) * GroupElement._make(evaluate(v, t))
            assert psl_distance(lhs, rhs) < 1e-9

    def test_letter_images(self):
        rng = random.Random(72)
        A, B = random_loxodromic(rng), random_loxodromic(rng)
        t = letter_table(A, B)
        assert psl_distance(evaluate(parse("a"), t), A) < 1e-12
        assert psl_distance(evaluate(parse("B"), t), B.inverse()) < 1e-12

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=200).map(Word),
    )
    def test_bit_identical_to_element_fold(self, pair, w):
        A, B = _EVALUATION_PAIRS[pair]
        got = evaluate(w, letter_table(A, B))
        assert _bits(got) == _bits(_reference_evaluate(w, A, B))

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=200).map(Word),
    )
    def test_text_folds_as_its_parsed_word(self, pair, w):
        # letter_table keys each matrix by its character too, so a slope
        # text folds through the same product as its Word
        t = letter_table(*_EVALUATION_PAIRS[pair])
        text = str(w)
        assert parse(text) == w
        assert _bits(evaluate(text, t)) == _bits(evaluate(w, t))
        start = evaluate("ab", t)
        assert _bits(evaluate(text, t, start)) == _bits(evaluate(w, t, start))

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=120).map(Word),
        st.lists(letters_st, max_size=120).map(Word),
    )
    def test_fold_continued_from_a_prefix_image(self, pair, u, v):
        # the fold of u * v passes through evaluate(u) when nothing cancels
        assume(len(u * v) == len(u) + len(v))
        A, B = _EVALUATION_PAIRS[pair]
        t = letter_table(A, B)
        continued = evaluate(v, t, evaluate(u, t))
        assert _bits(continued) == _bits(evaluate(u * v, t))


class TestCyclic:
    def test_cyclic_reduce_strips_conjugation(self):
        assert cyclic_reduce(parse("Abba")).letters == parse("bb").letters

    def test_long_conjugation_stripped(self):
        w = Word((1,) * 20000 + (2,) + (-1,) * 20000)
        assert cyclic_reduce(w) == parse("b")

    @given(_cancelling_raw_st)
    def test_cyclic_reduce_matches_reference(self, raw):
        w = Word(raw)
        assert cyclic_reduce(w) == Word(_reference_cyclic_reduce(w.letters))

    @given(word_st, word_st)
    def test_conjugates_are_cyclically_equal(self, w, u):
        assert cyclically_equal(u * w * u.inverse(), w)

    @given(_cancelling_raw_st.map(Word), _cancelling_raw_st.map(Word))
    def test_cyclically_equal_matches_rotation_search(self, u, v):
        cu = _reference_cyclic_reduce(u.letters)
        cv = _reference_cyclic_reduce(v.letters)
        rotations = {cu[i:] + cu[:i] for i in range(max(1, len(cu)))}
        assert cyclically_equal(u, v) == (cv in rotations)
        assert cyclically_equal(u, u * v * v.inverse())

    def test_rotation_detected(self):
        assert cyclically_equal(parse("aab"), parse("aba"))
        assert not cyclically_equal(parse("aab"), parse("abb"))


class TestNielsen:
    def test_standard_basis_generates(self):
        res = nielsen_reduce_pair(parse("a"), parse("b"))
        assert res.generates

    def test_known_associates_generate(self):
        for u, v in (("a", "ab"), ("ab", "b"), ("aba", "ab"), ("ab", "abb")):
            assert nielsen_reduce_pair(parse(u), parse(v)).generates

    def test_non_generating_pairs(self):
        for u, v in (("a", "a"), ("aa", "b"), ("ab", "ba"), ("abAB", "a")):
            assert not nielsen_reduce_pair(parse(u), parse(v)).generates

    def test_result_words_returned(self):
        res = nielsen_reduce_pair(parse("aba"), parse("ab"))
        assert {tuple(res.u.letters), tuple(res.v.letters)} <= {
            (1,),
            (-1,),
            (2,),
            (-2,),
        }


class TestPrimitivity:
    def test_primitive_examples(self):
        for text in ("a", "B", "ab", "aab", "aaB", "abaab"):
            assert is_primitive(parse(text))

    def test_non_primitive_examples(self):
        for text in ("", "aa", "abab", "abAB", "aabb"):
            assert not is_primitive(parse(text))

    def test_primitivity_is_conjugation_invariant(self):
        rng = random.Random(9)
        for _ in range(10):
            u = Word(tuple(rng.choice(LETTERS) for _ in range(4)))
            w = parse("aab")
            assert is_primitive(u * w * u.inverse())


class TestEllipticPowerFactorization:
    def test_known_factorization(self):
        p1, p2 = parse("aba"), parse("b")
        fac = elliptic_power_factorization(p1, p2, 2)
        assert is_palindrome(fac.left) and is_palindrome(fac.right)
        assert fac.left * fac.right == (p1 * p2) ** 2

    def test_random_palindromes(self):
        rng = random.Random(90)
        for _ in range(30):
            p1, p2 = random_palindrome(rng, 2), random_palindrome(rng, 2)
            n = rng.randint(1, 5)
            fac = elliptic_power_factorization(p1, p2, n)
            assert is_palindrome(fac.left) and is_palindrome(fac.right)
            assert fac.left * fac.right == (p1 * p2) ** n

    def test_rejects_non_palindrome(self):
        with pytest.raises(NotPalindrome):
            elliptic_power_factorization(parse("ab"), parse("b"), 2)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            elliptic_power_factorization(parse("a"), parse("b"), 0)


class TestReducedWords:
    def test_counts_by_length(self):
        ws = list(reduced_words(3))
        by_len = {}
        for w in ws:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {1: 4, 2: 12, 3: 36}

    def test_all_reduced_and_unique(self):
        ws = list(reduced_words(3))
        assert len(set(w.letters for w in ws)) == len(ws)
        assert all(
            all(x + y != 0 for x, y in zip(w.letters, w.letters[1:])) for w in ws
        )

    def test_deterministic_order(self):
        assert [str(w) for w in reduced_words(1)] == ["a", "A", "b", "B"]
