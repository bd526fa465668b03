"""Word layer: free reduction, reversal, palindromes, Nielsen moves,
primitivity."""

import cmath
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from palcore.errors import NotPalindrome
from palcore.representation import build
from palcore.sl2c import IDENTITY, GroupElement
from palcore.words import (
    LETTERS,
    Word,
    elliptic_power_factorization,
    evaluate,
    is_palindrome,
    letter_table,
    reduced_words,
    reverse,
)

from .conftest import loxodromic_between, random_loxodromic, random_palindrome
from .oracles import (
    AbelianImage,
    abelianize,
    cyclic_reduce,
    cyclically_equal,
    is_primitive,
    nielsen_reduce_pair,
    psl_distance,
)
from .outcome_digest import GENERATORS

letters_st = st.sampled_from(LETTERS)
raw_st = st.lists(letters_st, max_size=24).map("".join)
word_st = raw_st.map(Word)


# Reference implementations: the letter-by-letter forms the word layer had
# when a word was a tuple of int letters (+1 and -1 for a and its inverse,
# +2 and -2 for b). They read text through _INT_LETTER, and the tests below
# demand equal results, bit for bit for the fold, from both.

_INT_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}


def _ints(text):
    """The int letters of a text over LETTERS."""
    return tuple(map(_INT_LETTER.__getitem__, text))


def _reference_evaluate(w, A, B):
    table = {1: A, -1: A.inverse(), 2: B, -2: B.inverse()}
    out = IDENTITY
    for x in _ints(w):
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


def _reference_str(letters):
    chars = []
    for x in letters:
        lab = "ab"[abs(x) - 1]
        chars.append(lab if x > 0 else lab.upper())
    return "".join(chars)


def _reference_cyclic_reduce(letters):
    letters = list(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return tuple(letters)


def _reference_is_primitive(letters):
    """The Whitehead test on int letters: the three substitutions of each
    multiplier m in the order 1, -1, 2, -2, as letter tables."""
    current = _reference_cyclic_reduce(letters)
    if not current:
        return False
    while len(current) > 1:
        for m in (1, -1, 2, -2):
            x = 2 if abs(m) == 1 else 1
            hit = None
            for image in ((x, m), (-m, x), (-m, x, m)):
                sub = {m: (m,), -m: (-m,), x: image, -x: tuple(-t for t in reversed(image))}
                out = _reference_cyclic_reduce(
                    _reference_letters([y for t in current for y in sub[t]])
                )
                if len(out) < len(current):
                    hit = out
                    break
            if hit is not None:
                current = hit
                break
        else:
            return False
    return True


def _bits(g):
    """Every entry of a matrix (its entry tuple or a GroupElement) as the
    hex of its real and imaginary parts: equal bits, signed zeros
    included."""
    return tuple((complex(z).real.hex(), complex(z).imag.hex()) for z in g)


def _parts(m):
    """Every entry of a matrix as the repr of its real and imaginary parts:
    inf and NaN parts compare as text."""
    return tuple((repr(complex(z).real), repr(complex(z).imag)) for z in m)


# letter tables: those of the control pairs, and random complex entries large
# enough that a few letters overflow
_CONTROL_TABLES = [build(A, B).letters for A, B in GENERATORS.values()]
_split_entry_st = st.builds(complex, st.floats(-1e100, 1e100), st.floats(-1e100, 1e100))
_split_table_st = st.sampled_from(_CONTROL_TABLES) | st.tuples(
    *[st.tuples(*[_split_entry_st] * 4)] * 4
).map(lambda matrices: dict(zip(LETTERS, matrices)))
# positive words: short ones, and powers of short ones up to thousands of
# letters, which overflow the control pairs' images too
_positive_word_st = st.text(alphabet="ab", max_size=40) | st.builds(
    str.__mul__, st.text(alphabet="ab", min_size=1, max_size=8), st.integers(1, 600)
)

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

# raw texts built from letters and inverse pairs, so that cancellation
# (including cascades) is common
_cancelling_raw_st = st.lists(
    st.one_of(
        letters_st,
        letters_st.map(lambda x: x + x.swapcase()),
        letters_st.map(lambda x: x.swapcase() + x + x),
    ),
    max_size=40,
).map("".join)
_invalid_letter_st = st.sampled_from(("c", "x", "0", "1", " ", "|", "\n", "é"))


class TestReduction:
    def test_adjacent_inverses_cancel(self):
        assert Word("aAb") == "b"
        assert Word("abBA") == ""

    def test_cascading_cancellation(self):
        assert Word("abBAab") == "ab"

    @given(raw_st)
    def test_reduction_is_idempotent(self, raw):
        w = Word(raw)
        assert Word(str(w)) == w

    @given(raw_st)
    def test_no_adjacent_inverses_remain(self, raw):
        letters = _ints(Word(raw))
        assert all(x + y != 0 for x, y in zip(letters, letters[1:]))

    @given(word_st)
    def test_word_times_inverse_is_identity(self, w):
        assert not (w * w.inverse())
        assert not (w.inverse() * w)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            Word("c")

    @given(_cancelling_raw_st)
    def test_matches_reference_reduction(self, raw):
        w = Word(raw)
        assert w == _reference_str(_reference_letters(_ints(raw)))
        assert type(str(w)) is str

    @given(_cancelling_raw_st, st.data())
    def test_invalid_letter_message_matches_reference(self, raw, data):
        bad = data.draw(_invalid_letter_st)
        at = data.draw(st.integers(0, len(raw)))
        spoiled = raw[:at] + bad + raw[at:]
        with pytest.raises(ValueError) as expected:
            _reference_letters([_INT_LETTER.get(ch, ch) for ch in spoiled])
        with pytest.raises(ValueError) as got:
            Word(spoiled)
        # both name the one letter outside the alphabet
        named = str(expected.value).removeprefix("invalid letter ")
        assert str(got.value) == f"unknown letter {named}, expected one of a, A, b, B"

    def test_first_invalid_letter_is_named(self):
        with pytest.raises(ValueError, match=r"unknown letter '0', expected"):
            Word("a0b3")
        with pytest.raises(ValueError, match=r"unknown letter '\|', expected"):
            Word("aA|b|")


class TestOperatorContract:
    """A Word is a str for everything but the group operations."""

    def test_word_is_its_text(self):
        w = Word("abA")
        assert w == "abA" and hash(w) == hash("abA")
        assert type(str(w)) is str and str(w) == "abA"
        assert type(w[:2]) is str and list(w) == ["a", "b", "A"]
        assert len(w) == 3 and not Word()

    def test_plus_concatenates_without_reducing(self):
        got = Word("ab") + Word("BA")
        assert type(got) is str and got == "abBA"
        assert Word("ab") * Word("BA") == ""

    @pytest.mark.parametrize("other", [3, 0, "ab", ("a",)])
    def test_product_takes_only_words(self, other):
        w = Word("ab")
        with pytest.raises(TypeError):
            w * other
        with pytest.raises(TypeError):
            other * w

    def test_power(self):
        w = Word("abA")
        assert w ** 3 == "abbbA"
        assert w ** -2 == "aBBA"
        assert type(w ** 2) is Word

    @pytest.mark.parametrize("raw", [(1, 2), [1], None, b"ab"])
    def test_only_text_builds_a_word(self, raw):
        with pytest.raises(ValueError):
            Word(raw)


@st.composite
def _junction_pair_st(draw):
    """Reduced words u, v where v opens with the inverse of a suffix of u, so
    that u * v cancels across the junction, up to the whole of both."""
    u = Word(draw(_cancelling_raw_st))
    k = draw(st.integers(0, len(u)))
    tail = draw(_cancelling_raw_st)
    v = Word(Word(u[len(u) - k:]).inverse() + tail)
    return u, v


class TestJunction:
    """Products, reversals and inverses skip validation and reduce only at
    the junction; they must equal the validated Word(text) construction."""

    @staticmethod
    def _same(got, want):
        assert got == want
        assert type(got) is Word

    @given(_junction_pair_st())
    def test_product_matches_validated_construction(self, pair):
        u, v = pair
        self._same(u * v, Word(u + v))

    @given(word_st)
    def test_reverse_and_inverse_match_validated_construction(self, w):
        self._same(reverse(w), Word(w[::-1]))
        self._same(w.inverse(), Word(_reference_str(-x for x in reversed(_ints(w)))))

    @pytest.mark.parametrize("k", [1, 2, 50, 5000])
    def test_long_cancellation(self, k):
        # a^k b A^k . a^k B A^k: A^k a^k, then b B, then a^k A^k cancel
        a, b = Word("a"), Word("b")
        u = a ** k * b * a ** -k
        v = a ** k * b.inverse() * a ** -k
        self._same(u * v, Word(u + v))
        assert not u * v
        w = a ** k * b
        self._same(u * w, Word(u + w))
        assert str(u * w) == "a" * k + "bb"


class TestParseAndFormat:
    def test_round_trip(self):
        for text in ("abA", "aaBAb", "", "BBBa"):
            assert str(Word(text)) == text

    def test_case_encodes_inversion(self):
        assert Word("aA") == Word("Aa") == ""
        assert _ints(Word("Ab")) == (-1, 2)
        assert Word("Ab").inverse() == "Ba"

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="unknown letter 'x', expected one of a, A, b, B"):
            Word("axb")

    @given(_cancelling_raw_st)
    def test_str_matches_letter_loop(self, raw):
        w = Word(raw)
        assert str(w) == _reference_str(_ints(w))


class TestAlgebra:
    def test_pow(self):
        w = Word("ab")
        assert w**3 == w * w * w
        assert w**0 == Word()
        assert w**-2 == (w.inverse()) * (w.inverse())

    @given(word_st, st.integers(-6, 6))
    def test_pow_matches_repeated_product(self, w, n):
        base = w if n >= 0 else w.inverse()
        out = Word()
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
        assert is_palindrome(Word("abaaba"[::-1]))  # same reversed
        assert is_palindrome(Word("aBa"))
        assert not is_palindrome(Word("ab"))
        assert is_palindrome(Word())


class TestEvaluate:
    def test_homomorphism_on_reduction(self):
        rng = random.Random(71)
        A, B = random_loxodromic(rng), random_loxodromic(rng)
        for _ in range(20):
            u = Word("".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 8))))
            v = Word("".join(rng.choice(LETTERS) for _ in range(rng.randint(0, 8))))
            t = letter_table(A, B)
            lhs = evaluate(u * v, t)
            rhs = GroupElement._make(evaluate(u, t)) * GroupElement._make(evaluate(v, t))
            assert psl_distance(lhs, rhs) < 1e-9

    def test_letter_images(self):
        rng = random.Random(72)
        A, B = random_loxodromic(rng), random_loxodromic(rng)
        t = letter_table(A, B)
        assert sorted(t) == sorted(LETTERS)
        assert psl_distance(evaluate(Word("a"), t), A) < 1e-12
        assert psl_distance(evaluate(Word("B"), t), B.inverse()) < 1e-12

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=200).map("".join).map(Word),
    )
    def test_bit_identical_to_element_fold(self, pair, w):
        A, B = _EVALUATION_PAIRS[pair]
        got = evaluate(w, letter_table(A, B))
        assert _bits(got) == _bits(_reference_evaluate(w, A, B))

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=200).map("".join).map(Word),
    )
    def test_text_folds_as_its_parsed_word(self, pair, w):
        # evaluate folds any text over LETTERS, so a plain str, such as a
        # slice of a Word, folds as the Word of that text
        t = letter_table(*_EVALUATION_PAIRS[pair])
        text = str(w)
        assert Word(text) == w
        assert _bits(evaluate(text, t)) == _bits(evaluate(w, t))
        start = evaluate("ab", t)
        assert _bits(evaluate(text, t, start)) == _bits(evaluate(w, t, start))

    @settings(max_examples=60)
    @given(
        st.sampled_from(sorted(_EVALUATION_PAIRS)),
        st.lists(letters_st, max_size=120).map("".join).map(Word),
        st.lists(letters_st, max_size=120).map("".join).map(Word),
    )
    def test_fold_continued_from_a_prefix_image(self, pair, u, v):
        # the fold of u * v passes through evaluate(u) when nothing cancels
        assume(len(u * v) == len(u) + len(v))
        A, B = _EVALUATION_PAIRS[pair]
        t = letter_table(A, B)
        continued = evaluate(v, t, evaluate(u, t))
        assert _bits(continued) == _bits(evaluate(u * v, t))

    @settings(max_examples=200)
    @given(_split_table_st, _positive_word_st, st.data())
    def test_fold_split_anywhere(self, table, w, data):
        # the spectrum walk folds a slope word in segments, each continued
        # from the image of the prefix before it: any split is the fold of
        # the whole word, overflowed inf and NaN parts included
        k = data.draw(st.integers(0, len(w)))
        assert _parts(evaluate(w[k:], table, evaluate(w[:k], table))) == _parts(
            evaluate(w, table)
        )


class TestCyclic:
    def test_cyclic_reduce_strips_conjugation(self):
        assert cyclic_reduce(Word("Abba")) == Word("bb")

    def test_long_conjugation_stripped(self):
        w = Word("a" * 20000 + "b" + "A" * 20000)
        assert cyclic_reduce(w) == Word("b")

    @given(_cancelling_raw_st)
    def test_cyclic_reduce_matches_reference(self, raw):
        w = Word(raw)
        assert cyclic_reduce(w) == _reference_str(_reference_cyclic_reduce(_ints(w)))

    @given(word_st, word_st)
    def test_conjugates_are_cyclically_equal(self, w, u):
        assert cyclically_equal(u * w * u.inverse(), w)

    @given(_cancelling_raw_st.map(Word), _cancelling_raw_st.map(Word))
    def test_cyclically_equal_matches_rotation_search(self, u, v):
        cu = _reference_cyclic_reduce(_ints(u))
        cv = _reference_cyclic_reduce(_ints(v))
        rotations = {cu[i:] + cu[:i] for i in range(max(1, len(cu)))}
        assert cyclically_equal(u, v) == (cv in rotations)
        assert cyclically_equal(u, u * v * v.inverse())

    def test_rotation_detected(self):
        assert cyclically_equal(Word("aab"), Word("aba"))
        assert not cyclically_equal(Word("aab"), Word("abb"))


class TestNielsen:
    def test_standard_basis_generates(self):
        res = nielsen_reduce_pair(Word("a"), Word("b"))
        assert res.generates

    def test_known_associates_generate(self):
        for u, v in (("a", "ab"), ("ab", "b"), ("aba", "ab"), ("ab", "abb")):
            assert nielsen_reduce_pair(Word(u), Word(v)).generates

    def test_non_generating_pairs(self):
        for u, v in (("a", "a"), ("aa", "b"), ("ab", "ba"), ("abAB", "a")):
            assert not nielsen_reduce_pair(Word(u), Word(v)).generates

    def test_result_words_returned(self):
        res = nielsen_reduce_pair(Word("aba"), Word("ab"))
        assert {_ints(res.u), _ints(res.v)} <= {(1,), (-1,), (2,), (-2,)}


class TestPrimitivity:
    def test_primitive_examples(self):
        for text in ("a", "B", "ab", "aab", "aaB", "abaab"):
            assert is_primitive(Word(text))

    def test_non_primitive_examples(self):
        for text in ("", "aa", "abab", "abAB", "aabb"):
            assert not is_primitive(Word(text))

    def test_primitivity_is_conjugation_invariant(self):
        rng = random.Random(9)
        for _ in range(10):
            u = Word("".join(rng.choice(LETTERS) for _ in range(4)))
            w = Word("aab")
            assert is_primitive(u * w * u.inverse())

    def test_matches_int_letter_reference_on_short_words(self):
        words = list(reduced_words(5))
        verdicts = [is_primitive(w) for w in words]
        assert verdicts == [_reference_is_primitive(_ints(w)) for w in words]
        assert 0 < sum(verdicts) < len(words)

    @given(word_st, word_st)
    def test_matches_int_letter_reference(self, u, w):
        for word in (w, u * Word("abaab") * u.inverse()):
            assert is_primitive(word) == _reference_is_primitive(_ints(word))


class TestEllipticPowerFactorization:
    def test_known_factorization(self):
        p1, p2 = Word("aba"), Word("b")
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
            elliptic_power_factorization(Word("ab"), Word("b"), 2)
        with pytest.raises(NotPalindrome, match=r"Word\(ab\)"):
            elliptic_power_factorization(Word("b"), Word("ab"), 2)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            elliptic_power_factorization(Word("a"), Word("b"), 0)


class TestReducedWords:
    def test_counts_by_length(self):
        ws = list(reduced_words(3))
        by_len = {}
        for w in ws:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {1: 4, 2: 12, 3: 36}

    def test_all_reduced_and_unique(self):
        ws = list(reduced_words(3))
        assert len(set(ws)) == len(ws)
        assert all(isinstance(w, Word) for w in ws)
        assert all(
            all(x + y != 0 for x, y in zip(_ints(w), _ints(w)[1:])) for w in ws
        )

    def test_deterministic_order(self):
        # the order of a, a^-1, b, b^-1 that the int letters 1, -1, 2, -2 had
        assert [str(w) for w in reduced_words(1)] == ["a", "A", "b", "B"]
        assert " ".join(reduced_words(2)) == (
            "a A b B aa ab aB AA Ab AB ba bA bb Ba BA BB"
        )
