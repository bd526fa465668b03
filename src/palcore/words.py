"""Words in the free group on two letters.

A word is its text over the alphabet LETTERS = "aAbB": lowercase for a
generator and uppercase for its inverse, e.g. "abA" = a b a^-1. A Word is
that text, always stored freely reduced. Other modules name the generators
a and b, but only this one knows how inverses are written.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import NotPalindrome, SchemeViolation
from .sl2c import IDENTITY, Entries, GroupElement, product

# the letters a, a^-1, b, b^-1, in the order reduced_words and seeded
# draws use
LETTERS = "aAbB"
# str.translate deletes every letter with this table, leaving the others
_DROP_LETTERS = dict.fromkeys(map(ord, LETTERS))
_INVERSE_PAIRS = ("aA", "Aa", "bB", "Bb")


def _reduce(text: str) -> str:
    """Free reduction of text over LETTERS."""
    out: list[str] = []
    for ch in text:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class Word(str):
    """A freely reduced word: its text over LETTERS.

    Word(text) checks the letters and reduces the text; anything but a str,
    such as a tuple of int letters (1, 2), raises ValueError. A Word is a
    str: len, iteration, slicing, == and hash are the text's, so
    Word("ab") == "ab", and str(w), a slice of w and w + text (plain
    concatenation) are plain strs. The group operations are:

    - u * v, the product, reduced at the junction. Both operands must be
      Words: w * 3 and 3 * w raise TypeError, never repeating the text;
    - w ** n, the n-th power, of the inverse when n < 0;
    - w.inverse(), the reversed text with each letter's case swapped.

    Words built from Words (products, inverses, reversals) are made by
    str.__new__, which checks nothing: their text is valid and reduced.
    """

    __slots__ = ()

    def __new__(cls, text: str = "") -> "Word":
        if not isinstance(text, str):
            raise ValueError(f"a Word is built from text, got {text!r}")
        stray = text.translate(_DROP_LETTERS)
        if stray:
            raise ValueError(f"unknown letter {stray[0]!r}, expected one of a, A, b, B")
        # reduced forms are unique, so text with no adjacent inverse pair is
        # already the stored form
        if any(pair in text for pair in _INVERSE_PAIRS):
            text = _reduce(text)
        return str.__new__(cls, text)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            raise TypeError(f"a Word multiplies a Word, not {type(other).__name__}")
        # both factors are reduced, so letters cancel only at the junction
        n, k, m = len(self), 0, len(other)
        stop = n if n < m else m
        while k < stop and self[n - 1 - k] == other[k].swapcase():
            k += 1
        return str.__new__(Word, self[:n - k] + other[k:])

    def __rmul__(self, other) -> "Word":
        # str's own __rmul__ would repeat the text
        raise TypeError(f"a Word multiplies a Word, not {type(other).__name__}")

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(str.__mul__(self, n))

    def inverse(self) -> "Word":
        return str.__new__(Word, self[::-1].swapcase())

    def __repr__(self) -> str:
        """The word as messages show it: Word(abA), and Word(identity) for
        the empty word."""
        return f"Word({self or 'identity'})"


def reverse(w: Word) -> Word:
    """The word read backwards (letter exponents kept, order flipped)."""
    return str.__new__(Word, w[::-1])


def is_palindrome(w: Word) -> bool:
    """True iff w reads the same forwards and backwards, letterwise."""
    return w == w[::-1]


LetterTable = dict[str, Entries]


def letter_table(A: GroupElement, B: GroupElement) -> LetterTable:
    """Entries of each letter's matrix under a -> A, b -> B, as plain
    tuples keyed by the letter; an inverse letter takes the adjugate."""
    return {
        "a": A.entries(),
        "A": A.inverse().entries(),
        "b": B.entries(),
        "B": B.inverse().entries(),
    }


def evaluate(w: str, letters: LetterTable, start: Entries = IDENTITY) -> Entries:
    """Entries (a, b, c, d) of the homomorphic image of w, a Word or a
    slice of one, under the letter_table letters, multiplied onto start
    (entries or a GroupElement; the identity when omitted).

    A left-to-right fold from start, never renormalized: sl2c.product
    multiplies the running product by the next letter's matrix with the
    formula GroupElement.__mul__ runs, and no matrix object is built, the
    result included (GroupElement._make wraps it where one is wanted). The
    fold of x * y passes through evaluate(x) after len(x) letters, so when
    x * y does not cancel (two slope words never do, having no inverse
    letters), evaluate(y, t, evaluate(x, t)) is evaluate(x * y, t) bit for
    bit.
    """
    return product(start, map(letters.__getitem__, w))


class EllipticPowerFactorization(NamedTuple):
    left: Word
    right: Word
    power: Word
    power_is_palindrome: bool


def elliptic_power_factorization(
    p1: Word, p2: Word, n: int
) -> EllipticPowerFactorization:
    """Palindromic factorization of (P1 P2)^n as ((P1 P2)^(n-1) P1) . P2.

    Both factors are palindromes whenever P1 and P2 are; this is checked at
    runtime along with the product identity. power_is_palindrome reports
    whether (P1 P2)^n is itself a palindrome (it is when P1 P2 is a
    palindrome and n is odd).
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if not is_palindrome(p1):
        raise NotPalindrome(f"{p1!r} is not a palindrome")
    if not is_palindrome(p2):
        raise NotPalindrome(f"{p2!r} is not a palindrome")
    e = p1 * p2
    power = e ** n
    left = (e ** (n - 1)) * p1
    if not is_palindrome(left):
        raise SchemeViolation(f"left factor {left!r} failed the palindrome check")
    if left * p2 != power:
        raise SchemeViolation("factor product does not reduce to the power")
    return EllipticPowerFactorization(left, p2, power, is_palindrome(power))


def reduced_words(max_len: int) -> Iterator[Word]:
    """All nonempty reduced words up to max_len, ordered by length then by
    letter sequence in the fixed order of LETTERS: a, a^-1, b, b^-1."""
    frontier = [""]
    for _ in range(max_len):
        next_frontier = []
        for stem in frontier:
            for x in LETTERS:
                if stem and stem[-1] == x.swapcase():
                    continue
                grown = stem + x
                next_frontier.append(grown)
                yield str.__new__(Word, grown)
        frontier = next_frontier
