"""Words in the free group on two letters.

Letters are small integers: +1 and -1 for the first generator and its
inverse, +2 and -2 for the second. Words are always stored freely reduced.
Text form uses lowercase for a generator and uppercase for its inverse,
e.g. "abA" = a b a^-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, neg
from typing import Iterable, Iterator, NamedTuple

from .errors import NotPalindrome, SchemeViolation
from .sl2c import IDENTITY, Entries, GroupElement, product

LETTERS = (1, -1, 2, -2)
_VALID_LETTERS = frozenset(LETTERS)


def _reduce_letters(raw: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in raw:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _strip_inverse_ends(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Drop the matching inverse letter pairs from the two ends, in one slice."""
    n = len(letters)
    k = 0
    while n - 2 * k >= 2 and letters[k] == -letters[n - 1 - k]:
        k += 1
    return letters[k:n - k]


# display character of each letter, and the letter of each character
_CHARS = {1: "a", -1: "A", 2: "b", -2: "B"}
_LETTER_OF = {ch: x for x, ch in _CHARS.items()}


@dataclass(frozen=True)
class Word:
    """Freely reduced word; construction reduces its input.

    Products, reversals and inverses of Words are built by _from_reduced,
    since their letters are already valid and reduced away from the
    junction of a product.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        try:
            valid = _VALID_LETTERS.issuperset(letters)
        except TypeError:  # an unhashable letter
            valid = False
        if not valid:
            for x in letters:
                if x not in LETTERS:
                    raise ValueError(f"invalid letter {x!r}")
        # reduced forms are unique, so a sequence with no adjacent inverse
        # pair is already the stored form
        if 0 in map(add, letters, letters[1:]):
            letters = _reduce_letters(letters)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _from_reduced(cls, letters: tuple[int, ...]) -> "Word":
        """A Word holding letters as given: a tuple of valid letters with no
        adjacent inverse pair. Nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        left, right = self.letters, other.letters
        # both factors are reduced, so letters cancel only at the junction
        n, k, m = len(left), 0, len(right)
        stop = n if n < m else m
        while k < stop and left[n - 1 - k] == -right[k]:
            k += 1
        return Word._from_reduced(left[:n - k] + right[k:])

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def inverse(self) -> "Word":
        return Word._from_reduced(tuple(map(neg, reversed(self.letters))))

    def __str__(self) -> str:
        return "".join(map(_CHARS.__getitem__, self.letters))

    def __repr__(self) -> str:
        return word_repr(self)


def word_repr(w: Word | str) -> str:
    """A Word, or the text of one, as messages show it: Word(abA), and
    Word(identity) for the empty word."""
    return f"Word({w or 'identity'})"


def parse(text: str) -> Word:
    """Parse text like "abA" into a Word; case selects generator vs inverse."""
    letters = []
    for ch in text:
        x = _LETTER_OF.get(ch)
        if x is None:
            raise ValueError(f"unknown letter {ch!r}, expected one of a, A, b, B")
        letters.append(x)
    return Word(tuple(letters))


def reverse(w: Word) -> Word:
    """The word read backwards (letter exponents kept, order flipped)."""
    return Word._from_reduced(w.letters[::-1])


def palindromic_doubles(u: Word) -> tuple[Word, Word]:
    """The palindromes u reverse(u) and reverse(u) u, by concatenation.

    Each junction pairs a letter with itself, which never cancels, so both
    are reduced as written and no product is formed.
    """
    letters = u.letters
    rev = letters[::-1]
    return Word._from_reduced(letters + rev), Word._from_reduced(rev + letters)


def is_palindrome(w: Word) -> bool:
    """True iff w reads the same forwards and backwards, letterwise."""
    return w.letters == w.letters[::-1]


class AbelianImage(NamedTuple):
    ea: int
    eb: int


def abelianize(w: Word) -> AbelianImage:
    """Exponent sums of the two generators."""
    ea = sum(1 if x == 1 else -1 for x in w.letters if abs(x) == 1)
    eb = sum(1 if x == 2 else -1 for x in w.letters if abs(x) == 2)
    return AbelianImage(ea, eb)


LetterTable = dict[int | str, Entries]


def letter_table(A: GroupElement, B: GroupElement) -> LetterTable:
    """Entries of each letter's matrix under a -> A, b -> B, as plain
    tuples; an inverse letter takes the adjugate. Each matrix is keyed by
    its letter and by its display character, so a Word and its text
    evaluate alike."""
    a, b = A.entries(), B.entries()
    inv_a, inv_b = A.inverse().entries(), B.inverse().entries()
    return {1: a, -1: inv_a, 2: b, -2: inv_b, "a": a, "A": inv_a, "b": b, "B": inv_b}


def evaluate(
    w: Word | str, letters: LetterTable, start: Entries = IDENTITY
) -> Entries:
    """Entries (a, b, c, d) of the homomorphic image of w, a Word or a
    text such as "abA", under the letter_table letters, multiplied onto
    start (entries or a GroupElement; the identity when omitted).

    A left-to-right fold from start, never renormalized: sl2c.product
    multiplies the running product by the next letter's matrix with the
    formula GroupElement.__mul__ runs, and no matrix object is built, the
    result included (GroupElement._make wraps it where one is wanted). The
    fold of x * y passes through evaluate(x) after len(x) letters, so when
    x * y does not cancel (two slope texts never do, having no inverse
    letters), evaluate(y, t, evaluate(x, t)) is evaluate(x * y, t) bit for
    bit.
    """
    return product(start, map(letters.__getitem__, w))


def cyclic_reduce(w: Word) -> Word:
    """Strip matching inverse letters from the two ends until none remain."""
    return Word._from_reduced(_strip_inverse_ends(w.letters))


def cyclically_equal(u: Word, v: Word) -> bool:
    """True iff the cyclic reductions are rotations of one another."""
    cu, cv = str(cyclic_reduce(u)), str(cyclic_reduce(v))
    # substring search on the texts keeps this linear in the word length
    return len(cu) == len(cv) and cv in cu + cu


class NielsenResult(NamedTuple):
    u: Word
    v: Word
    generates: bool


# pair moves tried in this fixed order; first strict length drop wins
_PAIR_MOVES = (
    lambda u, v: (u * v, v),
    lambda u, v: (u * v.inverse(), v),
    lambda u, v: (v * u, v),
    lambda u, v: (v.inverse() * u, v),
    lambda u, v: (u, v * u),
    lambda u, v: (u, v * u.inverse()),
    lambda u, v: (u, u * v),
    lambda u, v: (u, u.inverse() * v),
)


def nielsen_reduce_pair(u: Word, v: Word) -> NielsenResult:
    """Greedy Nielsen reduction of a pair of words.

    Repeatedly multiplies one word by the other (or an inverse) whenever the
    total length strictly drops, trying moves in a fixed order for
    determinism. generates is true iff the reduced pair is the standard
    basis up to inversion: two length-one words using both letters.
    """
    while True:
        total = len(u) + len(v)
        for move in _PAIR_MOVES:
            nu, nv = move(u, v)
            if len(nu) + len(nv) < total:
                u, v = nu, nv
                break
        else:
            break
    generates = (
        len(u) == 1
        and len(v) == 1
        and {abs(u.letters[0]), abs(v.letters[0])} == {1, 2}
    )
    return NielsenResult(u, v, generates)


def _whitehead_images(m: int, x: int) -> tuple[dict[int, tuple[int, ...]], ...]:
    """The three type-2 Whitehead automorphisms with multiplier m acting on
    the other generator x; each returned as a letter substitution table."""

    def table(x_image: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        inv = tuple(-t for t in reversed(x_image))
        return {m: (m,), -m: (-m,), x: x_image, -x: inv}

    return (
        table((x, m)),        # x -> x m
        table((-m, x)),       # x -> m^-1 x
        table((-m, x, m)),    # x -> m^-1 x m
    )


def _cyclic_length_after(letters: tuple[int, ...], sub: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    out: list[int] = []
    for t in letters:
        out.extend(sub[t])
    return _strip_inverse_ends(_reduce_letters(out))


def is_primitive(w: Word) -> bool:
    """Whitehead test for primitivity in the rank-2 free group.

    Cyclically reduce, then greedily apply any of the twelve type-2
    Whitehead automorphisms that strictly shortens the cyclic word. The
    word is primitive iff this terminates at length one.
    """
    current = cyclic_reduce(w).letters
    if not current:
        return False
    while len(current) > 1:
        for m in LETTERS:
            x = 2 if abs(m) == 1 else 1
            candidates = _whitehead_images(m, x)
            hit = None
            for sub in candidates:
                image = _cyclic_length_after(current, sub)
                if len(image) < len(current):
                    hit = image
                    break
            if hit is not None:
                current = hit
                break
        else:
            return False
    return True


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
    if (left * p2).letters != power.letters:
        raise SchemeViolation("factor product does not reduce to the power")
    return EllipticPowerFactorization(left, p2, power, is_palindrome(power))


def reduced_words(max_len: int) -> Iterator[Word]:
    """All nonempty reduced words up to max_len, ordered by length then by
    letter sequence in the fixed order a, a^-1, b, b^-1."""
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        next_frontier = []
        for stem in frontier:
            for x in LETTERS:
                if stem and stem[-1] == -x:
                    continue
                grown = stem + (x,)
                next_frontier.append(grown)
                yield Word(grown)
        frontier = next_frontier
