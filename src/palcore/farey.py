"""Enumeration of primitive conjugacy classes by non-negative rationals.

Reduced slopes p/q (including 1/0) index primitive classes of the rank-2
free group through the Stern-Brocot tree. Each slope carries a preferred
representative word e_{p/q} with q letters a and p letters b. The roots
are e_{0/1} = a and e_{1/0} = b; every other slope with Farey parents
lo < hi is built from its parents' words (Gilman-Keen, "Enumerating
palindromes and primitives in rank two free groups", J. Algebra 2011):

- pq odd: e_{p/q} = e_lo e_hi, whose factors are both palindromes, so
  this is the palindromic factorization of e_{p/q};
- pq even: e_{p/q} = e_hi e_lo, a palindrome. It is the only palindromic
  rotation of the Christoffel word: a second one would make the
  odd-length primitive word a proper power.

Every constructed word is checked at runtime to have the shape its parity
promises and to be cyclically equivalent to the Christoffel word of its
slope; a failure raises SchemeViolation rather than silently repairing the
scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidRational, SchemeViolation
from .words import Word, _is_rotation_of, is_palindrome

Slope = tuple[int, int]


def validate_slope(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise InvalidRational(f"slope entries must be integers, got {p!r}/{q!r}")
    if p < 0 or q < 0:
        raise InvalidRational(f"negative slope {p}/{q} is out of range")
    if p == 0 and q == 0:
        raise InvalidRational("0/0 is not a slope")
    if math.gcd(p, q) != 1:
        raise InvalidRational(f"{p}/{q} is not in lowest terms")


def _descend(p: int, q: int) -> tuple[Slope, Slope, list[Slope]]:
    """Stern-Brocot descent to p/q: returns (lower parent, upper parent,
    path), where path lists the mediants passed on the way from the roots,
    shallowest first; the tree depth of p/q is len(path) + 1."""
    lo, hi = (0, 1), (1, 0)
    path: list[Slope] = []
    while True:
        mp, mq = lo[0] + hi[0], lo[1] + hi[1]
        if (mp, mq) == (p, q):
            return lo, hi, path
        path.append((mp, mq))
        if p * mq > mp * q:
            lo = (mp, mq)
        else:
            hi = (mp, mq)


def christoffel(p: int, q: int) -> Word:
    """Lower Christoffel word of slope p/q: q letters a and p letters b.

    Letter k (1-based) is b exactly when floor(kp/n) increases at k, with
    n = p + q. Only the rarer letter is placed, in min(p, q) steps: for
    p <= q the j-th b sits at k = ceil(jn/p), and for p > q the j-th a sits
    at k = floor((j-1)n/q) + 1, where ceil(kq/n) increases.
    """
    validate_slope(p, q)
    return Word(tuple(_christoffel_letters(p, q)))


def _christoffel_letters(p: int, q: int) -> bytes:
    """The letters of christoffel(p, q), one byte each (1 for a, 2 for b),
    which is also their words._to_bytes encoding."""
    n = p + q
    if p <= q:
        letters = bytearray(b"\x01") * n
        for j in range(1, p + 1):
            letters[-(-j * n // p) - 1] = 2
    else:
        letters = bytearray(b"\x02") * n
        for j in range(q):
            letters[j * n // q] = 1
    return bytes(letters)


@dataclass(frozen=True)
class FareyNode:
    """A slope with its representative word and bookkeeping.

    depth counts mediant steps from the roots (0/1 and 1/0 are 0, 1/1 is
    1), and parents are the two Farey parents in ascending order, None for
    a root. factorization is present exactly when pq is odd; it is the pair
    of palindromic parent words whose product is the representative.
    """

    p: int
    q: int
    depth: int
    parents: tuple[Slope, Slope] | None
    word: Word
    factorization: tuple[Word, Word] | None

    @property
    def slope(self) -> Slope:
        return (self.p, self.q)


@lru_cache(maxsize=None)
def primitive_word(p: int, q: int) -> FareyNode:
    """Representative word e_{p/q}, with palindromic factorization when
    pq is odd. See the module docstring for the construction."""
    validate_slope(p, q)
    if (p, q) == (0, 1) or (p, q) == (1, 0):
        return FareyNode(p, q, 0, None, christoffel(p, q), None)
    lo, hi, path = _descend(p, q)
    # shallowest first, so that every call finds its parents memoized and
    # the recursion stays one level deep however deep p/q lies
    for slope in path:
        primitive_word(*slope)
    left = primitive_word(*lo).word
    right = primitive_word(*hi).word
    if (p * q) % 2 == 0:
        word = right * left
        if not is_palindrome(word):
            raise SchemeViolation(f"{p}/{q}: parent product {word} is not a palindrome")
        factorization = None
    else:
        if not (is_palindrome(left) and is_palindrome(right)):
            raise SchemeViolation(f"{p}/{q}: parent words are not both palindromic")
        word = left * right
        factorization = (left, right)
    # cyclically_equal(word, christoffel(p, q)), with the Christoffel word
    # built directly in its byte encoding
    if not _is_rotation_of(word, _christoffel_letters(p, q)):
        raise SchemeViolation(
            f"{p}/{q}: representative {word} is not conjugate to Christoffel "
            f"{christoffel(p, q)}"
        )
    return FareyNode(p, q, len(path) + 1, (lo, hi), word, factorization)


def are_associates(s1: Slope, s2: Slope) -> bool:
    """True iff the primitive classes are associates: |ps - rq| = 1."""
    p, q = s1
    r, s = s2
    validate_slope(p, q)
    validate_slope(r, s)
    return abs(p * s - r * q) == 1


def enumerate_farey(depth: int) -> list[FareyNode]:
    """All slopes within `depth` mediant steps of the roots, as populated
    nodes in deterministic (q, p) order. Depth 0 is just 0/1 and 1/0."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    slopes: list[Slope] = [(0, 1), (1, 0)]

    def gather(lo: Slope, hi: Slope, level: int) -> None:
        if level > depth:
            return
        med = (lo[0] + hi[0], lo[1] + hi[1])
        slopes.append(med)
        gather(lo, med, level + 1)
        gather(med, hi, level + 1)

    gather((0, 1), (1, 0), 1)
    nodes = [primitive_word(p, q) for p, q in slopes]
    nodes.sort(key=lambda n: (n.q, n.p))
    return nodes

