"""Enumeration of primitive conjugacy classes by non-negative rationals.

Reduced slopes p/q (including 1/0) index primitive classes of the rank-2
free group through the Stern-Brocot tree. Each slope carries a preferred
representative Word e_{p/q} with q letters a and p letters b. The roots
are e_{0/1} = a and e_{1/0} = b; every other slope with Farey parents
lo < hi is built from its parents' Words by _child
(Gilman-Keen, "Enumerating palindromes and primitives in rank two free
groups", J. Algebra 2011):

- pq odd: e_{p/q} = e_lo e_hi, whose factors are both palindromes, so
  this is the palindromic factorization of e_{p/q};
- pq even: e_{p/q} = e_hi e_lo, a palindrome. It is the only palindromic
  rotation of the Christoffel word: a second one would make the
  odd-length primitive word a proper power.

The walk makes no check per slope: the tests check the palindromes, the
factorizations and the Christoffel conjugacy on every slope to depth 12
and on long slopes. primitive_word checks at runtime that its result is
cyclically equivalent to the Christoffel word of its slope, and raises
SchemeViolation rather than silently repairing the scheme.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .errors import InvalidRational, SchemeViolation
from .words import Word

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


def christoffel(p: int, q: int) -> Word:
    """Lower Christoffel word of slope p/q: q letters a and p letters b.

    Letter k (1-based) is b exactly when floor(kp/n) increases at k, with
    n = p + q. Only the rarer letter is placed, in min(p, q) steps: for
    p <= q the j-th b sits at k = ceil(jn/p), and for p > q the j-th a sits
    at k = floor((j-1)n/q) + 1, where ceil(kq/n) increases.
    """
    validate_slope(p, q)
    n = p + q
    if p <= q:
        letters = bytearray(b"a") * n
        for j in range(1, p + 1):
            letters[-(-j * n // p) - 1] = ord("b")
    else:
        letters = bytearray(b"b") * n
        for j in range(q):
            letters[j * n // q] = ord("a")
    return Word(letters.decode())


class FareyNode(NamedTuple):
    """A slope with its representative word and bookkeeping.

    depth counts mediant steps from the roots (0/1 and 1/0 are 0, 1/1 is
    1), and parents are the two Farey parents in ascending order, None for
    a root. word is the representative; factorization is present exactly
    when pq is odd, as the palindromic parent words whose product is the
    representative.
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


_ROOTS = (
    FareyNode(0, 1, 0, None, Word("a"), None),
    FareyNode(1, 0, 0, None, Word("b"), None),
)


def _child(lo: FareyNode, hi: FareyNode) -> FareyNode:
    """The mediant of the Farey neighbours lo < hi, one level below the
    deeper of them, with its word built from theirs: the palindrome hi lo
    when pq is even, the product lo hi of two palindromes when pq is odd.

    Slope words are positive, so nothing cancels at the junction and the
    word is the plain concatenation, made a Word by str.__new__ as _run
    makes its words. The parents are read by unpacking and the node is
    built by tuple.__new__, the tuple FareyNode(...) builds, without the
    Python frame of the generated __new__: enumerate_farey makes one node
    per slope.
    """
    lp, lq, l_depth, _, l_word, _ = lo
    hp, hq, h_depth, _, h_word, _ = hi
    p, q = lp + hp, lq + hq
    if p * q % 2:
        word, factorization = str.__new__(Word, l_word + h_word), (l_word, h_word)
    else:
        word, factorization = str.__new__(Word, h_word + l_word), None
    depth = 1 + (l_depth if l_depth > h_depth else h_depth)
    return tuple.__new__(
        FareyNode, (p, q, depth, ((lp, lq), (hp, hq)), word, factorization)
    )


def _run(moving: FareyNode, fixed: FareyNode, steps: int, up: bool) -> FareyNode:
    """The bound that `steps` mediant steps of one Stern-Brocot run leave:
    moving + steps * fixed, with `fixed` the other bound throughout and
    `up` when the run raises the lower bound.

    Each step puts the fixed word before or after the moving one (_child:
    hi lo when the mediant's pq is even, lo hi when odd), so only the word
    of the last step is built, as X^before W X^after. The mediants of odd
    steps share the parity of moving + fixed and those of even steps that
    of moving. The node carries what _child reads of a bound, no parents
    and no factorization.
    """
    odd_steps = (steps + 1) // 2 * ((moving.p + fixed.p) * (moving.q + fixed.q) % 2)
    odd_steps += steps // 2 * (moving.p * moving.q % 2)
    even_steps = steps - odd_steps
    before, after = (even_steps, odd_steps) if up else (odd_steps, even_steps)
    x = str(fixed.word)
    # positive words: the concatenation is reduced as written
    word = str.__new__(Word, x * before + moving.word + x * after)
    return FareyNode(
        moving.p + steps * fixed.p,
        moving.q + steps * fixed.q,
        max(moving.depth, fixed.depth) + steps,
        None,
        word,
        None,
    )


def primitive_word(p: int, q: int) -> FareyNode:
    """Representative word e_{p/q}, with palindromic factorization when
    pq is odd. See the module docstring for the construction.

    The Stern-Brocot descent to p/q goes run by run: in a run of equal
    turns one bound stays fixed, and the steps are counted, not taken
    (_run). It builds one word per run and the slope's node from its two
    bounds, so its cost is linear in p + q, with no recursion.
    """
    validate_slope(p, q)
    if p == 0 or q == 0:
        return _ROOTS[q == 0]
    lo, hi = _ROOTS
    while True:
        # the mediants lo + k hi lie below p/q while k * above < below,
        # and k lo + hi lie above it while k * below < above
        below = p * lo.q - lo.p * q
        above = hi.p * q - p * hi.q
        if below > above:
            lo = _run(lo, hi, (below - 1) // above, True)
        elif above > below:
            hi = _run(hi, lo, (above - 1) // below, False)
        else:
            break
    node = _child(lo, hi)
    # both words have p + q letters, so containment in the doubled word
    # makes the Christoffel word a rotation of the representative
    chris = christoffel(p, q)
    if chris not in node.word + node.word:
        raise SchemeViolation(
            f"{p}/{q}: representative {node.word} is not conjugate to "
            f"Christoffel {chris}"
        )
    return node


def enumerate_farey(depth: int) -> list[FareyNode]:
    """All slopes within `depth` mediant steps of the roots, as populated
    nodes in deterministic (q, p) order. Depth 0 is just 0/1 and 1/0.

    Each word is built from the words of its parents, which the walk
    passes down; both Farey parents of a slope come before it in the
    returned order.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    nodes = list(_ROOTS)
    pending = [_ROOTS] if depth > 0 else []
    while pending:
        lo, hi = pending.pop()
        node = _child(lo, hi)
        nodes.append(node)
        if node.depth < depth:
            pending += ((lo, node), (node, hi))
    nodes.sort(key=itemgetter(1, 0))
    return nodes
