"""Enumeration of primitive conjugacy classes by non-negative rationals.

Reduced slopes p/q (including 1/0) index primitive classes of the rank-2
free group through the Stern-Brocot tree. Each slope carries a preferred
representative Word e_{p/q} with q letters a and p letters b. The roots
are e_{0/1} = a and e_{1/0} = b; every other slope with Farey parents
lo < hi is built from its parents' Words by one child rule, which _child
applies to nodes and farey_table to the columns of its table
(Gilman-Keen, "Enumerating palindromes and primitives in rank two free
groups", J. Algebra 2011):

- pq odd: e_{p/q} = e_lo e_hi, whose factors are both palindromes, so
  this is the palindromic factorization of e_{p/q};
- pq even: e_{p/q} = e_hi e_lo, a palindrome. It is the only palindromic
  rotation of the Christoffel word: a second one would make the
  odd-length primitive word a proper power.

By parity the Farey parents of an odd slope are both palindromic, so a
slope is known by its palindromes: its own when pq is even, its
parents' when odd.

The tree to a depth is walked once, by farey_table, level by level into
parallel lists of ints and palindromes, in the order the walk fills
them: each slope's parents are its places in those lists, and one list
of places gives the (q, p) order. No node, parent slope tuple, slope
lookup or odd slope's text is made per slope. The spectrum plan reads
the table in walk order; enumerate_farey is its view as FareyNodes in
(q, p) order, and joins each odd slope's word. primitive_word descends
to one slope without the table.

The walk makes no check per slope: the tests check the palindromes, the
factorizations and the Christoffel conjugacy on every slope to depth 12
and on long slopes. primitive_word checks at runtime that its result is
cyclically equivalent to the Christoffel word of its slope, and raises
SchemeViolation rather than silently repairing the scheme.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidRational, SchemeViolation
from .words import Word

Slope = tuple[int, int]


def validate_slope(p: int, q: int) -> None:
    # a bool is an int to isinstance, but True/False is no slope
    if (not (isinstance(p, int) and isinstance(q, int))
            or isinstance(p, bool) or isinstance(q, bool)):
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
    makes its words.
    """
    lp, lq, l_depth, _, l_word, _ = lo
    hp, hq, h_depth, _, h_word, _ = hi
    p, q = lp + hp, lq + hq
    if p * q % 2:
        word, factorization = str.__new__(Word, l_word + h_word), (l_word, h_word)
    else:
        word, factorization = str.__new__(Word, h_word + l_word), None
    return FareyNode(
        p, q, max(l_depth, h_depth) + 1, ((lp, lq), (hp, hq)), word, factorization
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


class FareyTable(NamedTuple):
    """Every slope within `depth` mediant steps of the roots, as parallel
    lists in the order of the level-by-level walk: the roots 0/1 and 1/0,
    then each level in increasing slope order, so both Farey parents of a
    slope come before it. Entry i of each list belongs to the slope
    p[i]/q[i]:

    - level[i] counts its mediant steps from the roots;
    - lo[i] and hi[i] are the places of its Farey parents lo < hi, None
      for a root;
    - words[i] holds the palindromes whose product is its representative:
      its own when pq is even (a root too), and when pq is odd the pair
      (words[lo[i]][0], words[hi[i]][0]) of its parents' palindromes.

    order lists the places in (q, p) order, 1/0 and then 0/1 first. Only
    ints, the palindromes' Words and the words tuples are kept: no node,
    parent slope tuple, slope lookup or odd slope's text per slope.
    """

    p: list[int]
    q: list[int]
    level: list[int]
    lo: list[int | None]
    hi: list[int | None]
    words: list[tuple[Word, ...]]
    order: list[int]


def farey_table(depth: int) -> FareyTable:
    """The Farey tree to `depth` as one table (FareyTable); depth 0 is
    just 0/1 and 1/0.

    The walk goes level by level. The slopes so far, in increasing order,
    are a row of Farey neighbours, and the mediants of neighbouring pairs
    are exactly the next level. By the rule of _child, an odd child's
    pair is its parents' palindromes, held by reference, and an even
    child's palindrome is the text of hi's words, then lo's, joined. The
    last row holds every place in increasing slope order, so one stable
    sort of it by q is the (q, p) order, made of the walk's own place ints.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    p, q, level, lo, hi = [0, 1], [1, 0], [0, 0], [None, None], [None, None]
    words = [(_ROOTS[0].word,), (_ROOTS[1].word,)]
    row = [0, 1]  # walk places of the slopes so far, in increasing order
    new = str.__new__
    for d in range(1, depth + 1):
        start = len(p)
        for left, right in zip(row, row[1:]):
            r, s = p[left] + p[right], q[left] + q[right]
            p.append(r)
            q.append(s)
            u, v = words[left], words[right]
            if r * s % 2:
                words.append((u[0], v[0]))
            else:
                # positive words: the concatenation is reduced as written
                words.append((new(Word, "".join(v + u)),))
        lo += row[:-1]
        hi += row[1:]
        level += [d] * (len(p) - start)
        merged = [0] * (2 * len(row) - 1)
        merged[::2] = row
        merged[1::2] = range(start, len(p))
        row = merged
    # of equal q, the slope order is the p order
    row.sort(key=q.__getitem__)
    return FareyTable(p, q, level, lo, hi, words, row)


def enumerate_farey(depth: int) -> list[FareyNode]:
    """All slopes within `depth` mediant steps of the roots, as populated
    nodes in deterministic (q, p) order. Depth 0 is just 0/1 and 1/0.

    The nodes are a view of farey_table(depth), the one walk of the tree,
    built in walk order and returned in the table's (q, p) order, where
    both Farey parents of a slope come before it too. An odd slope's word
    is its pair joined, made here.
    """
    *columns, order = farey_table(depth)
    slopes = list(zip(columns[0], columns[1]))
    nodes = []
    for p, q, level, lo, hi, words in zip(*columns):
        if len(words) == 2:
            word, factorization = str.__new__(Word, "".join(words)), words
        else:
            word, factorization = words[0], None
        parents = None if lo is None else (slopes[lo], slopes[hi])
        nodes.append(FareyNode(p, q, level, parents, word, factorization))
    return list(map(nodes.__getitem__, order))
