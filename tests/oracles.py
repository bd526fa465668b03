"""Reference implementations that only the tests call.

Each oracle checks the pipeline from outside it: Whitehead primitivity and
Nielsen reduction check the Farey words, cyclic equality their conjugacy
classes, abelianization their letter counts, the geodesic and PSL
distances and the orthogonality residual the axes and images, Farey
associates the slope pairs, the step-by-step Stern-Brocot descent the
run-by-run descent of primitive_word, the depth-first walk by parent
nodes the table enumerate_farey reads, and the axis route the double
altitude that pi_of_pair takes through the matrix formula. They import
only public palcore names, so they see the library as any caller does.
"""
from __future__ import annotations

from typing import NamedTuple

from palcore.farey import FareyNode, Slope, validate_slope
from palcore.geodesics import Geodesic, axis, common_perpendicular, line_matrix
from palcore.representation import Representation
from palcore.sl2c import INFINITY, GroupElement, chordal_distance
from palcore.words import LETTERS, Word, evaluate

# words


class AbelianImage(NamedTuple):
    ea: int
    eb: int


def abelianize(w: Word) -> AbelianImage:
    """Exponent sums of the two generators."""
    return AbelianImage(w.count("a") - w.count("A"), w.count("b") - w.count("B"))


def _strip_inverse_ends(text: str) -> str:
    """Drop the matching inverse letter pairs from the two ends, in one slice."""
    n = len(text)
    k = 0
    while n - 2 * k >= 2 and text[k] == text[n - 1 - k].swapcase():
        k += 1
    return text[k:n - k]


def cyclic_reduce(w: Word) -> Word:
    """Strip matching inverse letters from the two ends until none remain."""
    return Word(_strip_inverse_ends(w))


def cyclically_equal(u: Word, v: Word) -> bool:
    """True iff the cyclic reductions are rotations of one another."""
    cu, cv = cyclic_reduce(u), cyclic_reduce(v)
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
        len(u) == 1 and len(v) == 1 and {u.lower(), v.lower()} == {"a", "b"}
    )
    return NielsenResult(u, v, generates)


def _whitehead_tables(m: str) -> tuple[dict[int, str], ...]:
    """The three type-2 Whitehead automorphisms with multiplier m acting on
    the other generator x, as str.translate tables that leave m and its
    inverse as they are."""
    x = "b" if m in "aA" else "a"
    inv_m = m.swapcase()
    return tuple(
        str.maketrans({x: image, x.upper(): image[::-1].swapcase()})
        # x -> x m, x -> m^-1 x, x -> m^-1 x m
        for image in (x + m, inv_m + x, inv_m + x + m)
    )


# the twelve automorphisms, by multiplier in LETTERS order
_WHITEHEAD = tuple(table for m in LETTERS for table in _whitehead_tables(m))


def is_primitive(w: Word) -> bool:
    """Whitehead test for primitivity in the rank-2 free group.

    Cyclically reduce, then greedily apply any of the twelve type-2
    Whitehead automorphisms that strictly shortens the cyclic word. The
    word is primitive iff this terminates at length one.
    """
    current = cyclic_reduce(w)
    if not current:
        return False
    while len(current) > 1:
        for table in _WHITEHEAD:
            image = _strip_inverse_ends(Word(current.translate(table)))
            if len(image) < len(current):
                current = image
                break
        else:
            return False
    return True


# geodesics and matrices

VERTICAL_AXIS = Geodesic(0j, INFINITY)


def geodesic_distance(g1: Geodesic, g2: Geodesic) -> float:
    """Max chordal endpoint distance, minimized over the two pairings."""
    a1, a2 = g1.endpoints()
    b1, b2 = g2.endpoints()
    straight = max(chordal_distance(a1, b1), chordal_distance(a2, b2))
    crossed = max(chordal_distance(a1, b2), chordal_distance(a2, b1))
    return min(straight, crossed)


def orthogonality_residual(g1: Geodesic, g2: Geodesic) -> float:
    """|tr(L1 L2)| for the line matrices, scaled by the product's entry
    size; 0 means the geodesics meet at a right angle."""
    prod = line_matrix(g1) * line_matrix(g2)
    return abs(prod.trace()) / max(1.0, prod.max_norm())


def psl_distance(g, h) -> float:
    """Max entry distance between g and h minimized over the sign ambiguity."""
    direct = max(abs(x - y) for x, y in zip(g, h))
    flipped = max(abs(x + y) for x, y in zip(g, h))
    return min(direct, flipped)


# slopes and representations


def are_associates(s1: Slope, s2: Slope) -> bool:
    """True iff the primitive classes are associates: |ps - rq| = 1."""
    p, q = s1
    r, s = s2
    validate_slope(p, q)
    validate_slope(r, s)
    return abs(p * s - r * q) == 1


def child_by_products(lo: FareyNode, hi: FareyNode) -> FareyNode:
    """The child rule of farey._child, the reference of its lean form: the
    mediant of lo < hi, with the palindrome hi lo when pq is even and lo hi
    when odd, each a Word product, read through the node's fields and
    slope property and built by the FareyNode call."""
    r, s = lo.p + hi.p, lo.q + hi.q
    if r * s % 2:
        word, factorization = lo.word * hi.word, (lo.word, hi.word)
    else:
        word, factorization = hi.word * lo.word, None
    return FareyNode(
        r, s, 1 + max(lo.depth, hi.depth), (lo.slope, hi.slope), word, factorization
    )


def enumerate_farey_by_children(depth: int) -> list[FareyNode]:
    """The Farey tree to depth as nodes in (q, p) order, by a depth-first
    walk that builds each child from its two parent nodes by the child
    rule (child_by_products): the reference of enumerate_farey, which
    reads its nodes off one level-by-level table."""
    roots = (
        FareyNode(0, 1, 0, None, Word("a"), None),
        FareyNode(1, 0, 0, None, Word("b"), None),
    )
    nodes = list(roots)
    pending = [roots] if depth > 0 else []
    while pending:
        lo, hi = pending.pop()
        node = child_by_products(lo, hi)
        nodes.append(node)
        if node.depth < depth:
            pending += ((lo, node), (node, hi))
    nodes.sort(key=lambda node: (node.q, node.p))
    return nodes


def primitive_word_by_steps(p: int, q: int) -> FareyNode:
    """The node of p/q by one mediant step at a time, each word built
    from its two bounds' words by the child rule (child_by_products).
    Quadratic in p + q: every word on the path is built."""
    validate_slope(p, q)
    lo = FareyNode(0, 1, 0, None, Word("a"), None)
    hi = FareyNode(1, 0, 0, None, Word("b"), None)
    if (p, q) in (lo.slope, hi.slope):
        return lo if q else hi
    while True:
        node = child_by_products(lo, hi)
        r, s = node.p, node.q
        if (r, s) == (p, q):
            return node
        if p * s > r * q:
            lo = node
        else:
            hi = node


def evaluate_normalized(rep: Representation, w: Word) -> GroupElement:
    """Image of w in the normalized frame: evaluate's entries as a
    GroupElement.

    The result is not renormalized: a product of unimodular matrices is
    unimodular to relative rounding error, while recomputing its
    determinant from entries of a long product cancels catastrophically.
    """
    return GroupElement._make(evaluate(w, rep.letters))


def pair_perpendicular_by_axes(rep: Representation, u: Word, v: Word) -> Geodesic:
    """Independent route to the double altitude: the common perpendicular
    of the axes of UV and VU in the normalized frame. Used to cross-check
    pi_of_pair, which goes through the matrix formula instead."""
    U = evaluate_normalized(rep, u)
    V = evaluate_normalized(rep, v)
    return common_perpendicular(axis(U * V), axis(V * U))
