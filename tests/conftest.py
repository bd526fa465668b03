"""Shared fixtures: canonical control representations, seeded random
generators in general position, an exact-arithmetic oracle for positions
on the Riley slice, the axis-route geometry helpers that tests use as
independent checks of the position kernel, and the parent-image spectrum
walk and the node-built spectrum plan, which call the library's private
kernels and so are not public-name oracles of oracles.py."""

import math
import random
from fractions import Fraction

import pytest

from palcore.config import DEFAULT_GEO
from palcore.errors import DegenerateGeodesic, PalcoreError
from palcore.farey import enumerate_farey
from palcore.geodesics import Geodesic
from palcore.probe import SpectrumEntry, _fold_schedule
from palcore.representation import (
    Representation, _pair_position, _palindrome_position, build,
)
from palcore.sl2c import INFINITY, GroupElement, classify, normalize, product
from palcore.words import LETTERS, Word, evaluate, is_palindrome


def hyperbolic_on_axis(r: float, half_trace: float) -> GroupElement:
    """Hyperbolic element with axis [-r, r] and trace 2*half_trace."""
    c = half_trace
    s = math.sqrt(c * c - 1)
    return GroupElement(c, r * s, s / r, c)


def transform(g: Geodesic, m: GroupElement) -> Geodesic:
    """Image of a geodesic under the Moebius action of m."""
    return Geodesic(m.apply(g.e1), m.apply(g.e2))


def position_on_vertical_axis(g: Geodesic, eps: float = DEFAULT_GEO) -> float:
    """Signed position along [0, inf] where g crosses it orthogonally: the
    axis route to a position, read from the endpoints rather than from a
    matrix's entries.

    g must have antipodal endpoints x and -x (the orthogonality condition
    against the vertical axis); the crossing height is then |x| and the
    hyperbolic position is ln|x|. The value returned is the symmetric mean
    (ln|e1| + ln|e2|)/2, which equals ln|x| for exact input. eps is the
    antipodality tolerance, relative to the endpoint magnitude. Raises
    DegenerateGeodesic for a marker [p, p] and ValueError for a geodesic
    that does not cross [0, inf] at a right angle.
    """
    if g.degenerate:
        raise DegenerateGeodesic(f"no crossing position for degenerate {g}")
    if g.e1 is INFINITY or g.e2 is INFINITY:
        raise ValueError(f"{g} has an end at infinity, cannot cross [0, inf]")
    x, y = g.e1, g.e2
    scale = max(1.0, abs(x), abs(y))
    if abs(x + y) > eps * scale:
        raise ValueError(f"endpoints of {g} are not antipodal: |x+y|={abs(x + y)}")
    if x == 0 or y == 0:
        raise ValueError(f"{g} has an end at the origin, cannot cross [0, inf]")
    return 0.5 * (math.log(abs(x)) + math.log(abs(y)))


def loxodromic_between(p: complex, q: complex, lam: complex) -> GroupElement:
    """Loxodromic with fixed points p, q and multiplier lam (|lam| != 1)."""
    frame = normalize(GroupElement(p, q, 1, 1))
    core_form = GroupElement(lam, 0, 0, 1 / lam)
    return frame * core_form * frame.inverse()


def _separated_points(rng: random.Random, count: int, min_gap: float = 0.45):
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if all(abs(z - w) >= min_gap for w in pts):
            pts.append(z)
    return pts


def random_multiplier(rng: random.Random) -> complex:
    # stretch kept away from 1 and angle away from pi so traces stay clear
    # of the parabolic and near-elliptic bands
    r = rng.uniform(1.5, 2.6)
    theta = rng.uniform(-0.9, 0.9)
    return r * complex(math.cos(theta), math.sin(theta))


def random_loxodromic(rng: random.Random) -> GroupElement:
    p, q = _separated_points(rng, 2)
    return loxodromic_between(p, q, random_multiplier(rng))


def random_mobius(rng: random.Random) -> GroupElement:
    while True:
        entries = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)]
        g = GroupElement(*entries)
        if abs(g.det()) > 0.1:
            return normalize(g)


def random_representation(seed: int) -> Representation:
    """Seeded non-elementary pair of loxodromics with separated axes."""
    rng = random.Random(seed)
    for _ in range(64):
        p1, q1, p2, q2 = _separated_points(rng, 4)
        A = loxodromic_between(p1, q1, random_multiplier(rng))
        B = loxodromic_between(p2, q2, random_multiplier(rng))
        if classify(A) != "loxodromic":
            continue
        if classify(B) != "loxodromic":
            continue
        try:
            return build(A, B)
        except PalcoreError:
            continue
    raise RuntimeError(f"no representation in general position for seed {seed}")


def random_palindrome(rng: random.Random, max_half: int = 4) -> Word:
    """Nonempty reduced palindromic word."""
    while True:
        half = [rng.choice(LETTERS) for _ in range(rng.randint(1, max_half))]
        center = [rng.choice(LETTERS)] if rng.random() < 0.5 else []
        w = Word("".join(half + center + half[::-1]))
        if w and is_palindrome(w):
            return w


class GaussianInteger:
    """Exact x + iy with integer parts, with the ring operations that 2x2
    matrix products need (ints mix in as real parts)."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y

    @staticmethod
    def _parts(z) -> tuple[int, int]:
        return (z.x, z.y) if isinstance(z, GaussianInteger) else (z, 0)

    def __add__(self, other):
        x, y = self._parts(other)
        return GaussianInteger(self.x + x, self.y + y)

    __radd__ = __add__

    def __neg__(self):
        return GaussianInteger(-self.x, -self.y)

    def __mul__(self, other):
        x, y = self._parts(other)
        return GaussianInteger(self.x * x - self.y * y, self.x * y + self.y * x)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + -other


def _ln_abs(z) -> float:
    x, y = GaussianInteger._parts(z)
    return 0.5 * math.log(x * x + y * y)


def riley_off_diagonal(text: str, mu) -> tuple:
    """Exact (b, c), up to one common integer factor, of a palindrome image
    "w" or of the double altitude UV.VU - VU.UV of a palindrome pair "u|v",
    for the Riley-slice pair A = [[1, 1], [0, 1]], B = [[1, 0], [mu, 1]] in
    its input frame.

    mu is any number with rational parts (an int, a Fraction, or a float or
    complex, whose parts are dyadic rationals), taken exactly. With mu = P/q
    for a Gaussian integer P and an integer q, the products use qB =
    [[q, 0], [P, q]] and its adjugate, so every entry is a Gaussian integer
    and each image is its true value times a power of q; the common factor
    cancels from every ratio b/c.
    """
    re, im = Fraction(mu.real), Fraction(mu.imag)
    q = math.lcm(re.denominator, im.denominator)
    p = int(re * q) if im == 0 else GaussianInteger(int(re * q), int(im * q))

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    table = {"a": (1, 1, 0, 1), "A": (1, -1, 0, 1), "b": (q, 0, p, q), "B": (q, 0, -p, q)}

    def image(w: str):
        m = (1, 0, 0, 1)
        for x in w:
            m = mul(m, table[x])
        return m

    if "|" not in text:
        _, b, c, _ = image(text)
        return b, c
    u, v = map(image, text.split("|"))
    t1, t2 = mul(mul(u, v), mul(v, u)), mul(mul(v, u), mul(u, v))
    return t1[1] - t2[1], t1[2] - t2[2]


def exact_riley_position(text: str, mu) -> float:
    """Position s of a palindrome "w" or pair "u|v" on the core, from exact
    entries (see riley_off_diagonal).

    The generators fix infinity and 0, so the core is already [0, inf] and
    the normalized frame differs from the input frame by a diagonal map.
    That map scales b/c by a constant, which the pin fixes: with both
    generators parabolic it puts the double altitude a|b at s = 0.
    """

    def raw(t: str) -> float:
        b, c = riley_off_diagonal(t, mu)
        return 0.5 * (_ln_abs(b) - _ln_abs(c))

    return raw(text) - raw("a|b")


# pi_spectrum reads the position of an even slope on its last level off one
# product of its parents' images, and every other position off the letter
# fold of the slope word (see probe._spectrum_plan). Against the fold from
# the identity, 19,665 of 74,293 entries measured (the slice-sweep pool at
# depth 10, mu4 at depths 8, 12 and 14, mu_half at 8 and 12) moved, by at
# most 2.5e-15, and random_representation(0..5) at depth 10 by 2.7e-15.
PRODUCT_ROUTE_TOLERANCE = 1e-13


def is_product_route(node, depth: int) -> bool:
    """Whether pi_spectrum(rep, depth) reads the position of the FareyNode
    node off one product of its parents' images."""
    return node.depth == depth and node.parents is not None and node.factorization is None


def assert_matches_full_folds(nodes, depth: int, got: list, reference: list, s_at: int):
    """got, the outcomes of pi_spectrum(rep, depth) in the order of nodes,
    against reference, those of each slope's fold from the identity. An
    outcome is a tuple with s.hex() at s_at for a position. Outcomes are
    equal, but for the s of a product-route position, which lies within
    PRODUCT_ROUTE_TOLERANCE of the full fold's."""
    assert len(got) == len(reference) == len(nodes)
    for node, g, r in zip(nodes, got, reference):
        if g == r:
            continue
        where = f"{node.p}/{node.q}: {g} against {r}"
        assert is_product_route(node, depth), where
        assert isinstance(g, tuple) and isinstance(r, tuple), where
        assert g[:s_at] + g[s_at + 1:] == r[:s_at] + r[s_at + 1:], where
        ds = float.fromhex(g[s_at]) - float.fromhex(r[s_at])
        assert abs(ds) <= PRODUCT_ROUTE_TOLERANCE, where


def spectrum_plan_by_nodes(depth: int) -> tuple[tuple, int, tuple]:
    """probe._spectrum_plan by its former build, from the FareyNodes of
    enumerate_farey with their parent slopes looked up by (p, q): the fold
    schedule, the number of states it keeps, and per slope in (q, p) order
    the tuple (p, q, level, lo, hi, words)."""
    nodes = enumerate_farey(depth)
    positions = list(range(len(nodes)))
    index = {node[:2]: i for i, node in zip(positions, nodes)}
    words, places, slopes = [], [], []
    for i, (p, q, level, parents, word, factors) in zip(positions, nodes):
        if parents is None or level < (depth if factors is None else depth - 1):
            words.append(word)
            places.append(i)
        lo, hi = (index[parents[0]], index[parents[1]]) if parents else (None, None)
        slopes.append((p, q, level, lo, hi, factors or (word,)))
    schedule, height = _fold_schedule(words, places)
    return schedule, height, tuple(slopes)


def pi_spectrum_by_parent_folds(rep: Representation, depth: int) -> list[SpectrumEntry]:
    """pi_spectrum by its former walk, one fold per letter-fold image, each
    continued from a parent's image: a root folds its word from the
    identity, an even slope (hi lo) lo's word from hi's image and an odd
    slope (lo hi) hi's word from lo's image. The product routes, the
    position kernels and the (q, p) order are pi_spectrum's, so the two
    differ only in where the folds of the slope words are split, and agree
    bit for bit."""
    nodes = enumerate_farey(depth)
    index = {node[:2]: i for i, node in enumerate(nodes)}
    plan = []
    for p, q, level, parents, word, factors in nodes:
        if parents is None:
            plan.append((p, q, level, None, None, word, (word,)))
            continue
        lo, hi = index[parents[0]], index[parents[1]]
        if factors is None:  # word is hi's text, then lo's
            fold = nodes[lo].word if level < depth else None
            plan.append((p, q, level, lo, hi, fold, (word,)))
        else:
            fold = factors[1] if level < depth - 1 else None
            plan.append((p, q, level, lo, hi, fold, factors))
    letters = rep.letters
    images: list = [None] * len(plan)
    entries = []
    for i, (p, q, level, lo, hi, fold, words) in enumerate(plan):
        image = error = None
        try:
            if len(words) == 2:
                if fold is not None:
                    images[i] = evaluate(fold, letters, images[lo])
                elif level < depth:
                    images[i] = product(images[lo], (images[hi],))
                image = _pair_position(*words, images[lo], images[hi])
            else:
                if lo is None:
                    m = images[i] = evaluate(fold, letters)
                elif fold is None:
                    m = product(images[hi], (images[lo],))
                else:
                    m = images[i] = evaluate(fold, letters, images[hi])
                image = _palindrome_position(words[0], m)
        except PalcoreError as exc:
            error = f"{type(exc).__name__}: {exc}"
        entries.append(SpectrumEntry(p, q, level, words, image, error))
    return entries


@pytest.fixture
def rep1():
    """Fuchsian pair: axes [-1, 1] and [-2, 2], translation length 2 each.

    Normalizes to the identity frame, so positions on the core are directly
    readable: the a-axis sits at 0 and the b-axis at ln 2.
    """
    c1, s1 = math.cosh(1), math.sinh(1)
    A = GroupElement(c1, s1, s1, c1)
    B = GroupElement(c1, 2 * s1, s1 / 2, c1)
    return build(A, B)


@pytest.fixture
def schottky():
    """Classical Schottky pair: separated axes [-1, 1] and [-8, 8], trace 3."""
    return build(hyperbolic_on_axis(1.0, 1.5), hyperbolic_on_axis(8.0, 1.5))


@pytest.fixture
def mu4():
    """Discrete parabolic pair: translation by 1 and its transpose at mu=4."""
    return build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, 4, 1))


@pytest.fixture
def mu_half():
    """Non-discrete parabolic pair (Jorgensen value 0.25)."""
    return build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, 0.5, 1))
