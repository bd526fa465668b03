"""A concrete two-generator representation and its palindromic axis map.

Given a non-elementary pair (A, B), the axes of A and B have a unique
common perpendicular, the core geodesic. Every palindromic word in A and B
has its axis orthogonal to the core, so it crosses the core at a single
signed position s. The map Pi sends palindromes (and palindromic pairs,
through their double altitude) to these positions.

Positions are computed in a normalized frame: the core is moved to
[0, inf] with its lexicographically smaller endpoint at 0, and the
remaining diagonal freedom is pinned by placing the first proper generator
axis (or, for two parabolics, the double altitude of the pair) at position
0. The pin makes Pi values conjugation invariant.
"""
from __future__ import annotations

import cmath
import math
from cmath import isfinite
from functools import cached_property, lru_cache
from typing import NamedTuple

from .config import CLASSIFY_BAND, DEFAULT_GEO, SINGULAR_FLOOR, geo_scaled
from .errors import (
    CommutingPair,
    DegenerateAxis,
    ElementaryGroup,
    IdentityElement,
    IdentityImage,
    NotPalindrome,
    OrthogonalityViolation,
    SharedEndpoint,
    SingularMatrix,
    TrivialPalindromization,
)
from .farey import primitive_word
from .geodesics import Geodesic, axis, common_perpendicular
from .sl2c import (
    IDENTITY,
    INFINITY,
    Entries,
    GroupElement,
    _classify_moduli,
    _max4,
    _json_text,
    boundary_key,
    classify,
    fixed_points,
    is_identity,
    matrix_from_json,
    normalize,
    normalize_input,
    product,
)
from .words import (
    LetterTable, Word, evaluate, is_palindrome, letter_table, reduced_words, reverse,
)

PALINDROME_WORD = "palindrome-word"
PALINDROME_PAIR = "palindrome-pair"
PARABOLIC_END = "parabolic-end"

# the longest words Representation.blocks holds, and so the most letters
# of a palindrome's first half folded per product. The 64,896 halves of
# witness_search(12, 3) on mu_half, each a table entry or, past BLOCK
# letters, the smaller of itself and its reverse folded from its first
# entry through the one-entry cache, took 0.17, 0.15, 0.13, 0.11 and
# 0.11 s at 4 to 8 (best of 7 on one CPU of a 2-vCPU VM, Python 3.11):
# 7 and 8 save a further 13-18 % for 3 and 9 times the entries (0.4 MB at
# 6, 3.8 MB at 8), and any other value changes the bits of longer
# palindromes
BLOCK = 6


class PiImage(NamedTuple):
    """Signed position of a palindromic axis along the core.

    s is the hyperbolic position; parabolic palindromes are tagged with
    s = +/-inf at the core end they fix. source records the route taken
    (single palindrome, palindrome pair, or parabolic end) and
    element_class the isometry type of the image (of UV for a pair). The
    word is not held: the caller passed it in, and a report that shows it
    hands its display text to to_json.

    The position path builds it as tuple.__new__(PiImage, (s, source,
    element_class)), the tuple the class call builds, without the Python
    frame of the generated __new__ (0.20 against 0.36 us a record).
    """

    s: float
    source: str
    element_class: str

    @property
    def finite(self) -> bool:
        return math.isfinite(self.s)

    def to_json(self, word: str | None = None) -> dict:
        if math.isinf(self.s):
            s_out: float | str = "inf" if self.s > 0 else "-inf"
        else:
            s_out = self.s
        out: dict = {"s": s_out, "source": self.source}
        if word is not None:
            out["word"] = word
        out["class"] = self.element_class
        return out


class Representation:
    """Normalized generator pair with its core geodesic.

    A and B are the unimodular input generators; core is their axes' common
    perpendicular in the input frame; normalizer conjugates the input frame
    to the working frame with core = [0, inf]; norm_A and norm_B are the
    conjugated generators, and letters is their letter_table.

    A plain class: its attributes are not reassigned after __init__, and
    two representations compare by identity.
    """

    def __init__(
        self,
        A: GroupElement,
        B: GroupElement,
        core: Geodesic,
        normalizer: GroupElement,
        norm_A: GroupElement,
        norm_B: GroupElement,
        letters: LetterTable,
    ) -> None:
        self.A = A
        self.B = B
        self.core = core
        self.normalizer = normalizer
        self.norm_A = norm_A
        self.norm_B = norm_B
        self.letters = letters

    def __repr__(self) -> str:
        fields = ("A", "B", "core", "normalizer", "norm_A", "norm_B")
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"Representation({inner})"

    @cached_property
    def blocks(self) -> LetterTable:
        """Normalized images of the 1,456 reduced words of 1 to BLOCK
        letters, keyed by their text and built on first use. Each is its
        stem's image times the last letter's matrix, so it equals
        evaluate(word, letters) bit for bit."""
        table: LetterTable = {}
        for w in map(str, reduced_words(BLOCK)):
            table[w] = evaluate(w[-1], self.letters, table.get(w[:-1], IDENTITY))
        return table

    def to_json(self) -> dict:
        return {"A": self.A.to_json(), "B": self.B.to_json()}


def _generator_axis(g: GroupElement) -> Geodesic:
    try:
        return axis(g)
    except IdentityElement as exc:
        raise ElementaryGroup("a generator is the identity") from exc


def _frame_map(core: Geodesic) -> GroupElement:
    """Moebius map sending core to [0, inf], smaller endpoint to 0."""
    e1, e2 = core.endpoints()
    if e2 is INFINITY:
        raw = GroupElement(1 + 0j, -e1, 0j, 1 + 0j)
    else:
        raw = GroupElement(1 + 0j, -e1, 1 + 0j, -e2)
    return normalize(raw)


def _pin_from_points(pts) -> GroupElement:
    x, y = pts
    if x is INFINITY or y is INFINITY:
        raise OrthogonalityViolation("pinning axis does not cross the core")
    scale = max(1.0, abs(x), abs(y))
    if abs(x + y) > DEFAULT_GEO * scale or x == 0 or y == 0:
        raise OrthogonalityViolation(
            f"pinning axis endpoints are not antipodal: {x}, {y}"
        )
    y_star = max((x, y), key=boundary_key)
    lam = cmath.sqrt(1 / y_star)
    return normalize(GroupElement(lam, 0j, 0j, 1 / lam))


def _scale_pin(a0: GroupElement, b0: GroupElement) -> GroupElement:
    for g in (a0, b0):
        if classify(g) in ("loxodromic", "elliptic"):
            return _pin_from_points(fixed_points(g))
    # both generators parabolic: pin the double altitude of the pair instead
    t_raw = a0 * b0 * (b0 * a0) - b0 * a0 * (a0 * b0)
    try:
        t = normalize(t_raw)
    except SingularMatrix as exc:
        raise ElementaryGroup("parabolic generators commute") from exc
    return _pin_from_points(fixed_points(t))


def build(a_raw, b_raw) -> Representation:
    """Construct a Representation from two matrices.

    Inputs are GroupElements of any nonzero determinant; they are
    normalized to determinant 1. Raises ElementaryGroup when the
    generator axes share an endpoint (including equal or inverse
    generators and an identity generator), SingularMatrix for degenerate
    input.
    """
    A = normalize_input(a_raw)
    B = normalize_input(b_raw)
    ax_a = _generator_axis(A)
    ax_b = _generator_axis(B)
    try:
        core = common_perpendicular(ax_a, ax_b)
    except SharedEndpoint as exc:
        raise ElementaryGroup(str(exc)) from exc
    n0 = _frame_map(core)
    a0 = normalize(n0 * A * n0.inverse())
    b0 = normalize(n0 * B * n0.inverse())
    pin = _scale_pin(a0, b0)
    nmap = normalize(pin * n0)
    norm_A = normalize(nmap * A * nmap.inverse())
    norm_B = normalize(nmap * B * nmap.inverse())
    return Representation(
        A=A,
        B=B,
        core=core,
        normalizer=nmap,
        norm_A=norm_A,
        norm_B=norm_B,
        letters=letter_table(norm_A, norm_B),
    )


def rep_from_json(obj: dict) -> Representation:
    """Build a representation from {"A": matrix, "B": matrix} JSON data.

    Raises ValueError for a document that is not an object, a missing
    generator (naming the first of "A", "B" that is absent) or a malformed
    matrix (see matrix_from_json).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"generator JSON must be an object, got {_json_text(obj)}")
    for name in "AB":
        if name not in obj:
            raise ValueError(f'generator JSON has no "{name}" matrix')
    return build(matrix_from_json(obj["A"]), matrix_from_json(obj["B"]))


# the refusals of an image that overflowed: an entry that is not finite,
# and finite parts whose modulus abs() cannot hold
_NOT_FINITE = "image overflowed: an entry is not finite"
_MODULUS_OVERFLOWED = "image overflowed: an entry's modulus is past the float range"


def _crossing_position(a, d, abs_b: float, abs_c: float, scale: float,
                       length: int) -> float:
    """Position where the axis of m = [[a, b], [c, d]], a product of length
    generator matrices, crosses the core [0, inf], from its diagonal
    entries, the moduli |b| and |c| and the entry scale max(1, |a|, |b|,
    |c|, |d|) its caller has taken.

    m is expected to have (anti)symmetric diagonal in the normalized frame:
    equal diagonal entries for a palindrome image, trace zero for a double
    altitude. Either way the axis endpoints are +/-sqrt(b/c), so
    s = ln|b/c| / 2, a ratio of directly accumulated entries.

    m must have finite entries: each caller refuses an image with an entry
    that is not finite before it gets here, once per image, and refuses an
    OverflowError of abs(), here or where it took the moduli, as overflowed.

    Refusals, each an OrthogonalityViolation: an off-diagonal entry below
    SINGULAR_FLOOR times the scale, past which |b/c|, taken as |b|/|c|,
    lies within 1e+/-12, so its root and log are defined; and fixed points
    that are not antipodal. By Vieta's formulas the fixed points of a
    unimodular m sum to (a - d)/c and multiply to -b/c, so they count as
    antipodal, within eps = geo_scaled(length) of their modulus sqrt|b/c|,
    when |a - d|/|c| <= eps max(1, sqrt|b/c|); no quadratic is solved.
    That bound, eps max(|c|, sqrt|bc|) on |a - d|, is at most eps times
    the scale, so unequal diagonal entries need no test of their own.
    The test, and the tolerance with it, is taken only when a != d: for
    finite a == d the residual is exactly 0, which no tolerance refuses. A
    palindrome image from pi_of_palindrome has both diagonal entries from
    one expression, so it never reaches the test.
    """
    if abs_b <= SINGULAR_FLOOR * scale or abs_c <= SINGULAR_FLOOR * scale:
        raise OrthogonalityViolation(
            "off-diagonal entry below the certifiable floor, axis endpoint "
            "indistinguishable from a core end"
        )
    ratio = abs_b / abs_c
    if a != d:
        residual = abs(a - d) / abs_c
        modulus = math.sqrt(ratio)
        eps = geo_scaled(length)
        if residual > eps * (modulus if modulus > 1.0 else 1.0):
            raise OrthogonalityViolation(
                f"fixed points not antipodal: residual {residual:.3e}"
            )
    return 0.5 * math.log(ratio)


@lru_cache(maxsize=1)
def _half_image(rep: Representation, text: str) -> Entries:
    """Entries of the image of text, a word of more than BLOCK letters,
    folded one rep.blocks entry, of up to BLOCK letters, a factor, from
    the first entry on. The running entries take sl2c.product's two row
    updates in four locals, so every bit is product's and no list of
    entries or product call is made.

    pi_of_palindrome passes the smaller text of a palindrome's first half
    and its reverse, so u reverse(u) and reverse(u) u, which
    witness_search visits one after the other, share one fold: the second
    call finds the first one's entries in the one-entry cache. The cache
    holds the image of text, before any swap, so what a call gets depends
    on (rep, text) alone, never on the call before it. It keeps the last
    representation alive, as probe._spectrum_plan keeps the last table.
    """
    blocks = rep.blocks
    al, be, ga, de = blocks[text[:BLOCK]]
    for i in range(BLOCK, len(text), BLOCK):
        e, f, g, h = blocks[text[i:i + BLOCK]]
        al, be = al * e + be * g, al * f + be * h
        ga, de = ga * e + de * g, ga * f + de * h
    return al, be, ga, de


def pi_of_palindrome(rep: Representation, w: Word) -> PiImage:
    """Position of the axis of a palindromic word on the core.

    The image is formed in the normalized frame from the word's first half
    u. A half of at most BLOCK letters is its rep.blocks entry, with the
    bits of its letter fold, and only an empty half (a 1-letter
    palindrome) is the identity. A longer half is folded by _half_image,
    one rep.blocks entry a factor from the first entry on, as the
    lexicographically smaller text of u and reverse(u), and its diagonal
    entries are swapped (phi, below) when reverse(u) is the one folded.
    So u reverse(u) and reverse(u) u, which witness_search visits one
    after the other, share one fold, and _half_image's one-entry cache
    hands the second call the first one's entries: on the (12, 3) grid of
    mu_half that is 29,448 folds of long halves instead of 58,896.
    Starting a fold from the identity would change no entry but the sign
    of a zero.

    Both generators have equal diagonal entries in the normalized frame, so
    the image of reverse(u) is phi(image of u), where phi swaps the
    diagonal entries: phi is the transpose about the antidiagonal, which
    reverses products and fixes every letter's matrix. With
    M = [[al, be], [ga, de]] the image of u, the
    image of u reverse(u) is M phi(M) = [[D, 2 al be], [2 ga de, D]] with
    D = al de + be ga, and the image of u x reverse(u), with
    L = [[e, f], [g, e]] the middle letter's matrix, is M L phi(M) =
    [[E, 2 e al be + g be^2 + f al^2], [2 e ga de + g de^2 + f ga^2, E]]
    with E = e D + g be de + f al ga. Each diagonal is written from one
    expression, so its two entries are equal bit for bit, and the axis
    endpoints are antipodal, +/-x with x = sqrt(b/c): the antipodality
    test of _crossing_position, which reads a - d, cannot refuse the image
    and is not run. D is taken as 1 + 2 be ga when |be ga| <= |al de| and
    as 2 al de - 1 otherwise (equal for det M = 1), so it carries the
    rounding of the smaller product only, where al de + be ga would carry
    both.

    The position is ln|x|, and _palindrome_position reads it, or the core
    end a parabolic image fixes, or a refusal. OrthogonalityViolation
    signals numerical breakdown: an exact palindrome axis is always
    orthogonal to the core. Slope words do not come through here:
    rational_pi folds them in full. The result is a number with its route
    and class; w is formatted only in a refusal message.
    """
    if not is_palindrome(w):
        raise NotPalindrome(f"{w!r} is not a palindrome")
    half = len(w) // 2
    if half > BLOCK:
        u = w[:half]
        r = u[::-1]
        if r < u:
            de, be, ga, al = _half_image(rep, r)
        else:
            al, be, ga, de = _half_image(rep, u)
    elif half:
        al, be, ga, de = rep.blocks[w[:half]]
    else:
        al, be, ga, de = IDENTITY
    bg, ad = be * ga, al * de
    diag = 1 + 2 * bg if abs(bg) <= abs(ad) else 2 * ad - 1
    if len(w) % 2 == 0:
        return _palindrome_position(w, (diag, 2 * al * be, 2 * ga * de, diag))
    e, f, g, _ = rep.letters[w[half]]
    diag = e * diag + g * be * de + f * al * ga
    return _palindrome_position(w, (
        diag,
        2 * e * al * be + g * be * be + f * al * al,
        2 * e * ga * de + g * de * de + f * ga * ga,
        diag,
    ))


def _palindrome_position(w: Word, m) -> PiImage:
    """The position of the palindrome w from m, its normalized image (its
    entries, or a GroupElement), in one pass: |b| and |c| are taken once,
    and give the class (sl2c._classify_moduli, classify's rule) and, with
    |a| and |d|, the entry scale, which give a parabolic image its
    core-end tag and any other its crossing (_crossing_position). The one
    palindrome kernel: pi_of_palindrome, rational_pi and probe.pi_spectrum
    all end here.

    An exactly parabolic palindrome in the normalized frame is upper or
    lower triangular with equal unit diagonal, so it fixes inf (c = 0, tag
    +inf) or 0 (b = 0, tag -inf); off-diagonal entries within
    geo_scaled(len(w)) times the scale count as 0.

    An image that overflowed is refused as such: one with an entry that is
    not finite before it is classified, as classify can read a NaN entry
    as the identity, and one with an entry whose modulus is past the float
    range wherever abs() meets it.
    """
    a, b, c, d = m
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        raise OrthogonalityViolation(_NOT_FINITE)
    try:
        abs_b, abs_c = abs(b), abs(c)
        kind = _classify_moduli(m, a, d, abs_b, abs_c)
        if kind == "identity":
            raise IdentityImage(f"{w!r} evaluates to the identity")
        scale = _max4(abs(a), abs_b, abs_c, abs(d))
        if scale < 1.0:
            scale = 1.0
        if kind != "parabolic":
            return tuple.__new__(PiImage, (
                _crossing_position(a, d, abs_b, abs_c, scale, len(w)),
                PALINDROME_WORD, kind,
            ))
    except OverflowError:
        raise OrthogonalityViolation(_MODULUS_OVERFLOWED) from None
    eps = geo_scaled(len(w)) * scale
    small_b = abs_b <= eps
    small_c = abs_c <= eps
    if small_c and not small_b:
        return tuple.__new__(PiImage, (math.inf, PARABOLIC_END, kind))
    if small_b and not small_c:
        return tuple.__new__(PiImage, (-math.inf, PARABOLIC_END, kind))
    raise OrthogonalityViolation("parabolic palindrome image does not fix a core end")


def pi_of_pair(rep: Representation, u: Word, v: Word) -> PiImage:
    """Position of the double altitude of a palindrome pair on the core.

    With U, V the images of the pair, T = UVVU - VUUV is trace zero; its
    normalization is the half-turn about the common perpendicular of the
    axes of UV and VU, which crosses the core orthogonally. The position of
    that crossing is returned. The recorded element class is that of UV.
    """
    for w in (u, v):
        if not is_palindrome(w):
            raise NotPalindrome(f"{w!r} is not a palindrome")
    U, V = evaluate(u, rep.letters), evaluate(v, rep.letters)
    return _pair_position(u, v, U, V)


def _pair_position(u: Word, v: Word, U, V) -> PiImage:
    """pi_of_pair from U and V, the normalized images of the palindromes u
    and v (entries or GroupElements). The four products are entry tuples,
    each one sl2c.product; the difference uvvu - vuuv and the moduli of
    both are written out entry by entry, in entry order, so no iterator or
    argument tuple is built for them. A double altitude with an entry
    that is not finite, and products whose entries have a modulus past the
    float range, are refused as overflowed."""
    try:
        uv, vu = product(U, (V,)), product(V, (U,))
        a, b, c, d = product(uv, (vu,))
        e, f, g, h = product(vu, (uv,))
        w, x, y, z = t_raw = (a - e, b - f, c - g, d - h)
        scale = _max4(abs(a), abs(b), abs(c), abs(d))
        if _max4(abs(w), abs(x), abs(y), abs(z)) <= CLASSIFY_BAND * (
            scale if scale > 1.0 else 1.0
        ):
            raise CommutingPair(f"images of {u!r} and {v!r} commute")
        try:
            t = normalize(t_raw)
        except SingularMatrix as exc:
            raise CommutingPair(
                f"double altitude of {u!r}, {v!r} is not determined"
            ) from exc
        a, b, c, d = t
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
            raise OrthogonalityViolation(_NOT_FINITE)
        abs_b, abs_c = abs(b), abs(c)
        scale = _max4(abs(a), abs_b, abs_c, abs(d))
        if scale < 1.0:
            scale = 1.0
        return tuple.__new__(PiImage, (
            _crossing_position(a, d, abs_b, abs_c, scale, len(u) + len(v)),
            PALINDROME_PAIR, classify(uv),
        ))
    except OverflowError:
        raise OrthogonalityViolation(_MODULUS_OVERFLOWED) from None


def palindromize(rep: Representation, w: Word) -> tuple[Word, PiImage]:
    """The palindrome P = reverse(w) w and its position on the core.

    pi_of_palindrome evaluates P from its first half reverse(w), whose
    image in the normalized frame is phi(W) for W = [[a, b], [c, d]] the
    image of w (phi swaps the diagonal). The image phi(W) W of P has equal
    diagonal entries, written from one expression, and off-diagonal
    entries 2bd and 2ac, so its fixed points have the closed form
    +/-sqrt(P_b / P_c) and the position is ln|P_b / P_c| / 2, with only
    the len(w) letters of one half multiplied, BLOCK to a product. Raises
    TrivialPalindromization when P evaluates to (plus or minus) the
    identity, e.g. for half-turn images with axis orthogonal to the core.
    """
    pal = reverse(w) * w
    try:
        return pal, pi_of_palindrome(rep, pal)
    except IdentityImage as exc:
        raise TrivialPalindromization(f"{w!r} palindromizes to the identity") from exc


class Hexagon(NamedTuple):
    """Six geodesics in cyclic order with named access."""

    axis_a: Geodesic
    core: Geodesic
    axis_b: Geodesic
    perp_b: Geodesic
    axis_ab: Geodesic
    perp_a: Geodesic

    def to_json(self) -> list:
        return [
            {"name": name, **geo.to_json()} for name, geo in zip(self._fields, self)
        ]


def hexagon(rep: Representation) -> Hexagon:
    """The right-angled hexagon of the pair: axes of A, B, AB alternating
    with the core and the perpendiculars from the axes of A and B to the
    axis of AB. Consecutive entries in the cyclic order are orthogonal, and
    the half-turns factor the generators: A = H(perp_a) H(core) and
    B = H(core) H(perp_b) up to sign.

    Raises DegenerateAxis when A, B, or AB is parabolic.
    """
    ab = normalize(rep.A * rep.B)
    if is_identity(ab):
        raise ElementaryGroup("product of the generators is the identity")
    for name, g in (("first generator", rep.A), ("second generator", rep.B),
                    ("generator product", ab)):
        if classify(g) == "parabolic":
            raise DegenerateAxis(f"{name} is parabolic, no proper axis")
    ax_a = axis(rep.A)
    ax_b = axis(rep.B)
    ax_ab = axis(ab)
    try:
        perp_a = common_perpendicular(ax_a, ax_ab)
        perp_b = common_perpendicular(ax_b, ax_ab)
    except SharedEndpoint as exc:
        raise ElementaryGroup(str(exc)) from exc
    return Hexagon(ax_a, rep.core, ax_b, perp_b, ax_ab, perp_a)


def rational_pi(rep: Representation, p: int, q: int) -> PiImage:
    """Pi image of the slope p/q: the palindromic representative when pq is
    even, the palindromic factor pair through its double altitude when pq
    is odd. The result carries no word: node.word, or the pair as u|v, is
    the text a report shows (SpectrumEntry.word).

    The slope word is folded from the identity, and a factor pair goes
    through pi_of_pair, which folds each factor so. probe.pi_spectrum gets
    the same bits for every slope but an even one on its last level: it
    letter-folds only the pair factors, each prefix their palindromes
    share once, which splits the same folds, and forms every other image
    as one product of its parents' images, which moves a last-level
    position by a few units in the last place.
    """
    node = primitive_word(p, q)
    if node.factorization is None:
        return _palindrome_position(node.word, evaluate(node.word, rep.letters))
    return pi_of_pair(rep, *node.factorization)
