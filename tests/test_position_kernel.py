"""The position kernel against the element route it replaced.

Positions are computed on the four entries of each matrix: the word fold,
the product, the classification, the fixed-point solve and the crossing
checks all read (a, b, c, d) tuples, and no GroupElement is built per
product. The reference implementations below are the route the library
had before, written on GroupElements (attributes, max_norm, sorted roots,
one element per product). Every outcome must be the same: the position's
bits, its source and class, or the refusal's type and text.
"""

import cmath
import math
import random
import sys

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from palcore.config import (
    CERTIFIABLE_CEILING, CLASSIFY_BAND, DEFAULT_GEO, SINGULAR_FLOOR, geo_scaled,
)
from palcore.errors import (
    CommutingPair,
    IdentityElement,
    IdentityImage,
    OrthogonalityViolation,
    PalcoreError,
    SingularMatrix,
)
from palcore.farey import enumerate_farey, primitive_word
from palcore.probe import pi_spectrum, random_word, witness_search
from palcore.representation import (
    BLOCK,
    PALINDROME_PAIR,
    PALINDROME_WORD,
    PARABOLIC_END,
    PiImage,
    _crossing_position,
    _half_image,
    _pair_position,
    _palindrome_position,
    build,
    pi_of_palindrome,
    rational_pi,
)
from palcore.sl2c import (
    IDENTITY, INFINITY, GroupElement, boundary_key, classify, fixed_points, product,
)
from palcore.words import LETTERS, Word, reduced_words, reverse

from .conftest import (
    assert_matches_full_folds, exact_riley_position, random_representation,
)
from .oracles import palindrome_position_by_steps, parabolic_end_by_steps
from .outcome_digest import GENERATORS

# Reference implementations: the element route, one GroupElement per
# product and per intermediate matrix, with the builtin max and min.


def _reference_mul(g, h):
    a, b, c, d = g.a, g.b, g.c, g.d
    e, f, k, l = h.a, h.b, h.c, h.d
    return GroupElement(a * e + b * k, a * f + b * l, c * e + d * k, c * f + d * l)


def _reference_max_norm(g):
    return max(abs(g.a), abs(g.b), abs(g.c), abs(g.d))


def _reference_evaluate(rep, w):
    A, B = rep.norm_A, rep.norm_B
    table = {"a": A, "A": A.inverse(), "b": B, "B": B.inverse()}
    out = GroupElement(1 + 0j, 0j, 0j, 1 + 0j)
    for x in w:
        out = _reference_mul(out, table[x])
    return out


def _reference_normalize(m):
    d = m.a * m.d - m.b * m.c
    scale = _reference_max_norm(m)
    if scale == 0.0 or abs(d) <= SINGULAR_FLOOR * scale * scale:
        raise SingularMatrix(f"determinant {d} too small relative to entries")
    s = cmath.sqrt(d)
    return GroupElement(m.a / s, m.b / s, m.c / s, m.d / s)


def _reference_is_identity(g, eps):
    direct = max(abs(g.a - 1), abs(g.b), abs(g.c), abs(g.d - 1))
    flipped = max(abs(g.a + 1), abs(g.b), abs(g.c), abs(g.d + 1))
    return min(direct, flipped) <= eps


def _reference_classify(g):
    if _reference_is_identity(g, CLASSIFY_BAND):
        return "identity"
    t = g.a + g.d
    t2 = t * t
    if abs(t2 - 4) <= CLASSIFY_BAND:
        return "parabolic"
    if abs(t.imag) <= CLASSIFY_BAND and t2.real < 4:
        return "elliptic"
    return "loxodromic"


def _reference_fixed_points(g, kind):
    if kind == "identity":
        raise IdentityElement("every point is fixed")
    a, b, c, d = g.a, g.b, g.c, g.d
    scale = _reference_max_norm(g)
    if abs(c) <= SINGULAR_FLOOR * scale:
        if kind == "parabolic":
            return (INFINITY, INFINITY)
        return tuple(sorted((b / (d - a), INFINITY), key=boundary_key))
    if kind == "parabolic":
        p = (a - d) / (2 * c)
        return (p, p)
    disc = (g.a + g.d) ** 2 - 4
    sq = cmath.sqrt(disc)
    t = a - d
    num = t + sq if abs(t + sq) >= abs(t - sq) else t - sq
    r1 = num / (2 * c)
    r2 = (-b / c) / r1 if r1 != 0 else 0j
    return tuple(sorted((r1, r2), key=boundary_key))


def _reference_crossing_position(m, eps, kind=None, raw=None):
    # keeps the two refusals the library dropped as unreachable ("endpoint
    # on a core end" and "disagrees with quadratic solve"), so every
    # comparison on real images also confirms that neither fires. raw, for
    # a pair, is the double altitude m normalizes: s and the floor are read
    # off its entries, relative to its unclamped entry scale, as the kernel
    # reads them, and the quadratic solve still runs on m
    if raw is None:
        raw, scale = m, max(1.0, _reference_max_norm(m))
    else:
        scale = _reference_max_norm(raw)
    if abs(raw.b) <= SINGULAR_FLOOR * scale or abs(raw.c) <= SINGULAR_FLOOR * scale:
        raise OrthogonalityViolation(
            "off-diagonal entry below the certifiable floor, axis endpoint "
            "indistinguishable from a core end"
        )
    s = 0.5 * math.log(abs(raw.b) / abs(raw.c))
    tr = m.a + m.d
    disc = tr * tr - 4
    if abs(disc) > 1e-10 * max(1.0, abs(tr) * abs(tr)):
        x, y = _reference_fixed_points(m, kind or _reference_classify(m))
        if x is INFINITY or y is INFINITY or x == 0 or y == 0:
            raise OrthogonalityViolation("quadratic solve put an endpoint on a core end")
        if abs(x + y) > eps * max(1.0, abs(x), abs(y)):
            raise OrthogonalityViolation(
                f"fixed points not antipodal: residual {abs(x + y):.3e}"
            )
        s_roots = 0.5 * (math.log(abs(x)) + math.log(abs(y)))
        if abs(s_roots - s) > max(eps, 1e-9 * max(1.0, abs(s))):
            raise OrthogonalityViolation(
                f"entry-ratio position {s:.6e} disagrees with quadratic solve "
                f"{s_roots:.6e}"
            )
    return s


def _reference_parabolic_end(m, eps):
    scale = max(1.0, _reference_max_norm(m))
    small_b = abs(m.b) <= eps * scale
    small_c = abs(m.c) <= eps * scale
    if small_c and not small_b:
        return math.inf
    if small_b and not small_c:
        return -math.inf
    raise OrthogonalityViolation("parabolic palindrome image does not fix a core end")


def _reference_palindrome_image(rep, w, block=BLOCK):
    # the first half is folded block letters a product, each slice's image
    # itself folded letter by letter from the identity; a half longer than
    # block is folded as the smaller text of itself and its reverse, and
    # the image of the reverse is the half's with its diagonal entries
    # swapped; block=None folds the half letter by letter, as the library
    # did before its blocks table
    half = len(w) // 2
    u = w[:half]
    if block is None:
        m = _reference_evaluate(rep, u)
    else:
        text = min(u, u[::-1]) if half > block else u
        m = GroupElement(1 + 0j, 0j, 0j, 1 + 0j)
        for i in range(0, half, block):
            m = _reference_mul(m, _reference_evaluate(rep, text[i:i + block]))
        if text != u:
            m = GroupElement(m.d, m.b, m.c, m.a)
    al, be, ga, de = m.a, m.b, m.c, m.d
    bg, ad = be * ga, al * de
    diag = 1 + 2 * bg if abs(bg) <= abs(ad) else 2 * ad - 1
    if len(w) % 2 == 0:
        return GroupElement(diag, 2 * al * be, 2 * ga * de, diag)
    e, f, g, _ = rep.letters[w[half]]
    diag = e * diag + g * be * de + f * al * ga
    return GroupElement(
        diag,
        2 * e * al * be + g * be * be + f * al * al,
        2 * e * ga * de + g * de * de + f * ga * ga,
        diag,
    )


def _reference_palindrome_position(w, m):
    kind = _reference_classify(m)
    if kind == "identity":
        raise IdentityImage(f"{w!r} evaluates to the identity")
    eps = DEFAULT_GEO * max(1, len(w))
    if kind == "parabolic":
        return PiImage(_reference_parabolic_end(m, eps), PARABOLIC_END, kind)
    return PiImage(_reference_crossing_position(m, eps, kind), PALINDROME_WORD, kind)


def _reference_pair_position(u, v, U, V):
    uv, vu = _reference_mul(U, V), _reference_mul(V, U)
    uvvu = _reference_mul(uv, vu)
    t_raw = uvvu - _reference_mul(vu, uv)
    scale = _reference_max_norm(uvvu)
    if not all(map(cmath.isfinite, t_raw)):
        raise OrthogonalityViolation("image overflowed: an entry is not finite")
    if _reference_max_norm(t_raw) <= CLASSIFY_BAND * max(1.0, scale):
        raise CommutingPair(f"images of {u!r} and {v!r} commute")
    eps = DEFAULT_GEO * max(1, len(u) + len(v))
    t = _reference_normalize(t_raw)
    return PiImage(_reference_crossing_position(t, eps, raw=t_raw), PALINDROME_PAIR,
                   _reference_classify(uv))


def _reference_slope(rep, node):
    """The slope's position from the fold of its whole word, or of both
    its factors, from the identity."""
    if node.factorization is None:
        image = _reference_evaluate(rep, node.word)
        return _reference_palindrome_position(node.word, image)
    u, v = node.factorization
    return _reference_pair_position(
        u, v, _reference_evaluate(rep, u), _reference_evaluate(rep, v)
    )


_MODULUS_OVERFLOWED = "image overflowed: an entry's modulus is past the float range"


def _refusal(exc):
    return f"{type(exc).__name__}: {exc}"


def _bits(image):
    return (image.s.hex(), image.source, image.element_class)


def _outcome(position):
    """What a position call gave: the bits of s with source and class, or
    the refusal's type and text."""
    try:
        return _bits(position())
    except PalcoreError as exc:
        return _refusal(exc)


def witness_candidate_outcomes(rep, max_conj_power, max_word_len):
    """(word, outcome) for every candidate of witness_search(rep,
    max_conj_power, max_word_len), recorded at its pi_of_palindrome call,
    in the order the search visits them. The search must find no witness,
    so it visits all of them."""
    probe_module = sys.modules["palcore.probe"]
    seen = []

    def recorder(rep_, word):
        try:
            image = pi_of_palindrome(rep_, word)
        except PalcoreError as exc:
            seen.append((word, _refusal(exc)))
            raise
        seen.append((word, _bits(image)))
        return image

    probe_module.pi_of_palindrome = recorder
    try:
        assert witness_search(rep, max_conj_power, max_word_len) is None
    finally:
        probe_module.pi_of_palindrome = pi_of_palindrome
    vocabulary = sum(4 * 3 ** (k - 1) for k in range(1, max_word_len + 1))
    assert len(seen) == vocabulary * vocabulary * max_conj_power * 2
    return seen


def assert_witness_candidates_match_the_element_route(rep, max_conj_power, max_word_len):
    """Every candidate of witness_search(rep, max_conj_power, max_word_len)
    has the outcome of the element route, refusal texts included; returns
    how many the search visited."""
    seen = witness_candidate_outcomes(rep, max_conj_power, max_word_len)
    reference = [
        _outcome(lambda: _reference_palindrome_position(
            w, _reference_palindrome_image(rep, w)))
        for w, _ in seen
    ]
    assert [outcome for _, outcome in seen] == reference
    return len(seen)


def test_witness_grid_candidates_match_the_element_route(mu_half):
    # CI runs the (12, 3) grid of the benchmark on the same four pairs
    assert assert_witness_candidates_match_the_element_route(mu_half, 6, 2) == 3072


@pytest.mark.parametrize("name", sorted(set(GENERATORS) - {"mu_half"}))
def test_witness_grid_candidates_match_the_element_route_on_other_pairs(name):
    # the three control pairs besides mu_half, the Schottky pair's
    # loxodromic generators among them
    rep = build(*GENERATORS[name])
    assert assert_witness_candidates_match_the_element_route(rep, 6, 2) == 3072


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_witness_candidates_do_not_depend_on_call_order(name):
    # pi_of_palindrome keeps the fold of the last long half in a one-entry
    # cache, keyed on the smaller text of the half and its reverse; each
    # candidate's outcome must be the same in the search's order, in the
    # reverse order and with the cache cleared before each call
    rep = build(*GENERATORS[name])
    seen = witness_candidate_outcomes(rep, 6, 2)
    in_order = [outcome for _, outcome in seen]

    def cleared(w):
        _half_image.cache_clear()
        return pi_of_palindrome(rep, w)

    backwards = [_outcome(lambda: pi_of_palindrome(rep, w)) for w, _ in reversed(seen)]
    assert backwards[::-1] == in_order
    assert [_outcome(lambda: cleared(w)) for w, _ in seen] == in_order


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_every_half_length_keeps_the_block_fold(name):
    # pi_of_palindrome folds a half of more than BLOCK letters as the
    # smaller of itself and its reverse, in BLOCK-letter slices: every half
    # length from 0 to 3 BLOCK + 1, even and odd, puts the last slice on
    # each side of each block boundary, and each must keep the outcome of
    # the element route
    rep = build(*GENERATORS[name])
    rng = random.Random(3)
    words = []
    for half in range(3 * BLOCK + 2):
        for _ in range(8):
            u = random_word(rng, half)
            words.append(Word(u + reverse(u)))
            middle = rng.choice([x for x in LETTERS if not u or x != u[-1].swapcase()])
            words.append(Word(u + middle + reverse(u)))
    assert sorted({len(w) for w in words}) == list(range(2 * (3 * BLOCK + 1) + 2))
    got = [_outcome(lambda: pi_of_palindrome(rep, w)) for w in words]
    reference = [
        _outcome(lambda: _reference_palindrome_position(
            w, _reference_palindrome_image(rep, w)))
        for w in words
    ]
    assert got == reference


# The palindrome route as the library ran it before its lean form: the
# half folded by sl2c.product from the identity, and the antipodality test
# run on every image, equal diagonal entries included. The lean route
# starts the fold at the first block and tests only where a != d; the
# identity product changes no entry but the sign of a zero, and a residual
# of 0 never refuses, so every outcome must be the same. Both fold a half
# of more than BLOCK letters as the smaller text of itself and its
# reverse, and swap the diagonal entries when the reverse was folded.


def _identity_fold_image(rep, w):
    half = len(w) // 2
    u = w[:half]
    text = min(u, u[::-1]) if half > BLOCK else u
    slices = [text[i:i + BLOCK] for i in range(0, half, BLOCK)]
    al, be, ga, de = product(IDENTITY, map(rep.blocks.__getitem__, slices))
    if text != u:
        al, de = de, al
    bg, ad = be * ga, al * de
    diag = 1 + 2 * bg if abs(bg) <= abs(ad) else 2 * ad - 1
    if len(w) % 2 == 0:
        return (diag, 2 * al * be, 2 * ga * de, diag)
    e, f, g, _ = rep.letters[w[half]]
    diag = e * diag + g * be * de + f * al * ga
    return (
        diag,
        2 * e * al * be + g * be * be + f * al * al,
        2 * e * ga * de + g * de * de + f * ga * ga,
        diag,
    )


def _unguarded_crossing_position(m, eps):
    a, b, c, d = m
    if not all(map(cmath.isfinite, m)):
        raise OrthogonalityViolation("image overflowed: an entry is not finite")
    try:
        abs_c = abs(c)
        scale = max(1.0, abs(a), abs(b), abs_c, abs(d))
        if abs(b) <= SINGULAR_FLOOR * scale or abs_c <= SINGULAR_FLOOR * scale:
            raise OrthogonalityViolation(
                "off-diagonal entry below the certifiable floor, axis endpoint "
                "indistinguishable from a core end"
            )
        ratio = abs(b) / abs_c
        residual = abs(a - d) / abs_c
        if residual > eps * max(1.0, math.sqrt(ratio)):
            raise OrthogonalityViolation(
                f"fixed points not antipodal: residual {residual:.3e}"
            )
        return 0.5 * math.log(ratio)
    except OverflowError:
        raise OrthogonalityViolation(_MODULUS_OVERFLOWED) from None


def _identity_fold_position(rep, w):
    m = _identity_fold_image(rep, w)
    try:
        kind = classify(m)
    except OverflowError:
        raise OrthogonalityViolation(_MODULUS_OVERFLOWED) from None
    if kind == "identity":
        raise IdentityImage(f"{w!r} evaluates to the identity")
    eps = geo_scaled(len(w))
    if kind == "parabolic":
        return PiImage(parabolic_end_by_steps(m, eps), PARABOLIC_END, kind)
    return PiImage(_unguarded_crossing_position(m, eps), PALINDROME_WORD, kind)


# a complex pair whose depth-14 images overflow
_COMPLEX_PAIR = (GroupElement(2, 1, 1, 1), GroupElement(1, 0, 0.3 + 2.1j, 1))


def _doubles(u):
    """The palindromes u reverse(u) and reverse(u) u of a Word u."""
    return [u * reverse(u), reverse(u) * u]


@pytest.mark.parametrize("name", ["mu_half", "mu4", "complex"])
def test_lean_palindrome_route_keeps_every_outcome(name, request):
    rep = build(*_COMPLEX_PAIR) if name == "complex" else request.getfixturevalue(name)
    vocabulary = list(reduced_words(2))
    # the empty word and every palindrome of 1 or 2 letters, whose half is
    # empty or a single block, then every candidate of witness_search(6, 2),
    # then longer pushes, of up to 3,206 letters, whose images overflow on
    # every pair or, on mu_half, are parabolic off the core ends
    words = [Word(), *map(Word, LETTERS), *(Word(x + x) for x in LETTERS)]
    for c in vocabulary:
        for d in vocabulary:
            for n in range(1, 7):
                words.extend(_doubles(c ** n * d * c ** -n))
    for c, d in ((Word("ab"), Word("b")), (Word("ab"), Word("Aba"))):
        for n in (8, 150, 400):
            words.extend(_doubles(c ** n * d * c ** -n))
    assert len(words) == 9 + 16 * 16 * 6 * 2 + 12
    got = [_outcome(lambda: pi_of_palindrome(rep, w)) for w in words]
    reference = [_outcome(lambda: _identity_fold_position(rep, w)) for w in words]
    assert got == reference
    assert got[0] == "IdentityImage: Word(identity) evaluates to the identity"
    refusals = {outcome.split(":")[0] for outcome in got if isinstance(outcome, str)}
    assert "OrthogonalityViolation" in refusals


_SPECTRUM_REPS = ("rep1", "schottky", "mu4", "mu_half", "random0", "random1")


def _short_palindromes():
    """Every palindrome of up to 2 BLOCK + 1 letters: u reverse(u) and
    u x reverse(u) for each reduced u of at most BLOCK letters."""
    for u in ("", *reduced_words(BLOCK)):
        if u:
            yield Word(u + u[::-1])
        for x in LETTERS:
            if not u or x != u[-1].swapcase():
                yield Word(u + x + u[::-1])


@pytest.mark.parametrize("name", _SPECTRUM_REPS)
def test_short_palindromes_keep_the_letter_fold(name, request):
    # a first half of at most BLOCK letters is one rep.blocks entry, which
    # the table built letter by letter, so these palindromes keep the bits
    # of the fold the library ran before it had the table
    if name.startswith("random"):
        rep = random_representation(int(name[len("random"):]))
    else:
        rep = request.getfixturevalue(name)
    words = list(_short_palindromes())
    assert len(words) == 4 + 1456 * 4 and max(map(len, words)) == 2 * BLOCK + 1
    got = [_outcome(lambda: pi_of_palindrome(rep, w)) for w in words]
    reference = [
        _outcome(lambda: _reference_palindrome_position(
            w, _reference_palindrome_image(rep, w, block=None)))
        for w in words
    ]
    assert got == reference


@pytest.mark.parametrize("name", _SPECTRUM_REPS)
def test_spectrum_matches_the_element_route(name, request):
    if name.startswith("random"):
        rep = random_representation(int(name[len("random"):]))
    else:
        rep = request.getfixturevalue(name)
    # every pair position, and every image one reads, keeps the bits of the
    # element route; an even slope on the last level is one product of its
    # parents' images and keeps its refusal text, source and class
    got = [e.error if e.image is None else _bits(e.image) for e in pi_spectrum(rep, 10)]
    nodes = enumerate_farey(10)
    reference = [_outcome(lambda: _reference_slope(rep, node)) for node in nodes]
    assert_matches_full_folds(nodes, 10, got, reference, s_at=0)
    # every pair has slopes refused as commuting pairs at this depth
    assert any(isinstance(outcome, str) for outcome in reference)


def _crossing(m, length):
    """_crossing_position of the entries m, given the moduli and entry
    scale the kernel takes."""
    a, b, c, d = m
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
    return _crossing_position(a, d, abs(b), abs(c), scale, length)


# entries reaching each refusal of _crossing_position that finite entries
# can reach, with eps and the kind the element route is given. The first
# case has unequal diagonal entries, which the antipodality test refuses
# (see test_unequal_diagonal_is_refused_as_not_antipodal). The second
# floor case is refused only because the scale of entries below 1 is taken
# as 1. The last case is unimodular, c = (ad - 1)/b, as every image the
# kernel sees is: there both routes read a residual of 1.667e+03.
_CROSSING_REFUSALS = [
    ((2, 1, 1, 1), 1e-6, None, "fixed points not antipodal: residual 1.000e+00"),
    ((1, 1e-20, 1, 1), 1e-6, None, "below the certifiable floor"),
    ((0.5, 9e-13, 0.5, 0.5), 1e-6, None, "below the certifiable floor"),
    ((2.025, 1e5, 2.999375e-5, 1.975), 1e-6, None, "fixed points not antipodal"),
]


@pytest.mark.parametrize("entries, eps, kind, refusal", _CROSSING_REFUSALS)
def test_crossing_refusals_match_the_element_route(entries, eps, kind, refusal):
    # each case is read as the image of one generator matrix, whose
    # tolerance is the reference's eps
    assert geo_scaled(1) == eps
    entries = tuple(complex(x) for x in entries)
    got = _outcome(lambda: PiImage(_crossing(entries, 1), "", ""))
    reference = _outcome(lambda: PiImage(
        _reference_crossing_position(GroupElement(*entries), eps, kind), "", ""))
    assert got == reference
    assert got.startswith("OrthogonalityViolation: ") and refusal in got


def test_antipodality_residual_is_the_root_sum_of_the_entries():
    # determinant 3: the element route's solve, which assumes determinant 1,
    # reads 1.188e+05 here, while the fixed points sum to |a - d|/|c|
    with pytest.raises(OrthogonalityViolation, match="residual 5.000e[+]03$"):
        _crossing((2.025 + 0j, 1e5 + 0j, 1e-5 + 0j, 1.975 + 0j), 1)


_entry_part_st = st.floats(-1e3, 1e3)
_entry_st = st.builds(complex, _entry_part_st, _entry_part_st)
# the second diagonal entry: None for d = a, as in a palindrome image
_diagonal_st = st.none() | _entry_st


def _unimodular(a, b, d=None):
    """Entries (a, b, (a*d - 1)/b, d) of a unimodular matrix, with d = a
    when d is None, past the floor. The modulus of c must be finite: a
    larger one is refused as overflowed (see
    test_overflowing_modulus_is_refused)."""
    assume(b != 0)
    if d is None:
        d = a
    m = (a, b, (a * d - 1) / b, d)
    assume(math.isfinite(math.hypot(m[2].real, m[2].imag)))
    scale = max(1.0, *map(abs, m))
    assume(min(abs(m[1]), abs(m[2])) > SINGULAR_FLOOR * scale)
    return m


def _unimodular_roots(a, b, d=None):
    """_unimodular's matrix, not parabolic (those images get a core-end
    tag), with the roots fixed_points gives it."""
    m = _unimodular(a, b, d)
    assume(classify(m) in ("loxodromic", "elliptic"))
    return m, fixed_points(m)


@given(_entry_st, _entry_st, _entry_st, st.integers(1, 4096))
def test_unequal_diagonal_is_refused_as_not_antipodal(a, b, d, length):
    """Why _crossing_position has no diagonal test of its own: its Vieta
    test passes only when |a - d| <= eps max(|c|, sqrt|bc|), which is at
    most eps times the scale, so a unimodular matrix past the floor whose
    diagonal entries differ by more than that is refused as not
    antipodal."""
    m = _unimodular(a, b, d)
    assume(abs(a - d) > geo_scaled(length) * max(1.0, *map(abs, m)))
    with pytest.raises(OrthogonalityViolation, match="fixed points not antipodal"):
        _crossing(m, length)


# (2, 3) is the symmetric matrix [[2, 3], [1, 2]]: it reached "endpoint on
# a core end" only under a misstated kind "parabolic"; the second example
# has a c whose modulus overflows, which the helper excludes
@example(2 + 0j, 3 + 0j, None)
@example(28 + 979j, 5.335847002636874e-303j, None)
@example(2 + 0j, 3 + 0j, 1 + 0j)
@given(_entry_st, _entry_st, _diagonal_st)
def test_quadratic_roots_stay_off_the_core_ends(a, b, d):
    """fixed_points gives a unimodular matrix that is past the floor and
    neither parabolic nor the identity two finite nonzero roots: r and
    (-b/c)/r, with r the root of the larger numerator."""
    _, roots = _unimodular_roots(a, b, d)
    for root in roots:
        assert root is not INFINITY and cmath.isfinite(root) and root != 0


# (3, 1e5, 8e-5, 3) is the equal-diagonal neighbour of (3, 1e5, 1e-3, 1),
# which reached "disagrees with quadratic solve" only under "parabolic"
@example(3 + 0j, 1e5 + 0j, None)
@example(3 + 0j, 1e5 + 0j, 1 + 0j)
@given(_entry_st, _entry_st, _diagonal_st)
def test_quadratic_solve_agrees_with_the_entry_ratio(a, b, d):
    """The roots fixed_points gives multiply to -b/c, so their mean log is
    s = ln|b/c| / 2, the position _crossing_position reads off the
    entries, whether or not the diagonal is equal."""
    m, (x, y) = _unimodular_roots(a, b, d)
    s = 0.5 * math.log(abs(m[1] / m[2]))
    s_roots = 0.5 * (math.log(abs(x)) + math.log(abs(y)))
    assert abs(s_roots - s) <= 1e-12 * max(1.0, abs(s))


# n/1024 for |n| <= 2**20: a*d, a*d - 1 and (a + d)**2 are exact in
# floats, and so is c = (a*d - 1)/b for b a power of two times a unit, so
# the matrix is unimodular without rounding and only the solve rounds
_dyadic_part_st = st.integers(-2**20, 2**20).map(lambda n: n / 1024)
_dyadic_st = st.builds(complex, _dyadic_part_st, _dyadic_part_st)
_power_st = st.builds(
    lambda unit, k: unit * 2.0 ** k,
    st.sampled_from((1 + 0j, -1 + 0j, 1j, -1j)),
    st.integers(-20, 20),
)


@example(3 + 0j, 1024 + 0j, 1 + 0j)
@given(_dyadic_st, _power_st, _dyadic_st)
def test_root_sum_is_the_entry_ratio(a, b, d):
    """Why _crossing_position reads antipodality off the entries: by
    Vieta's formulas the fixed points of a unimodular [[a, b], [c, d]] sum
    to (a - d)/c, so the solve's |x + y| is |a - d|/|c| up to the rounding
    of its roots."""
    m, (x, y) = _unimodular_roots(a, b, d)
    assert a * d - b * m[2] == 1
    assert abs(abs(x + y) - abs(a - d) / abs(m[2])) <= 1e-14 * max(abs(x), abs(y))


# traces near the parabolic +/-2, near the elliptic 2i and 0, near +/-3.2,
# where |tr|^2 passes 10, and anywhere, offset at every scale down to 1e-12
_trace_st = st.builds(
    lambda centre, re, im, e: centre + complex(re, im) * 10.0 ** -e,
    st.sampled_from((2, -2, 2j, -2j, 0, 3.2, -3.2)),
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.integers(0, 12),
) | _entry_st


# the trace 2 + 5e-11 has |tr^2 - 4| = 2e-10, inside the gate's bound
# 4e-10: classify calls it parabolic, as any band of 2e-10 or more would
@example(2 + 5e-11 + 0j, 0j, 1 + 0j, 1 + 0j)
@given(_trace_st, _entry_st, _entry_st, _entry_st)
def test_the_discriminant_gate_was_open_past_classify(tr, h, b, c):
    """Why _crossing_position lost its discriminant gate, which ran the
    quadratic cross-check only when |tr^2 - 4| > 1e-10 max(1, |tr|^2):
    every matrix classify calls loxodromic or elliptic passes it while
    |tr|^2 is finite. Where |tr|^2 <= 10 the gate's bound is at most
    1e-9 = CLASSIFY_BAND, inside which classify answers parabolic; past
    10, |tr^2 - 4| > 0.6 |tr|^2. The gate closed only where |tr|^2
    overflowed, past |tr| ~ 1.3e154, since inf > inf is false; the Vieta
    test now checks those images too."""
    m = (tr / 2 + h, b, c, tr / 2 - h)
    assume(classify(m) in ("loxodromic", "elliptic"))
    t = m[0] + m[3]
    abs_t = abs(t)
    assert abs(t * t - 4) > 1e-10 * max(1.0, abs_t * abs_t)


@pytest.mark.parametrize("factor", [1.001, 0.999])
def test_the_floor_caps_positions_at_the_ceiling(factor):
    """No certified |s| exceeds CERTIFIABLE_CEILING. The elliptic image
    [[1/2, b], [-3/(4b), 1/2]] has |b| = sqrt(3/4 SINGULAR_FLOOR) times
    factor: just past the floor it is positioned within 1e-3 of the
    ceiling, and just short of it, refused."""
    b = math.sqrt(0.75 * SINGULAR_FLOOR) * factor
    m = (0.5 + 0j, b + 0j, -0.75 / b + 0j, 0.5 + 0j)
    if factor < 1:
        with pytest.raises(OrthogonalityViolation, match="below the certifiable floor"):
            _crossing(m, 1)
    else:
        s = _crossing(m, 1)
        assert CERTIFIABLE_CEILING - 1e-3 < abs(s) < CERTIFIABLE_CEILING


def test_overflowed_slope_image_is_refused(mu4):
    # UVVU - VUUV overflows for this depth-13 slope of mu = 4; the NaN
    # double altitude used to come back as s = NaN
    with pytest.raises(OrthogonalityViolation, match="image overflowed"):
        rational_pi(mu4, 467, 129)


def test_overflowing_modulus_is_refused():
    # finite parts whose modulus abs() cannot hold: c = (a*a - 1)/b of the
    # matrix test_quadratic_roots_stay_off_the_core_ends excludes. The
    # OverflowError is caught once per position, around all of its steps
    a, b = 28 + 979j, 5.335847002636874e-303j
    m = (a, b, (a * a - 1) / b, a)
    assert all(map(cmath.isfinite, m))
    with pytest.raises(OrthogonalityViolation, match=_MODULUS_OVERFLOWED):
        _palindrome_position("a", m)


@pytest.mark.parametrize("rep, slope", [
    # a palindrome image whose classification took abs() of such an entry
    (lambda: build(*_COMPLEX_PAIR), (203, 288)),
    # a factor pair whose products have such entries
    (lambda: random_representation(0), (359, 259)),
])
def test_slope_images_past_the_float_range_are_refused(rep, slope):
    with pytest.raises(OrthogonalityViolation, match=_MODULUS_OVERFLOWED):
        rational_pi(rep(), *slope)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("entries", [
    (_NAN, _NAN, _NAN, _NAN),
    (_NAN, 2, 1, _NAN),
    (_INF, 2, 1, _INF),
    (1, complex(0, _NAN), 1, 1),
    (1, 1, complex(_INF, 0), 1),
    (2, 3, 1, complex(-_INF, 1)),
    # a NaN entry beside an off-diagonal entry within CLASSIFY_BAND, which
    # classify reads as the identity: these were refused as IdentityImage
    (1, _NAN, 0, 1),
    (1, 1e-300, _NAN, 1),
])
def test_non_finite_entries_are_refused(entries):
    # the palindrome route tests its image once, before it is classified
    entries = tuple(complex(x) for x in entries)
    with pytest.raises(OrthogonalityViolation,
                       match="^image overflowed: an entry is not finite$"):
        _palindrome_position(Word("aba"), entries)


# a complex Riley pair near the boundary of the Riley slice, whose depth-16
# images have entries near the float maximum
_NEAR_BOUNDARY_MU = 0.773301174242 + 1.467711508710j
_DBL_MAX = sys.float_info.max


def test_depth_16_slope_near_the_float_maximum_is_positioned():
    # the complex quotient b/c of these entries overflows its intermediate
    # denominator and comes back 0, whose log used to raise ValueError
    rep = build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, _NEAR_BOUNDARY_MU, 1))
    image = rational_pi(rep, 772, 565)
    exact = exact_riley_position(str(primitive_word(772, 565).word), _NEAR_BOUNDARY_MU)
    assert math.isfinite(image.s)
    assert abs(image.s - exact) <= 1e-9


def test_entries_near_the_float_maximum_give_a_finite_position():
    # the image of that slope's 1,337-letter word, formed as one product of
    # its parents' images: complex(1e308, 0) / complex(1e308, 1e308) is -0j
    m = (
        -4.796170046492102e307 + 7.473143138215651e307j,
        4.939640517257595e307 + 1.4092718489115298e307j,
        -9.977382810177033e307 - 1.166564360782903e308j,
        -4.796170046492084e307 + 7.473143138215653e307j,
    )
    image = _palindrome_position(primitive_word(772, 565).word, m)
    assert image.source == PALINDROME_WORD and math.isfinite(image.s)


# entry parts anywhere in the float range, with its ends, infinities and NaN
# drawn often
_extreme_part_st = st.floats() | st.sampled_from(
    (0.0, 1.0, -1.0, 1e308, -1e308, _DBL_MAX, -_DBL_MAX, _INF, -_INF, _NAN)
)
_extreme_entry_st = st.builds(complex, _extreme_part_st, _extreme_part_st)
_extreme_matrix_st = st.tuples(*[_extreme_entry_st] * 4)


def _ends_in_a_position_or_a_refusal(position):
    try:
        image = position()
    except PalcoreError:
        return
    assert not math.isnan(image.s)


@example((0j, complex(1e308, 0), complex(1e308, 1e308), 0j), 1)
@given(_extreme_matrix_st, st.integers(1, 2000))
def test_palindrome_position_of_any_entries_is_a_position_or_a_refusal(m, length):
    _ends_in_a_position_or_a_refusal(lambda: _palindrome_position("a" * length, m))


# The palindrome kernel against the chain it folded into one pass:
# classify, then the parabolic-end tag or the crossing, each step taking
# the moduli and the entry scale again (tests/oracles.py). Entries are
# drawn anywhere in the float range, near the identity, near a unipotent
# triangular matrix, and unimodular, each with equal diagonal entries, as
# a palindrome image has them, or not.

_offset_st = st.builds(
    lambda x, e: x * 10.0 ** -e, st.floats(-1, 1), st.integers(0, 320)
)
_small_entry_st = st.builds(complex, _offset_st, _offset_st)
_kernel_part_st = _extreme_part_st | _offset_st | st.builds(
    lambda centre, x: centre + x, st.sampled_from((1.0, -1.0, 2.0, -2.0)), _offset_st
)
_kernel_entry_st = st.builds(complex, _kernel_part_st, _kernel_part_st)
_moderate_entry_st = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@st.composite
def _kernel_entries_st(draw):
    shape = draw(st.sampled_from(("any", "identity", "parabolic", "unimodular")))
    equal_diagonal = draw(st.booleans())
    if shape == "any":
        a, b, c, d = draw(st.tuples(*[_kernel_entry_st] * 4))
    elif shape == "unimodular":
        a, b, d = draw(st.tuples(*[_moderate_entry_st] * 3))
        if equal_diagonal:
            d = a
        c = (a * d - 1) / b if b else draw(_small_entry_st)
    else:
        sign = draw(st.sampled_from((1.0, -1.0)))
        a, b, c, d = (draw(_small_entry_st) for _ in range(4))
        a, d = sign + a, sign + d
        if shape == "parabolic":
            far = draw(_kernel_entry_st)
            b, c = draw(st.sampled_from(((far, c), (b, far))))
    return (a, b, c, a if equal_diagonal else d)


_BIG = complex(1e308, 1e308)


@example((_BIG, 1 + 0j, 1 + 0j, _BIG), 1)
@example((1 + 0j, _BIG, 1e-300 + 0j, 2 + 0j), 3)
@example((complex(_NAN), 1 + 0j, 1 + 0j, complex(_NAN)), 1)
@example((complex(_INF), 2 + 0j, 1 + 0j, complex(-_INF)), 1)
@example((1 + 1e-12 + 0j, 1e-11 + 0j, 0j, 1 + 1e-12 + 0j), 1)
@example((1 + 1e-12 + 0j, 5 + 0j, 1e-12 + 0j, 1 + 1e-12 + 0j), 7)
@example((-1 + 0j, 1e-12j, 5 + 0j, -1 + 0j), 7)
@example((2 + 0j, 3 + 0j, 1 + 0j, 2 + 0j), 1)
@example((2 + 0j, 1 + 0j, 1 + 0j, 1 + 0j), 1)
# below the floor only because the scale of entries below 1 is taken as 1
@example((0.5 + 0j, 9e-13 + 0j, 0.5 + 0j, 0.5 + 0j), 1)
# parabolic with |c| between geo_scaled(1) and geo_scaled(2) times the
# scale 5: it fixes no core end at length 1
@example((1 + 0j, 5 + 0j, 7e-6 + 0j, 1 + 0j), 1)
@given(_kernel_entries_st(), st.integers(1, 5000))
def test_palindrome_kernel_matches_the_chain_of_steps(m, length):
    w = Word("a" * length)
    got = _outcome(lambda: _palindrome_position(w, m))
    assert got == _outcome(lambda: palindrome_position_by_steps(w, m))


@given(_extreme_matrix_st, _extreme_matrix_st)
def test_pair_position_of_any_entries_is_a_position_or_a_refusal(U, V):
    _ends_in_a_position_or_a_refusal(lambda: _pair_position("a", "b", U, V))
