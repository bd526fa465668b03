"""Normalized representations and the position map: frame construction,
palindrome positions, pair positions, hexagons, rational indexing."""

import math
import random
import sys

import pytest

from palcore.config import geo_scaled
from palcore.errors import (
    CommutingPair,
    DegenerateAxis,
    ElementaryGroup,
    IdentityImage,
    NotPalindrome,
    PalcoreError,
    TrivialPalindromization,
)
from palcore.farey import primitive_word
from palcore.geodesics import Geodesic
from palcore.representation import (
    BLOCK,
    PALINDROME_PAIR,
    PALINDROME_WORD,
    PARABOLIC_END,
    Representation,
    _palindrome_position,
    build,
    hexagon,
    palindromize,
    pi_of_pair,
    pi_of_palindrome,
    rational_pi,
    rep_from_json,
)
from palcore.probe import pi_spectrum, witness_search
from palcore.sl2c import (
    IDENTITY,
    INFINITY,
    GroupElement,
    chordal_distance,
)
from palcore.words import LETTERS, Word, evaluate, reduced_words, reverse

from .conftest import (
    exact_riley_position,
    hyperbolic_on_axis,
    position_on_vertical_axis,
    random_mobius,
    random_palindrome,
    random_representation,
)
from .oracles import (
    evaluate_normalized,
    geodesic_distance,
    orthogonality_residual,
    pair_perpendicular_by_axes,
    psl_distance,
)

LN2 = math.log(2)


class TestBuild:
    def test_normalizer_sends_core_to_vertical(self):
        for seed in range(8):
            rep = random_representation(seed)
            e1, e2 = rep.core.endpoints()
            assert chordal_distance(rep.normalizer.apply(e1), 0j) < 1e-9
            assert rep.normalizer.apply(e2) is INFINITY or chordal_distance(
                rep.normalizer.apply(e2), INFINITY
            ) < 1e-9

    def test_normalized_generators_are_conjugates(self):
        rep = random_representation(3)
        n = rep.normalizer
        assert psl_distance(rep.norm_A, n * rep.A * n.inverse()) <= 1e-9
        assert psl_distance(rep.norm_B, n * rep.B * n.inverse()) <= 1e-9

    def test_shared_axis_is_elementary(self):
        A = hyperbolic_on_axis(1.0, 1.5)
        B = hyperbolic_on_axis(1.0, 2.5)
        with pytest.raises(ElementaryGroup):
            build(A, B)

    @pytest.mark.parametrize("scale", [1, -2])
    def test_identity_generator_is_elementary(self, scale):
        identity = GroupElement(scale, 0, 0, scale)
        parabolic = GroupElement(1, 0, 4, 1)
        for pair in ((identity, parabolic), (parabolic, identity)):
            with pytest.raises(ElementaryGroup, match="a generator is the identity"):
                build(*pair)

    def test_commuting_parabolics_are_elementary(self):
        with pytest.raises(ElementaryGroup):
            build(GroupElement(1, 1, 0, 1), GroupElement(1, 2, 0, 1))

    def test_json_document_must_be_an_object(self):
        with pytest.raises(ValueError, match=r"must be an object.*got \[1, 2\]"):
            rep_from_json([1, 2])

    def test_json_round_trip(self):
        rep = random_representation(5)
        again = rep_from_json(rep.to_json())
        assert psl_distance(again.norm_A, rep.norm_A) <= 1e-12
        assert psl_distance(again.norm_B, rep.norm_B) <= 1e-12

    def test_representations_compare_by_identity(self):
        rep, again = random_representation(5), random_representation(5)
        assert rep.to_json() == again.to_json()
        assert rep == rep and rep != again
        assert len({rep, again, rep}) == 2
        fields = ("A", "B", "core", "normalizer", "norm_A", "norm_B", "letters")
        assert tuple(vars(rep)) == fields
        assert repr(rep).startswith(f"Representation(A={rep.A!r}, B={rep.B!r}, core=")


class TestRep1Oracles:
    """Fuchsian pair with axes [-1, 1] and [-2, 2]: positions are known in
    closed form, frozen here to full precision."""

    def test_core_is_vertical(self, rep1):
        assert geodesic_distance(rep1.core, Geodesic(0j, INFINITY)) < 1e-12

    def test_normalizer_is_identity(self, rep1):
        assert psl_distance(rep1.normalizer, IDENTITY) <= 1e-12

    def test_generator_positions(self, rep1):
        assert abs(pi_of_palindrome(rep1, Word("a")).s) < 1e-12
        assert abs(pi_of_palindrome(rep1, Word("b")).s - LN2) < 1e-12

    def test_longer_palindromes(self, rep1):
        assert abs(pi_of_palindrome(rep1, Word("aba")).s - 0.07940627756620297) < 1e-10
        assert abs(pi_of_palindrome(rep1, Word("bab")).s - 0.6137409029937423) < 1e-10

    def test_pair_position_is_midpoint(self, rep1):
        img = pi_of_pair(rep1, Word("a"), Word("b"))
        assert abs(img.s - LN2 / 2) < 1e-12
        assert img.source == PALINDROME_PAIR

    def test_image_metadata(self, rep1):
        img = pi_of_palindrome(rep1, Word("aba"))
        assert img._fields == ("s", "source", "element_class")
        assert img.source == PALINDROME_WORD
        assert img.element_class == "loxodromic"
        assert img.finite
        # the word is the caller's, written only when a report passes it
        assert img.to_json(str(Word("aba"))) == {
            "s": img.s, "source": PALINDROME_WORD, "word": "aba", "class": "loxodromic",
        }


class TestConjugationInvariance:
    """The core orientation is pinned by lex order of the original
    endpoints, which a Moebius map can reverse; positions are therefore
    frame independent up to one global sign."""

    def test_positions_are_frame_independent_up_to_orientation(self, rep1):
        rng = random.Random(17)
        words = [Word(t) for t in ("a", "b", "aba", "bab", "abbba")]
        base = [pi_of_palindrome(rep1, w).s for w in words]
        for _ in range(5):
            m = random_mobius(rng)
            moved = build(m * rep1.A * m.inverse(), m * rep1.B * m.inverse())
            vals = [pi_of_palindrome(moved, w).s for w in words]
            residual = min(
                max(abs(s0 - sign * s1) for s0, s1 in zip(base, vals))
                for sign in (1.0, -1.0)
            )
            assert residual < 1e-9

    def test_pair_positions_follow_the_same_orientation(self, rep1):
        rng = random.Random(18)
        words = [Word(t) for t in ("a", "b", "bab")]
        for _ in range(5):
            m = random_mobius(rng)
            moved = build(m * rep1.A * m.inverse(), m * rep1.B * m.inverse())
            base = [pi_of_palindrome(rep1, w).s for w in words]
            vals = [pi_of_palindrome(moved, w).s for w in words]
            sign = min((1.0, -1.0), key=lambda sg: max(
                abs(s0 - sg * s1) for s0, s1 in zip(base, vals)
            ))
            s0 = pi_of_pair(rep1, Word("a"), Word("b")).s
            s1 = pi_of_pair(moved, Word("a"), Word("b")).s
            assert abs(s0 - sign * s1) < 1e-9


class TestPalindromeErrors:
    def test_rejects_non_palindrome(self, rep1):
        with pytest.raises(NotPalindrome):
            pi_of_palindrome(rep1, Word("ab"))
        for pair in ((Word("ab"), Word("a")), (Word("a"), Word("ab"))):
            with pytest.raises(NotPalindrome, match=r"Word\(ab\) is not a palindrome"):
                pi_of_pair(rep1, *pair)

    def test_identity_image(self):
        # B is a half-turn, so bb evaluates to minus the identity
        A = hyperbolic_on_axis(1.0, 1.5)
        B = GroupElement(0, 2, -0.5, 0)
        rep = build(A, B)
        with pytest.raises(IdentityImage):
            pi_of_palindrome(rep, Word("bb"))

    def test_half_turn_palindromization_is_trivial(self):
        A = hyperbolic_on_axis(1.0, 1.5)
        B = GroupElement(0, 2, -0.5, 0)
        rep = build(A, B)
        with pytest.raises(TrivialPalindromization):
            palindromize(rep, Word("b"))

    def test_empty_word_palindromization_is_trivial(self, rep1):
        with pytest.raises(
            TrivialPalindromization, match=r"Word\(identity\) palindromizes"
        ):
            palindromize(rep1, Word())


class TestPairRoutes:
    def test_commuting_pair_rejected(self, rep1):
        with pytest.raises(CommutingPair):
            pi_of_pair(rep1, Word("a"), Word("a"))
        with pytest.raises(CommutingPair):
            pi_of_pair(rep1, Word("a"), Word("aa"))

    def test_matrix_route_matches_axis_route(self, rep1):
        rng = random.Random(29)
        reps = [rep1] + [random_representation(s) for s in (101, 102)]
        checked = 0
        for rep in reps:
            for _ in range(8):
                u = random_palindrome(rng, 2)
                v = random_palindrome(rng, 2)
                try:
                    img = pi_of_pair(rep, u, v)
                    perp = pair_perpendicular_by_axes(rep, u, v)
                    s_axis = position_on_vertical_axis(
                        perp, eps=geo_scaled(len(u) + len(v))
                    )
                except Exception:
                    continue
                assert abs(img.s - s_axis) < 1e-8
                checked += 1
        assert checked >= 10

    def test_pair_word_label(self, rep1):
        # the odd slope 1/3 factors as a|aba; its entry shows the pair
        entry = _spectrum_entry(rep1, 1, 3)
        assert entry.image == pi_of_pair(rep1, Word("a"), Word("aba"))
        assert entry.word == "a|aba"
        assert entry.to_json()["word"] == "a|aba"


class TestParabolicTags:
    def test_parabolic_letters_are_tagged(self, mu4):
        up = pi_of_palindrome(mu4, Word("a"))
        dn = pi_of_palindrome(mu4, Word("b"))
        assert up.s == math.inf and dn.s == -math.inf
        assert up.source == dn.source == PARABOLIC_END
        assert up.element_class == "parabolic"
        assert not up.finite

    def test_tag_json(self, mu4):
        up = pi_of_palindrome(mu4, Word("a")).to_json()
        dn = pi_of_palindrome(mu4, Word("b")).to_json("b")
        assert list(up.items()) == [
            ("s", "inf"), ("source", PARABOLIC_END), ("class", "parabolic"),
        ]
        assert list(dn.items()) == [
            ("s", "-inf"), ("source", PARABOLIC_END), ("word", "b"),
            ("class", "parabolic"),
        ]


def _spectrum_entry(rep, p, q):
    """The pi_spectrum entry of the slope p/q (depth 4 reaches q <= 5)."""
    return next(e for e in pi_spectrum(rep, 4) if (e.p, e.q) == (p, q))


def _full_fold_position(rep, w):
    """Position of the palindrome w from the fold of all its letters, the
    route slope words keep in rational_pi."""
    return _palindrome_position(w, evaluate_normalized(rep, w))


def _outcome(position):
    """(kind, s) of a position call: a finite position, a parabolic tag, or
    a refusal with s None."""
    try:
        image = position()
    except PalcoreError as exc:
        return type(exc).__name__, None
    return ("position" if image.finite else "parabolic"), image.s


def _long_palindromes(seed, count, max_len=200):
    """Seeded palindromes u x reverse(u) of up to max_len letters, with and
    without a middle letter x."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        half = Word("".join(rng.choice(LETTERS) for _ in range(rng.randint(1, max_len // 2))))
        middle = Word(rng.choice(LETTERS)) if len(out) % 2 else Word()
        w = half * middle * reverse(half)
        if w and len(w) <= max_len:
            out.append(w)
    return out


_HALF_FORM_REPS = ("mu4", "mu_half", "schottky", *(f"random{i}" for i in range(6)))


def _named_rep(name, request):
    if name.startswith("random"):
        return random_representation(int(name[len("random"):]))
    return request.getfixturevalue(name)


def _rational_riley(mu):
    return build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1))


class TestHalfFormImage:
    """pi_of_palindrome evaluates the first half M of a palindrome and forms
    its image as M phi(M) or M L phi(M) (phi swaps the diagonal)."""

    @pytest.mark.parametrize("name", _HALF_FORM_REPS)
    def test_diagonal_entries_are_bit_equal(self, name, request, monkeypatch):
        # the image pi_of_palindrome hands the palindrome kernel
        images = []

        def recorder(w, m):
            images.append(m)
            return _palindrome_position(w, m)

        monkeypatch.setattr(sys.modules["palcore.representation"],
                            "_palindrome_position", recorder)
        rep = _named_rep(name, request)
        palindromes = _long_palindromes(3, 60)
        for w in palindromes:
            _outcome(lambda: pi_of_palindrome(rep, w))
        assert len(images) == len(palindromes)
        for a, _, _, d in images:
            assert (a.real.hex(), a.imag.hex()) == (d.real.hex(), d.imag.hex())

    @pytest.mark.parametrize("name", _HALF_FORM_REPS)
    def test_positions_match_the_full_fold(self, name, request):
        # measured over these 200 palindromes per pair, first halves (or,
        # past BLOCK letters, the smaller of a half and its reverse) folded
        # in BLOCK-letter slices: worst |ds| 7.1e-14 (mu_half), at most
        # 5.6e-15 elsewhere; no entry changes kind
        rep = _named_rep(name, request)
        palindromes = _long_palindromes(5, 200)
        assert {len(w) % 2 for w in palindromes} == {0, 1}
        for w in palindromes:
            half_kind, half_s = _outcome(lambda: pi_of_palindrome(rep, w))
            full_kind, full_s = _outcome(lambda: _full_fold_position(rep, w))
            assert half_kind == full_kind, str(w)
            if half_kind == "position":
                assert abs(half_s - full_s) <= 1e-12, str(w)
            else:
                assert half_s == full_s

    @pytest.mark.parametrize("mu", [0.5, 4.0, 1.5 + 2.5j])
    def test_grid_positions_match_exact_arithmetic(self, mu, monkeypatch):
        # every finite position of the witness_search(rep, 6, 2) grid (3,072
        # palindromes of up to 52 letters) against exact rational entries;
        # measured worst |ds| 4.1e-13 at mu = 1/2 (the letter fold of the
        # half: 2.5e-13; the full fold: 1.9e-13) and 3.7e-15 at mu = 4 and
        # mu = 3/2 + 5i/2
        rep = _rational_riley(mu)
        inner = pi_of_palindrome
        images = []

        def recorder(rep_, word):
            image = inner(rep_, word)
            images.append((word, image))
            return image

        monkeypatch.setattr(sys.modules["palcore.probe"], "pi_of_palindrome", recorder)
        assert witness_search(rep, 6, 2) is None
        finite = [(w, image.s) for w, image in images if image.finite]
        assert len(finite) >= 2400
        worst = max(abs(s - exact_riley_position(str(w), mu)) for w, s in finite)
        assert worst <= 5e-13

    def test_refuses_no_more_than_the_full_fold(self, mu_half):
        # the conjugate-push palindromes of criterion 9's grid with |C| = 2,
        # which hold all 92 refusals of witness_search(mu_half, 12, 3).
        # Measured: the full fold refuses 92 (64 "parabolic palindrome image
        # does not fix a core end", 28 "fixed points not antipodal"), the
        # half form 80, all among those 92 and all of the first kind. It
        # gives the other 12 positions, within 1.4e-8 of exact arithmetic.
        outcomes = []
        for c in (w for w in reduced_words(2) if len(w) == 2):
            for d in reduced_words(3):
                for n in range(1, 13):
                    u = c ** n * d * c ** -n
                    for w in (u * reverse(u), reverse(u) * u):
                        half = _outcome(lambda: pi_of_palindrome(mu_half, w))
                        full = _outcome(lambda: _full_fold_position(mu_half, w))
                        outcomes.append((w, half, full))
        assert len(outcomes) == 14976
        refused_full = [o for o in outcomes if o[2][1] is None]
        refused_half = [o for o in outcomes if o[1][1] is None]
        assert refused_full
        assert all(full[1] is None for _, _, full in refused_half)
        recovered = [(w, half[1]) for w, half, _ in refused_full if half[0] == "position"]
        for w, s in recovered:
            assert abs(s - exact_riley_position(str(w), 0.5)) <= 2e-8


def _entry_bits(m):
    return tuple((z.real.hex(), z.imag.hex()) for z in m)


class TestBlocksTable:
    """rep.blocks, the images of the short reduced words that
    pi_of_palindrome folds a first half by, one entry per product."""

    @pytest.mark.parametrize("name", ("mu_half", "schottky", "random0"))
    def test_holds_each_short_reduced_word_with_its_letter_fold(self, name, request):
        rep = _named_rep(name, request)
        assert len(rep.blocks) == 4 + 12 + 36 + 108 + 324 + 972 == 1456
        assert set(rep.blocks) == set(reduced_words(BLOCK))
        for w, m in rep.blocks.items():
            assert _entry_bits(m) == _entry_bits(evaluate(w, rep.letters)), w

    def test_is_built_only_for_a_palindrome_position(self, mu4):
        # the spectrum and the slope and pair routes keep the letter fold
        pi_spectrum(mu4, 6)
        rational_pi(mu4, 3, 5)
        pi_of_pair(mu4, Word("a"), Word("b"))
        assert "blocks" not in vars(mu4)
        pi_of_palindrome(mu4, Word("abba"))
        assert "blocks" in vars(mu4)


class TestPalindromize:
    def test_word_and_position(self, rep1):
        pal, img = palindromize(rep1, Word("ab"))
        assert str(pal) == "baab"
        assert abs(img.s - pi_of_palindrome(rep1, pal).s) < 1e-15
        assert abs(img.s - 0.6043134981518137) < 1e-10

    def test_palindrome_input_doubles(self, rep1):
        pal, _ = palindromize(rep1, Word("aba"))
        assert str(pal) == "abaaba"

    def test_matches_direct_construction(self, rep1):
        rng = random.Random(37)
        for _ in range(10):
            w = random_palindrome(rng, 3)
            pal, img = palindromize(rep1, w)
            assert pal == reverse(w) * w
            assert img.finite or img.source == PARABOLIC_END


class TestHexagon:
    def test_rep1_structure(self, rep1):
        hx = hexagon(rep1)
        assert len(hx) == 6
        assert hx._fields == (
            "axis_a",
            "core",
            "axis_b",
            "perp_b",
            "axis_ab",
            "perp_a",
        )
        assert geodesic_distance(hx.core, rep1.core) < 1e-12
        for i in range(6):
            assert orthogonality_residual(hx[i], hx[(i + 1) % 6]) < 1e-9

    def test_random_reps_close_up(self):
        for seed in (201, 202, 203):
            rep = random_representation(seed)
            hx = hexagon(rep)
            for i in range(6):
                assert orthogonality_residual(hx[i], hx[(i + 1) % 6]) < 1e-6

    def test_parabolic_generator_rejected(self, mu4):
        with pytest.raises(DegenerateAxis):
            hexagon(mu4)

    def test_axes_sharing_an_endpoint_are_refused(self, rep1):
        # the axes of A, B and AB all end at inf, which no pair that build
        # accepts has, so the generators are replaced on a built pair
        rep = Representation(
            A=GroupElement(2 + 0j, 0j, 0j, 0.5 + 0j),
            B=GroupElement(3 + 0j, 1 + 0j, 0j, 1 / 3 + 0j),
            core=rep1.core,
            normalizer=rep1.normalizer,
            norm_A=rep1.norm_A,
            norm_B=rep1.norm_B,
            letters=rep1.letters,
        )
        with pytest.raises(ElementaryGroup, match="share an endpoint"):
            hexagon(rep)

    def test_json_shape(self, rep1):
        entries = hexagon(rep1).to_json()
        assert [e["name"] for e in entries] == list(hexagon(rep1)._fields)
        assert all("e1" in e and "e2" in e for e in entries)


class TestRationalPi:
    def test_even_slope_keeps_the_full_fold(self, mu_half):
        # slope words are not evaluated from their first half: positions are
        # the full fold's, bit for bit
        for p, q in ((1, 2), (2, 1), (3, 4), (5, 8), (12, 7), (2, 13)):
            node = primitive_word(p, q)
            got = _outcome(lambda: rational_pi(mu_half, p, q))
            want = _outcome(lambda: _full_fold_position(mu_half, node.word))
            assert got == want

    def test_even_slope_uses_palindrome_route(self, rep1):
        img = rational_pi(rep1, 2, 5)
        assert img.source == PALINDROME_WORD
        entry = _spectrum_entry(rep1, 2, 5)
        assert entry.image == img
        assert entry.word == "abaaaba"

    def test_odd_slope_uses_pair_route(self, rep1):
        img = rational_pi(rep1, 3, 5)
        assert img.source == PALINDROME_PAIR
        entry = _spectrum_entry(rep1, 3, 5)
        assert entry.image == img
        assert entry.word == "aba|ababa"

    def test_roots_match_letters(self, rep1):
        assert abs(rational_pi(rep1, 0, 1).s - pi_of_palindrome(rep1, Word("a")).s) < 1e-15
        assert abs(rational_pi(rep1, 1, 0).s - pi_of_palindrome(rep1, Word("b")).s) < 1e-15

    def test_transform_core_positions_shift_consistently(self, rep1):
        # positions live on the core; different slopes give distinct points
        vals = {pq: rational_pi(rep1, *pq).s for pq in ((0, 1), (1, 0), (1, 1))}
        assert vals[(0, 1)] < vals[(1, 1)] < vals[(1, 0)]

    def test_trace_beyond_float_square_gives_finite_position(self, schottky):
        # the palindrome image of 212/89 has |tr| above 1e154, whose float
        # square overflows; the conditioning gate must not raise
        assert math.isfinite(rational_pi(schottky, 212, 89).s)
