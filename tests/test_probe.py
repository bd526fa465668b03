"""Discreteness probe: spectrum assembly, growth, verdicts, witness search,
sampling, and the classical trace-inequality baseline."""

import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import palcore
from palcore.config import DEFAULT_PLATEAU
from palcore.probe import (
    BOUNDED_CONSISTENT_WITH_GF,
    INCONCLUSIVE,
    PARABOLIC_ENDS_DETECTED,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    VERDICTS,
    SampleEntry,
    SpectrumEntry,
    WitnessRecord,
    _evidence,
    _spectrum_plan,
    jorgensen_baseline,
    pi_spectrum,
    probe,
    random_word,
    sample_palindromizations,
    spectrum_to_csv,
    witness_search,
)
from palcore.errors import PalcoreError
from palcore.farey import enumerate_farey, primitive_word
from palcore.representation import (
    PALINDROME_PAIR,
    PALINDROME_WORD,
    PARABOLIC_END,
    PiImage,
    _half_image,
    _palindrome_position,
    build,
    pi_of_pair,
    pi_of_palindrome,
    rational_pi,
)
from palcore.sl2c import GroupElement
from palcore.words import Word, is_palindrome, reduced_words, reverse

from .conftest import (
    assert_matches_full_folds, exact_riley_position, is_product_route,
    pi_spectrum_by_parent_folds, random_representation, spectrum_plan_by_nodes,
)
from .oracles import evaluate_normalized
from .outcome_digest import GENERATORS, _entry_line, _sweep_reps


def _entry_bits(p, q, depth, image, error, word):
    if image is None:
        return (p, q, depth, error)
    return (p, q, depth, image.s.hex(), image.source, image.element_class, word)


def _display_word(node):
    """The slope's report word, formatted here rather than by SpectrumEntry:
    the palindrome, or the factor pair as u|v."""
    if node.factorization is None:
        return str(node.word)
    u, v = node.factorization
    return f"{u}|{v}"


def _full_fold(rep, node):
    """Pi image of a slope from the fold of its whole word, or of both its
    factors, from the identity: the reference for every continued fold."""
    if node.factorization is None:
        return _palindrome_position(node.word, evaluate_normalized(rep, node.word))
    return pi_of_pair(rep, *node.factorization)


def _slope_bits(node, image_of):
    try:
        return _entry_bits(node.p, node.q, node.depth, image_of(node), None,
                           _display_word(node))
    except PalcoreError as exc:
        return _entry_bits(node.p, node.q, node.depth, None,
                           f"{type(exc).__name__}: {exc}", None)


def _assert_spectrum_matches_full_folds(rep, depth):
    """pi_spectrum(rep, depth) against every slope evaluated from the
    identity: bit for bit, but for product-route positions (see
    assert_matches_full_folds)."""
    nodes = enumerate_farey(depth)
    got = [_entry_bits(e.p, e.q, e.depth, e.image, e.error, e.word)
           for e in pi_spectrum(rep, depth)]
    reference = [_slope_bits(node, lambda n: _full_fold(rep, n)) for node in nodes]
    assert_matches_full_folds(nodes, depth, got, reference, s_at=3)


def _count_folded_letters(monkeypatch):
    """Record the length of every word, or slice of one, the spectrum walk
    folds."""
    probe_module = sys.modules["palcore.probe"]
    inner = probe_module.evaluate
    letters = []

    def recorder(w, *args):
        letters.append(len(w))
        return inner(w, *args)

    monkeypatch.setattr(probe_module, "evaluate", recorder)
    return letters


def _count_walks(monkeypatch):
    """Record the depth of every farey_table call pi_spectrum makes,
    under the name palcore.probe looks it up by, with the plan cache
    emptied first."""
    probe_module = sys.modules["palcore.probe"]
    inner = probe_module.farey_table
    depths = []

    def recorder(depth):
        depths.append(depth)
        return inner(depth)

    monkeypatch.setattr(probe_module, "farey_table", recorder)
    _spectrum_plan.cache_clear()
    return depths


def _count_word_formatting(monkeypatch):
    """Record every Word.__repr__ call: the Word(...) form messages show."""
    calls = []
    inner = Word.__repr__

    def counted(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(Word, "__repr__", counted)
    return calls


_SPECTRUM_PAIRS = [
    ("mu4", 12), ("schottky", 12),
    *((f"random{seed}", 10) for seed in range(6)),
]


def _named_rep(name, request):
    if name.startswith("random"):
        return random_representation(int(name[len("random"):]))
    return request.getfixturevalue(name)


class TestSpectrum:
    def test_covers_enumeration(self, rep1):
        entries = pi_spectrum(rep1, 4)
        assert len(entries) == 2**4 + 1
        assert all((e.image is None) != (e.error is None) for e in entries)

    def test_deep_breakdowns_are_recorded_not_raised(self, schottky):
        entries = pi_spectrum(schottky, 8)
        errs = [e for e in entries if e.error]
        assert errs, "expected some deep pair entries to break down"
        assert all(e.image is None for e in errs)
        assert all(":" in e.error for e in errs)
        # breakdowns only appear deep in the tree
        assert all(e.p + e.q >= 16 for e in errs)

    def test_traces_beyond_float_square_are_not_fatal(self, schottky):
        # depth 12 reaches images with |tr| above 1e154
        entries = pi_spectrum(schottky, 12)
        assert len(entries) == 2**12 + 1
        assert all((e.image is None) != (e.error is None) for e in entries)

    @pytest.mark.parametrize("name, depth", _SPECTRUM_PAIRS)
    def test_continued_images_match_full_folds(self, name, depth, request):
        _assert_spectrum_matches_full_folds(_named_rep(name, request), depth)

    @pytest.mark.parametrize("name, depth", _SPECTRUM_PAIRS)
    def test_standalone_rational_pi_matches_full_folds(self, name, depth, request):
        # each call folds its slope word, or both factors, from the
        # identity; the long slopes have thousands of letters
        rep = _named_rep(name, request)
        nodes = enumerate_farey(depth) + [
            primitive_word(p, q)
            for p, q in ((1, 2000), (2000, 1), (1597, 987), (987, 1597))
        ]
        standalone = [_slope_bits(node, lambda n: rational_pi(rep, n.p, n.q))
                      for node in nodes]
        assert standalone == [_slope_bits(node, lambda n: _full_fold(rep, n))
                              for node in nodes]

    @pytest.mark.parametrize("mu", [4, 0.5, 1.5 + 2.5j])
    def test_product_route_positions_match_exact_arithmetic(self, mu):
        # every finite position read off one product of the parents'
        # images, those of the 342 even slopes on level 10, against exact
        # entries. Measured worst |ds|: 6.8e-15 at mu = 4, 6.1e-15 at
        # mu = 1/2 and 6.9e-15 at mu = 3/2 + 5i/2 (the letter fold of the
        # same slopes: 7.0e-15, 6.2e-15 and 6.6e-15; at depth 11 both
        # routes reach 1.4e-14)
        rep = build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1))
        routed = [
            e for e, node in zip(pi_spectrum(rep, 10), enumerate_farey(10))
            if is_product_route(node, 10) and e.image is not None and e.image.finite
        ]
        assert len(routed) == 342
        worst = max(abs(e.image.s - exact_riley_position(e.word, mu)) for e in routed)
        assert worst <= 2e-14

    def test_multiplies_under_a_seventh_of_the_letters(self, mu4, monkeypatch):
        # measured: 5,644 of the 59,050 word letters (0.096)
        letters = _count_folded_letters(monkeypatch)
        pi_spectrum(mu4, 10)
        full = sum(len(node.word) for node in enumerate_farey(10))
        assert 0 < sum(letters) <= full / 7

    def test_folds_each_stored_image_once(self, mu4, monkeypatch):
        # one words.evaluate call per segment of the prefix trie of the
        # pair factors' palindromes: those of the roots and of the even
        # slopes above the last level; the other images are one product
        # each. Folding the odd slopes two or more levels above the last
        # too took 572 calls at depth 10 and 2,356 at 12 over the same
        # letters. Continued from a parent's image, each fold took 1,707
        # calls over 68,891 letters at depth 12 (427 over 7,655 at depth 10)
        letters = _count_folded_letters(monkeypatch)
        pi_spectrum(mu4, 10)
        assert (len(letters), sum(letters)) == (496, 5644)
        letters.clear()
        pi_spectrum(mu4, 12)
        assert (len(letters), sum(letters)) == (2028, 49898)

    @pytest.mark.parametrize("depth", [0, 1, 2, 5, 10])
    def test_folds_each_shared_prefix_once(self, depth):
        # the schedule folds exactly the pair factors, the roots and the
        # palindromic slopes above the last level: the Farey parents of
        # the odd slopes, and the roots at depth 0, where there is none.
        # It folds as many letters as their palindromes have distinct
        # nonempty prefixes and ends one segment at each of their images
        _spectrum_plan.cache_clear()
        schedule, height, table = _spectrum_plan(depth)
        ops = [schedule[j:j + 5] for j in range(0, len(schedule), 5)]
        folded = [i for *_, i in ops if i is not None]
        factors = [
            i for i, (lo, level, words) in enumerate(
                zip(table.lo, table.level, table.words))
            if lo is None or (len(words) == 1 and level < depth)
        ]
        parents = {
            parent for lo, hi, words in zip(table.lo, table.hi, table.words)
            if len(words) == 2 for parent in (lo, hi)
        }
        assert set(factors) == (parents or {0, 1})
        assert sorted(folded) == factors
        words = [table.words[i][0] for i in factors]
        prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
        assert sum(end - start for _, _, start, end, _ in ops) == len(prefixes)
        assert max(k for k, *_ in ops) + 2 == height

    @pytest.mark.parametrize("depth", range(13))
    def test_flat_plan_matches_the_node_plan(self, depth):
        # the plan read off farey_table against its former build from
        # FareyNodes and a slope lookup, in (q, p) places: the table's
        # order maps each walk place to its (q, p) place. The same flat
        # schedule, and the same six fields per slope, each of the same
        # type; the table holds no odd slope's text
        _spectrum_plan.cache_clear()
        schedule, height, table = _spectrum_plan(depth)
        reference = spectrum_plan_by_nodes(depth)
        at = {place: k for k, place in enumerate(table.order)}
        assert type(schedule) is tuple
        ops = [schedule[j:j + 5] for j in range(0, len(schedule), 5)]
        assert (tuple(
            field for k, word, start, end, i in ops
            for field in (k, word, start, end, None if i is None else at[i])
        ), height) == reference[:2]
        assert "word" not in table._fields
        rows = list(zip(table.p, table.q, table.level, table.lo, table.hi, table.words))
        rows = [rows[i] for i in table.order]
        assert [
            (p, q, level, at.get(lo), at.get(hi), words)
            for p, q, level, lo, hi, words in rows
        ] == list(reference[2])
        assert ([tuple(map(type, row)) for row in rows]
                == [tuple(map(type, row)) for row in reference[2]])
        assert all(type(w) is Word for *_, words in rows for w in words)

    @pytest.mark.parametrize("depth", range(15))
    def test_calls_sharing_one_plan_agree_in_q_p_order(self, mu4, monkeypatch, depth):
        # the plan keeps the table in walk order, so each call puts its
        # entries in (q, p) order through the table's order; two calls at
        # one depth, on one cached plan, give the same entries bit for bit
        walks = _count_walks(monkeypatch)
        first, second = pi_spectrum(mu4, depth), pi_spectrum(mu4, depth)
        assert walks == [depth]
        keys = [(e.q, e.p) for e in first]
        assert keys == sorted(keys) and len(keys) == 2**depth + 1
        assert list(map(_entry_line, first)) == list(map(_entry_line, second))

    def test_plan_carries_nothing_from_one_pair_to_the_next(
        self, mu4, schottky, monkeypatch
    ):
        # the walk is shared by consecutive calls at one depth and taken
        # again when the depth changes; every spectrum keeps its full-fold
        # bits but for its product-route positions
        walks = _count_walks(monkeypatch)
        calls = [(mu4, 10), (schottky, 10), (mu4, 8),
                 (random_representation(3), 10), (mu4, 10)]
        for rep, depth in calls:
            _assert_spectrum_matches_full_folds(rep, depth)
        assert walks == [10, 8, 10]

    def test_plan_is_dropped_at_exit(self):
        # atexit runs handlers last in, first out, so a handler registered
        # before palcore is imported sees the plan after palcore's own
        script = (
            "import atexit, sys\n"
            "atexit.register(lambda: print(sys.modules['palcore.probe']"
            "._spectrum_plan.cache_info().currsize))\n"
            "from palcore import build, pi_spectrum\n"
            "from palcore.sl2c import GroupElement\n"
            "rep = build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, 4, 1))\n"
            "pi_spectrum(rep, 3)\n"
            "print(sys.modules['palcore.probe']._spectrum_plan.cache_info().currsize)\n"
        )
        src = str(Path(palcore.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split() == ["1", "0"]

    def test_formats_words_only_for_refusals(self, mu4, monkeypatch):
        # a CommutingPair refusal names its two factors in the Word(...)
        # form, and no other entry formats a word
        calls = _count_word_formatting(monkeypatch)
        refused = [e for e in pi_spectrum(mu4, 8) if e.error]
        assert len(refused) == 28
        # the walk formats them in its own order, not the entries' (q, p)
        assert Counter(calls) == Counter(w for e in refused for w in e.words)
        for e in refused:
            u, v = e.words
            assert e.error == f"CommutingPair: images of Word({u}) and Word({v}) commute"

    def test_determinism(self, rep1):
        a = [e.to_json() for e in pi_spectrum(rep1, 5)]
        b = [e.to_json() for e in pi_spectrum(rep1, 5)]
        assert json.dumps(a) == json.dumps(b)

    def test_negative_depth_rejected(self, rep1):
        with pytest.raises(ValueError):
            pi_spectrum(rep1, -1)


# the complex Riley pair of the depth-16 smoke, near the boundary of the
# Riley slice: its deep images have entries near the float maximum
_NEAR_BOUNDARY_MU = 0.773301174242 + 1.467711508710j


def _riley(mu):
    return build(GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1))


def _assert_matches_parent_image_walk(rep, depth):
    """pi_spectrum(rep, depth) against the parent-image walk, entry for
    entry: slope, depth, words and s.hex(), source and class, or the
    error's class and text."""
    got = [_entry_line(e) for e in pi_spectrum(rep, depth)]
    assert got == [_entry_line(e) for e in pi_spectrum_by_parent_folds(rep, depth)]


class TestParentImageWalk:
    """pi_spectrum folds each prefix the pair factors' palindromes share
    once; the walk it replaced continued every fold from one parent's
    fold, and both read the same products. Slope words never cancel, so
    the split points move no bit."""

    @pytest.mark.parametrize("name", [*GENERATORS, "near_boundary"])
    def test_control_pairs_to_depth_12(self, name):
        if name == "near_boundary":
            rep = _riley(_NEAR_BOUNDARY_MU)
        else:
            rep = build(*GENERATORS[name])
        for depth in range(13):
            _assert_matches_parent_image_walk(rep, depth)

    def test_slice_sweep_pool_at_depth_10(self):
        reps = list(_sweep_reps())
        assert len(reps) == 48
        for _, rep in reps:
            _assert_matches_parent_image_walk(rep, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        st.complex_numbers(min_magnitude=0.05, max_magnitude=8,
                           allow_nan=False, allow_infinity=False),
        st.integers(0, 8),
    )
    def test_complex_riley_pairs(self, mu, depth):
        try:
            rep = _riley(mu)
        except PalcoreError:
            assume(False)
        _assert_matches_parent_image_walk(rep, depth)


class TestCsv:
    def test_header_and_shape(self, rep1):
        buf = io.StringIO()
        entries = pi_spectrum(rep1, 3)
        spectrum_to_csv(entries, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "p,q,s,class,source"
        assert len(lines) == len(entries) + 1

    def test_parabolic_tags_serialize_as_inf(self, mu4):
        buf = io.StringIO()
        spectrum_to_csv(pi_spectrum(mu4, 2), buf)
        body = buf.getvalue()
        assert ",inf," in body and ",-inf," in body

    def test_error_rows_keep_slope_and_reason(self, schottky):
        buf = io.StringIO()
        spectrum_to_csv(pi_spectrum(schottky, 8), buf)
        err_rows = [l for l in buf.getvalue().splitlines() if ",error:" in l]
        assert err_rows
        p, q, s, cls, src = err_rows[0].split(",", 4)
        assert s == "" and cls == ""
        assert src.startswith("error:")


class TestVerdicts:
    def test_schottky_is_bounded(self, schottky):
        report = probe(schottky, depth=6)
        assert report.verdict == BOUNDED_CONSISTENT_WITH_GF
        lo, hi = report.interval
        assert abs(hi - math.log(8)) < 1e-9
        assert abs(lo) < 1e-9

    def test_growth_is_monotone_and_flat_for_schottky(self, schottky):
        report = probe(schottky, depth=6)
        assert len(report.growth) == 7
        assert all(x <= y + 1e-15 for x, y in zip(report.growth, report.growth[1:]))
        assert report.growth[-1] - report.growth[2] < 1e-9

    def test_parabolic_ends_detected(self, mu4):
        report = probe(mu4, depth=4)
        assert report.verdict == PARABOLIC_ENDS_DETECTED
        tags = [
            e.image.s
            for e in report.spectrum
            if e.image and not math.isfinite(e.image.s)
        ]
        assert math.inf in tags and -math.inf in tags
        assert all(math.isfinite(v) for v in report.interval)

    def test_escape_beats_parabolic(self, mu4):
        # precedence: a finite value beyond the escape radius wins even
        # when parabolic tags are present
        report = probe(mu4, depth=4, s_escape=0.5)
        assert report.verdict == UNBOUNDED_EVIDENCE_NONDISCRETE
        assert report.witnesses
        assert all(abs(w.s) > 0.5 for w in report.witnesses)

    def test_escape_threshold_wiring(self, schottky):
        report = probe(schottky, depth=4, s_escape=1.0)
        assert report.verdict == UNBOUNDED_EVIDENCE_NONDISCRETE
        words = {w.word for w in report.witnesses}
        assert "b" in words  # the b-axis sits at ln 8 > 1

    def test_shallow_run_is_inconclusive(self, schottky):
        assert probe(schottky, depth=1).verdict == INCONCLUSIVE

    def test_depth_must_be_positive(self, schottky):
        with pytest.raises(ValueError):
            probe(schottky, depth=0)

    @pytest.mark.parametrize("kwargs", [
        {"random_samples": -3},
        {"s_escape": math.nan}, {"s_escape": 0.0}, {"s_escape": -1.0},
    ])
    def test_out_of_range_inputs_rejected(self, schottky, kwargs):
        with pytest.raises(ValueError):
            probe(schottky, depth=2, **kwargs)

    def test_verdict_vocabulary(self):
        assert set(VERDICTS) == {
            BOUNDED_CONSISTENT_WITH_GF,
            UNBOUNDED_EVIDENCE_NONDISCRETE,
            PARABOLIC_ENDS_DETECTED,
            INCONCLUSIVE,
        }

    def test_report_json_is_deterministic(self, schottky):
        a = probe(schottky, depth=5, random_samples=20, seed=3).to_json()
        b = probe(schottky, depth=5, random_samples=20, seed=3).to_json()
        assert json.dumps(a) == json.dumps(b)
        for key in ("verdict", "interval", "growth", "spectrum", "jorgensen"):
            assert key in a


def _growth_series(entries, depth):
    """max |s| over the finite positions at tree depth <= d, for d = 0..depth."""
    level_max = [0.0] * (depth + 1)
    for e in entries:
        if e.image is not None and e.image.finite:
            level_max[e.depth] = max(level_max[e.depth], abs(e.image.s))
    return tuple(accumulate(level_max, max))


def evidence_by_passes(spectrum, samples, depth, s_escape):
    """probe's interval, growth, verdict and witnesses by its former three
    passes over the spectrum: the finite positions for the interval, the
    growth series, and the witness and parabolic-tag scan over the
    spectrum, then the samples."""
    finite_spectrum = [
        e.image.s for e in spectrum if e.image is not None and e.image.finite
    ]
    interval = (
        (min(finite_spectrum), max(finite_spectrum)) if finite_spectrum else None
    )
    growth = _growth_series(spectrum, depth)
    witnesses = []
    tagged_parabolic = False
    for entry in chain(spectrum, samples):
        img = entry.image
        if img is None:
            continue
        if img.source == PARABOLIC_END:
            tagged_parabolic = True
        elif img.finite and abs(img.s) > s_escape:
            witnesses.append(WitnessRecord(entry.word, img.s, img.source))
    plateaued = (
        depth >= 2
        and bool(finite_spectrum)
        and growth[depth] - growth[depth - 2] < DEFAULT_PLATEAU
    )
    if witnesses:
        verdict = UNBOUNDED_EVIDENCE_NONDISCRETE
    elif tagged_parabolic:
        verdict = PARABOLIC_ENDS_DETECTED
    elif plateaued:
        verdict = BOUNDED_CONSISTENT_WITH_GF
    else:
        verdict = INCONCLUSIVE
    return interval, growth, verdict, tuple(witnesses)


# few distinct values, so that ties at the extremes are common; 0.0 and
# -0.0 tie but differ in repr, which tells which of them is kept
_SYNTHETIC_S = st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 3.0, -3.0, math.inf, -math.inf, math.nan]
)
_SOURCES = st.sampled_from([PALINDROME_WORD, PALINDROME_PAIR, PARABOLIC_END])
_IMAGES = st.none() | st.builds(
    lambda s, source: PiImage(s, source, "loxodromic"), _SYNTHETIC_S, _SOURCES
)


@st.composite
def _synthetic_evidence(draw):
    depth = draw(st.integers(1, 4))
    spectrum = [
        SpectrumEntry(k, 1, level, (Word("ab"[k % 2]),), image,
                      None if image else "CommutingPair: synthetic")
        for k, (level, image) in enumerate(draw(st.lists(
            st.tuples(st.integers(0, depth), _IMAGES), max_size=12)))
    ]
    samples = [
        SampleEntry("ab", "aba", image) if image else SampleEntry("ab", error="x")
        for image in draw(st.lists(_IMAGES, max_size=4))
    ]
    s_escape = draw(st.sampled_from([0.25, 1.0, 2.0, 25.0]))
    return spectrum, samples, depth, s_escape


def _entry(level, s, source=PALINDROME_WORD):
    return SpectrumEntry(1, 1, level, (Word("aba"),), PiImage(s, source, "parabolic"))


class TestEvidenceInOnePass:
    """probe reads its interval, growth, verdict and witnesses off one pass
    over the spectrum (probe._evidence); the former three passes are the
    reference, repr for repr, so a kept -0.0 and the witness order count."""

    @settings(max_examples=300, deadline=None)
    @given(_synthetic_evidence())
    # no finite position at all
    @example(([_entry(1, math.inf, PARABOLIC_END), _entry(2, -math.inf, PARABOLIC_END)],
              [], 2, 1.0))
    # ties at the min and the max, with 0.0 and -0.0
    @example(([_entry(0, 0.0), _entry(1, -0.0), _entry(2, 1.5), _entry(2, 1.5),
               _entry(1, -1.5), _entry(2, -1.5)], [], 2, 25.0))
    # an escape below the largest |s|, in the spectrum and a sample
    @example(([_entry(1, 3.0), _entry(2, -0.5), _entry(2, -3.0)],
              [SampleEntry("a", "a", PiImage(-1.5, PALINDROME_WORD, "elliptic"))],
              2, 1.0))
    def test_matches_the_three_passes(self, evidence):
        assert repr(_evidence(*evidence)) == repr(evidence_by_passes(*evidence))

    def test_probe_reports_the_reference_evidence(self, mu4):
        report = probe(mu4, 8, random_samples=20, s_escape=0.5)
        reference = evidence_by_passes(report.spectrum,
                                       report.random_palindrome_samples, 8, 0.5)
        assert repr(reference) == repr(
            (report.interval, report.growth, report.verdict, report.witnesses)
        )
        assert report.witnesses


class TestSampling:
    def test_requested_count_and_determinism(self, rep1):
        a = sample_palindromizations(rep1, 25, 6, seed=11)
        b = sample_palindromizations(rep1, 25, 6, seed=11)
        assert len(a) == 25
        assert [e.to_json() for e in a] == [e.to_json() for e in b]

    def test_seed_changes_samples(self, rep1):
        a = sample_palindromizations(rep1, 25, 6, seed=11)
        c = sample_palindromizations(rep1, 25, 6, seed=12)
        assert [e.to_json() for e in a] != [e.to_json() for e in c]

    def test_words_are_bounded_palindromes(self, rep1):
        for entry in sample_palindromizations(rep1, 30, 5, seed=2):
            assert 1 <= len(entry.base) <= 5
            if entry.word is not None:
                assert is_palindrome(Word(entry.word))
                assert len(entry.word) == 2 * len(entry.base)

    def test_random_word_is_reduced(self):
        rng = random.Random(0)
        for _ in range(50):
            w = random_word(rng, 12)
            assert len(w) == 12  # no backtracking, so nothing cancels
        assert random_word(rng, 0) == Word()
        with pytest.raises(ValueError, match="non-negative"):
            random_word(rng, -1)

    def test_seeded_draws_are_pinned(self, mu_half):
        # the letters are drawn from LETTERS in the order a, A, b, B; these
        # draws were recorded when words were int tuples
        draws = [str(random_word(random.Random(s), 10)) for s in range(3)]
        assert draws == ["BAAbbAbAbA", "ABababAbbA", "aaabaBBAbb"]
        samples = sample_palindromizations(mu_half, 3, 16, 3)
        assert [(e.base, e.word) for e in samples] == [
            ("AbbABBaB", "BaBBAbbAAbbABBaB"),
            ("B", "BB"),
            ("AABABBAbb", "bbABBABAAAABABBAbb"),
        ]


class TestWitnessSearch:
    def test_finds_witness_at_low_threshold(self, schottky):
        rec = witness_search(schottky, max_conj_power=2, max_word_len=1, s_escape=1.0)
        assert rec is not None
        assert abs(rec.s) > 1.0
        assert is_palindrome(Word(rec.word))
        assert rec.n <= 2

    def test_none_when_threshold_unreachable(self, rep1):
        assert witness_search(rep1, 2, 1, s_escape=50.0) is None

    def test_formats_no_word_without_a_witness(self, mu_half, monkeypatch):
        calls = _count_word_formatting(monkeypatch)
        assert witness_search(mu_half, 6, 2) is None
        assert calls == []

    def test_visits_the_conjugate_push_palindromes_in_order(self, mu_half, monkeypatch):
        self._assert_visits_in_order(mu_half, monkeypatch, 4, 2)

    @pytest.mark.parametrize("max_conj_power, max_word_len", [(12, 3), (2, 4)])
    def test_joined_texts_are_the_word_products(
        self, mu_half, monkeypatch, max_conj_power, max_word_len
    ):
        # the search joins texts wherever no letter cancels; (12, 3) is the
        # benchmark's grid, and words of 3 and 4 letters include Cs that
        # are not cyclically reduced, such as abA
        self._assert_visits_in_order(mu_half, monkeypatch, max_conj_power, max_word_len)

    @staticmethod
    def _assert_visits_in_order(mu_half, monkeypatch, max_conj_power, max_word_len):
        # The candidates must reach pi_of_palindrome(rep, word) through the
        # palcore.probe module name, one call each, as Words, in the order
        # of the C^n D C^-n construction with every word a Word product and
        # C^-n taken as a power, with Ds that cancel at each junction.
        seen = []

        def recorder(rep, word, /):
            assert rep is mu_half
            seen.append(word)
            return PiImage(0.0, PALINDROME_WORD, "loxodromic")

        monkeypatch.setattr(sys.modules["palcore.probe"], "pi_of_palindrome", recorder)
        assert witness_search(mu_half, max_conj_power, max_word_len) is None

        expected = []
        cancelled = Counter()
        vocabulary = list(reduced_words(max_word_len))
        for c in vocabulary:
            c_inv = c.inverse()
            for d in vocabulary:
                conj_left = Word()
                for n in range(1, max_conj_power + 1):
                    conj_left = conj_left * c
                    left, right = conj_left * d, c_inv ** n
                    u = left * right
                    cancelled["left"] += len(left) < len(conj_left) + len(d)
                    cancelled["right"] += len(u) < len(left) + len(right)
                    if not u:
                        continue
                    for pal in (u * reverse(u), reverse(u) * u):
                        if pal:
                            expected.append(pal)
        assert len(expected) == len(vocabulary) ** 2 * max_conj_power * 2
        assert cancelled["left"] and cancelled["right"]
        assert ("abA" in vocabulary) == (max_word_len >= 3)
        assert seen == expected
        assert {type(word) for word in seen} == {Word}

    def test_reversed_push_repeats_a_forward_candidate(self, mu_half, monkeypatch):
        # reverse(u) u for (C, D, n) is u' reverse(u') for (-C, reverse(D), n),
        # -C inverting each letter (swapping its case): reverse(C^n D C^-n)
        # = (-C)^n reverse(D) (-C)^-n. With powers that coincide (a^2 and (aa)^1) this leaves 640
        # distinct palindromes among the 2,048 candidates here, and 24,324
        # among the 64,896 of witness_search(rep, 12, 3).
        seen = []

        def recorder(rep, word, /):
            seen.append(word)
            return PiImage(0.0, PALINDROME_WORD, "loxodromic")

        monkeypatch.setattr(sys.modules["palcore.probe"], "pi_of_palindrome", recorder)
        assert witness_search(mu_half, 4, 2) is None
        vocabulary = list(reduced_words(2))
        keys = [(c, d, n) for c in vocabulary for d in vocabulary for n in range(1, 5)]
        assert len(seen) == 2 * len(keys)
        forward = {key: seen[2 * i] for i, key in enumerate(keys)}
        for i, (c, d, n) in enumerate(keys):
            assert seen[2 * i + 1] == forward[(c.swapcase(), d[::-1], n)]
        assert len(set(seen)) == 640

    def test_benchmark_grid_reaches_every_candidate(self, mu_half, monkeypatch):
        # The benchmark's witness-grid workload counts candidates as the
        # positional calls pi_of_palindrome(rep, word) through the
        # palcore.probe module name: 2 palindromes for each of 52 words C,
        # 52 words D and 12 powers n, repeats included.
        inner = pi_of_palindrome
        seen = []

        def recorder(rep, word, /):
            seen.append(word)
            return inner(rep, word)

        monkeypatch.setattr(sys.modules["palcore.probe"], "pi_of_palindrome", recorder)
        assert witness_search(mu_half, 12, 3) is None
        assert len(seen) == 2 * 52 * 52 * 12 == 64_896
        assert len(set(seen)) == 24_324

    def test_each_long_half_is_folded_once(self, mu_half):
        # U reverse(U) and reverse(U) U have halves that are each other's
        # reverse, and pi_of_palindrome folds the smaller of the two, so the
        # second call of each pair finds the first one's fold in the cache:
        # 29,448 of the grid's pairs have halves of more than BLOCK letters
        _half_image.cache_clear()
        assert witness_search(mu_half, 12, 3) is None
        info = _half_image.cache_info()
        assert (info.misses, info.hits) == (29_448, 29_448)

    @pytest.mark.parametrize("s_escape", [math.nan, 0.0, -1.0])
    def test_escape_must_be_positive(self, rep1, s_escape):
        with pytest.raises(ValueError):
            witness_search(rep1, 1, 1, s_escape=s_escape)

    def test_caps_must_be_positive(self, rep1):
        with pytest.raises(ValueError):
            witness_search(rep1, 0, 1)
        with pytest.raises(ValueError):
            witness_search(rep1, 1, 0)


_RECORD_FIELDS = {
    "PiImage": ("s", "source", "element_class"),
    "SpectrumEntry": ("p", "q", "depth", "words", "image", "error"),
    "SampleEntry": ("base", "word", "image", "error"),
    "WitnessRecord": ("word", "s", "source", "c", "d", "n"),
    "ProbeReport": (
        "depth", "seed", "s_escape", "spectrum", "random_palindrome_samples",
        "interval", "growth", "verdict", "witnesses", "jorgensen",
    ),
}


@pytest.mark.parametrize("name, fields", _RECORD_FIELDS.items())
def test_outcome_records_are_immutable_named_tuples(name, fields, mu_half):
    """Each outcome record is a named tuple, as GroupElement is: its fields
    keep their order, and no attribute can be set on it."""
    report = probe(mu_half, 2, random_samples=1, s_escape=1.0)
    record = {
        "PiImage": report.spectrum[0].image,
        "SpectrumEntry": report.spectrum[0],
        "SampleEntry": report.random_palindrome_samples[0],
        "WitnessRecord": witness_search(mu_half, 6, 2, s_escape=1.0),
        "ProbeReport": report,
    }[name]
    assert type(record) is getattr(palcore, name)
    assert isinstance(record, tuple) and record._fields == fields
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.note = "no instance dict"


def _assert_class_built(record, cls):
    """record has exactly the type cls and equals cls called on its fields."""
    assert type(record) is cls
    assert record == cls(*(getattr(record, f) for f in cls._fields))


@pytest.mark.parametrize("name", ("mu4", "mu_half", "schottky", "random0"))
def test_position_path_records_are_the_class_built_records(name, request):
    """The position path builds its PiImage and SpectrumEntry records with
    tuple.__new__; each is the record that its class call builds from the
    same fields, parabolic-end tags, pair positions and refusals alike."""
    rep = _named_rep(name, request)
    for e in pi_spectrum(rep, 8):
        _assert_class_built(e, palcore.SpectrumEntry)
        if e.image is not None:
            _assert_class_built(e.image, PiImage)
    images = []
    for w in reduced_words(5):
        if is_palindrome(w):
            try:
                images.append(pi_of_palindrome(rep, w))
            except PalcoreError:
                pass
    odd_slopes = [(p, q) for p in range(1, 12, 2) for q in range(1, 12, 2)
                  if math.gcd(p, q) == 1]
    for p, q in odd_slopes:
        try:
            images.append(pi_of_pair(rep, *primitive_word(p, q).factorization))
        except PalcoreError:
            pass
    assert {img.source for img in images} >= {PALINDROME_WORD, "palindrome-pair"}
    for image in images:
        _assert_class_built(image, PiImage)


class TestJorgensenBaseline:
    def test_non_discrete_value(self, mu_half):
        res = jorgensen_baseline(mu_half)
        assert abs(res.value - 0.25) < 1e-12
        assert not res.passed

    def test_discrete_parabolic_value(self, mu4):
        res = jorgensen_baseline(mu4)
        assert abs(res.value - 16.0) < 1e-12
        assert res.passed

    def test_schottky_value(self, schottky):
        res = jorgensen_baseline(schottky)
        assert abs(res.value - 101.89941406250011) < 1e-6
        assert res.passed

    def test_json_shape(self, mu4):
        j = jorgensen_baseline(mu4).to_json()
        assert set(j) == {"value", "pass"}


class TestNonDiscreteControl:
    """The mu = 0.5 pair is non-discrete; at the default escape radius the
    probe reports its parabolic ends rather than an escape, and the
    spectrum stays small. Documented limitation of the default threshold."""

    def test_observed_behavior(self, mu_half):
        report = probe(mu_half, depth=6)
        assert report.verdict == PARABOLIC_ENDS_DETECTED
        finite = [
            abs(e.image.s)
            for e in report.spectrum
            if e.image and math.isfinite(e.image.s)
        ]
        assert max(finite) < 2.0

    def test_near_relations_show_up_in_sampling(self, mu_half):
        entries = sample_palindromizations(mu_half, 200, 8, seed=7)
        errored = [e for e in entries if e.error]
        # an errored entry reports its base word and the error, nothing else
        assert errored
        assert all(e.to_json() == {"base": e.base, "error": e.error} for e in errored)
        reasons = {e.error.split(":")[0] for e in errored}
        assert reasons <= {
            "TrivialPalindromization",
            "IdentityImage",
            "OrthogonalityViolation",
        }
