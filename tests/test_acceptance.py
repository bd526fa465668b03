"""Acceptance battery: one test per released guarantee.

Every test prints a single CRITERION line (run with -s to see them all) and
then asserts, so each guarantee is visible as both a printed verdict and a
pytest result. All randomness is seeded; reruns are deterministic.
"""

import cmath
import math
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from palcore.config import DEFAULT_PLATEAU
from palcore.errors import InvalidRational, PalcoreError
from palcore.farey import christoffel, primitive_word
from palcore.geodesics import axis, line_matrix
from palcore.probe import (
    BOUNDED_CONSISTENT_WITH_GF,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    PARABOLIC_ENDS_DETECTED,
    probe,
    random_word,
    witness_search,
)
from palcore.representation import (
    PARABOLIC_END,
    hexagon,
    pi_of_pair,
)
from palcore.sl2c import GroupElement, classify, fixed_points, normalize
from palcore.words import (
    Word,
    elliptic_power_factorization,
    is_palindrome,
    reduced_words,
    reverse,
)

from .conftest import exact_riley_position, random_palindrome, random_representation
from .oracles import (
    VERTICAL_AXIS,
    abelianize,
    are_associates,
    cyclically_equal,
    evaluate_normalized,
    geodesic_distance,
    is_primitive,
    nielsen_reduce_pair,
    orthogonality_residual,
    pair_perpendicular_by_axes,
)


def _record(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _coprime_slopes(max_sum: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for q in range(max_sum + 1)
        for p in range(max_sum + 1)
        if 0 < p + q <= max_sum and gcd(p, q) == 1
    ]


def _palindromic_sweep():
    """(representation, word) pairs shared by criteria 1 and 2."""
    words = [
        primitive_word(p, q).word
        for p, q in _coprime_slopes(12)
        if (p * q) % 2 == 0
    ]
    for seed in range(50):
        rep = random_representation(seed)
        for w in words:
            yield rep, w


def test_criterion_01_palindromic_axes_are_antipodal():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for rep, w in _palindromic_sweep():
        m = evaluate_normalized(rep, w)
        x, y = fixed_points(m)
        worst = max(worst, abs(x + y) / max(1.0, abs(x)) / (1e-6 * len(w)))
        checked += 1
    elapsed = time.perf_counter() - t0
    _record(
        1,
        worst < 1.0 and elapsed < 30.0,
        f"{checked} palindromic images over 50 seeded representations, worst "
        f"endpoint-sum residual {worst:.2e} of the 1e-6*len bound, {elapsed:.1f}s",
    )


def test_criterion_02_palindrome_images_have_equal_diagonal():
    worst = 0.0
    checked = 0
    for rep, w in _palindromic_sweep():
        m = evaluate_normalized(rep, w)
        # |a - d| is unchanged under a global sign flip of m
        worst = max(worst, abs(m.a - m.d) / (1e-6 * len(w)))
        checked += 1
    _record(
        2,
        worst < 1.0,
        f"{checked} palindromic images, worst diagonal asymmetry {worst:.2e} "
        f"of the 1e-6*len bound",
    )


def test_criterion_03_pair_altitude_orthogonal_and_matches_axis_route():
    worst_tr = worst_ep = 0.0
    checked = 0
    for seed in range(20):
        rep = random_representation(seed)
        rng = random.Random(1000 + seed)
        done = 0
        while done < 20:
            u = random_palindrome(rng, 3)
            v = random_palindrome(rng, 3)
            try:
                pi_of_pair(rep, u, v)
                U = evaluate_normalized(rep, u)
                V = evaluate_normalized(rep, v)
                uv, vu = U * V, V * U
                t = normalize(uv * vu - vu * uv)
                perp = pair_perpendicular_by_axes(rep, u, v)
            except PalcoreError:
                continue
            altitude = axis(t)
            worst_tr = max(
                worst_tr, orthogonality_residual(VERTICAL_AXIS, altitude)
            )
            worst_ep = max(worst_ep, geodesic_distance(altitude, perp))
            done += 1
            checked += 1
    _record(
        3,
        worst_tr < 1e-6 and worst_ep < 1e-6,
        f"{checked} palindrome pairs over 20 representations, worst core "
        f"trace-test {worst_tr:.2e}, worst endpoint gap to the "
        f"common-perpendicular route {worst_ep:.2e}",
    )


def test_criterion_04_slope_enumeration_is_exact():
    t0 = time.perf_counter()
    n_words = n_rejected = 0
    failures = []
    for q in range(21):
        for p in range(21):
            if not 0 < p + q <= 20:
                continue
            if gcd(p, q) != 1:
                with pytest.raises(InvalidRational):
                    primitive_word(p, q)
                n_rejected += 1
                continue
            node = primitive_word(p, q)
            w = node.word
            chris = christoffel(p, q)
            ok = (
                len(w) == p + q
                and abelianize(w) == (q, p)
                and is_primitive(w)
            )
            if (p * q) % 2 == 0:
                rotations = [
                    Word(chris[i:] + chris[:i])
                    for i in range(len(chris))
                ]
                palindromic = [r for r in rotations if is_palindrome(r)]
                ok = (
                    ok
                    and node.factorization is None
                    and len(palindromic) == 1
                    and w == palindromic[0]
                )
            else:
                w1, w2 = node.factorization
                ok = (
                    ok
                    and is_palindrome(w1)
                    and is_palindrome(w2)
                    and w1 * w2 == w
                    and cyclically_equal(w, chris)
                )
            if not ok:
                failures.append(f"{p}/{q}")
            n_words += 1
    elapsed = time.perf_counter() - t0
    _record(
        4,
        not failures and elapsed < 60.0,
        f"{n_words} reduced slopes verified (length, letter counts, "
        f"palindromic selection, primitivity), {n_rejected} non-reduced "
        f"rejected, failures {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_05_associate_pairs_generate():
    slopes = _coprime_slopes(12)
    words = {s: primitive_word(*s).word for s in slopes}
    pairs = [
        (s1, s2)
        for i, s1 in enumerate(slopes)
        for s2 in slopes[i + 1 :]
        if are_associates(s1, s2)
    ]
    failures = [
        (s1, s2)
        for s1, s2 in pairs
        if not nielsen_reduce_pair(words[s1], words[s2]).generates
    ]
    _record(
        5,
        bool(pairs) and not failures,
        f"{len(pairs)} associate slope pairs with sums <= 12, all Nielsen "
        f"reductions reach the standard basis, failures {failures or 'none'}",
    )


def test_criterion_06_reversed_word_swaps_the_diagonal():
    reps = [random_representation(s) for s in range(10)]
    worst = 0.0
    for i in range(100):
        rng = random.Random(5000 + i)
        rep = reps[i % 10]
        w = random_word(rng, rng.randint(1, 10))
        img = evaluate_normalized(rep, w)
        rev_img = evaluate_normalized(rep, reverse(w))
        swapped = GroupElement(img.d, img.b, img.c, img.a)
        resid = min((rev_img - swapped).max_norm(), (rev_img + swapped).max_norm())
        worst = max(worst, resid / (1e-8 * len(w)))
    _record(
        6,
        worst < 1.0,
        f"100 seeded words in the normalized frame, worst diagonal-swap "
        f"residual {worst:.2e} of the 1e-8*len bound",
    )


def test_criterion_07_palindromization_fixed_points_match_closed_form():
    reps = [random_representation(s) for s in range(10)]
    worst = 0.0
    found = 0
    i = 0
    while found < 100:
        rng = random.Random(9000 + i)
        rep = reps[i % 10]
        i += 1
        w = random_word(rng, rng.randint(1, 8))
        img = evaluate_normalized(rep, w)
        pal = evaluate_normalized(rep, reverse(w)) * img
        if classify(pal) != "loxodromic":
            continue
        found += 1
        root = cmath.sqrt(img.b * img.d / (img.a * img.c))
        pts = fixed_points(pal)
        for z in (root, -root):
            best = min(abs(z - p) / max(1.0, abs(z)) for p in pts)
            worst = max(worst, best / 1e-8)
    _record(
        7,
        worst < 1.0,
        f"100 loxodromic palindromizations, quadratic-solve fixed points vs "
        f"the entry closed form sqrt(bd/ac): worst relative gap {worst:.2e} "
        f"of the 1e-8 bound",
    )


def test_criterion_08_bounded_control_plateaus(schottky):
    t0 = time.perf_counter()
    deep = probe(schottky, 8, random_samples=200, seed=0)
    shallow = probe(schottky, 6)
    width_deep = deep.interval[1] - deep.interval[0]
    width_shallow = shallow.interval[1] - shallow.interval[0]
    delta = abs(width_deep - width_shallow)
    elapsed = time.perf_counter() - t0
    _record(
        8,
        deep.verdict == BOUNDED_CONSISTENT_WITH_GF
        and delta < DEFAULT_PLATEAU
        and elapsed < 60.0,
        f"verdict {deep.verdict}, interval width {width_deep:.6f} at depth 8, "
        f"width change {delta:.1e} from depth 6 (plateau {DEFAULT_PLATEAU}), "
        f"{elapsed:.1f}s",
    )


# Escape radius for criterion 9. A finite position needs both off-diagonal
# entries above SINGULAR_FLOOR times the matrix scale, so no position the
# program can certify exceeds 1/2 ln(1/SINGULAR_FLOOR) = 13.8155, and the
# default radius DEFAULT_ESCAPE = 25 cannot fire on any pair. 4.0 lies
# below that ceiling and above everything the discrete mu = 4 control
# reaches in the same probe runs (samples <= 2.98, spectrum <= 2.14).
CRITERION_09_ESCAPE = 4.0


def test_criterion_09_nondiscrete_control_escapes(mu_half, mu4):
    # mu = 1/2 fails Jorgensen's inequality (value 0.25), so the pair is not
    # discrete and its palindromic positions are unbounded; mu = 4 is
    # discrete. Measured with exact rational arithmetic (mu = 1/2 gives dyadic
    # entries) on the mu = 1/2 control, the searches this criterion used to
    # run never go past |s| = 25:
    # 1. The program is right to find nothing there. The depth-8 spectrum
    #    tops out at 1.386, the 200 samples of seed 0 at 3.766, and the
    #    witness_search(12, 3) grid at 4.198 over 64,896 palindromes (8,240
    #    parabolic, none the identity). At radius 25 PARABOLIC_ENDS_DETECTED
    #    and None are the correct outputs.
    # 2. Radius 25 cannot be certified (see CRITERION_09_ESCAPE), so the
    #    radius is an explicit argument below the 13.8155 ceiling.
    # 3. The conjugate-push grid cannot tell the controls apart: on the same
    #    (12, 3) grid mu = 4 reaches 4.337 through cusp words a^n b a^-n,
    #    above the 4.198 of mu = 1/2. Its leg checks only that the search
    #    returns an escaping palindrome; the evidence of non-discreteness is
    #    the probe escaping on mu = 1/2 where the identical probe on mu = 4
    #    records no witness. 3000 samples over ten seeds keep that from
    #    resting on one seed: at 200 samples the two controls overlap
    #    (mu = 1/2 reaches 2.66-4.94 by seed, mu = 4 up to 2.69).
    # Every witness is checked against exact arithmetic.
    radius = CRITERION_09_ESCAPE
    mu = Fraction(mu_half.B.c.real)
    t0 = time.perf_counter()
    witnesses = []
    per_seed = []
    control_verdicts = set()
    control_witnesses = 0
    for seed in range(10):
        report = probe(mu_half, 8, random_samples=3000, seed=seed, s_escape=radius)
        control = probe(mu4, 8, random_samples=3000, seed=seed, s_escape=radius)
        witnesses.extend(report.witnesses)
        per_seed.append((report.verdict, len(report.witnesses)))
        control_verdicts.add(control.verdict)
        control_witnesses += len(control.witnesses)
    found = witness_search(
        mu_half, max_conj_power=12, max_word_len=3, s_escape=radius
    )
    elapsed = time.perf_counter() - t0
    checked = witnesses + ([found] if found is not None else [])
    exact = [exact_riley_position(w.word, mu) for w in checked]
    worst_gap = max(
        (abs(x - w.s) for x, w in zip(exact, checked)), default=math.inf
    )
    ok = (
        all(v == UNBOUNDED_EVIDENCE_NONDISCRETE and n > 0 for v, n in per_seed)
        and control_verdicts == {PARABOLIC_ENDS_DETECTED}
        and control_witnesses == 0
        and found is not None
        and worst_gap < 1e-9
        and all(abs(x) > radius for x in exact)
        and elapsed < 120.0
    )
    counts = [n for _, n in per_seed]
    search = (
        f"found {found.c}/{found.d}/n={found.n} s={found.s:.3f}"
        if found is not None
        else "exhausted (None)"
    )
    _record(
        9,
        ok,
        f"radius {radius}: mu=1/2 verdicts {sorted({v for v, _ in per_seed})} "
        f"over 10 seeds with {min(counts)}-{max(counts)} witnesses each; "
        f"mu=4 control {sorted(control_verdicts)}, {control_witnesses} "
        f"witnesses; conjugate-push search {search}; "
        f"{len(checked)} witnesses within {worst_gap:.1e} of exact arithmetic "
        f"and min exact |s| {min(map(abs, exact), default=math.nan):.6f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_parabolic_tags_excluded_from_interval(mu4):
    report = probe(mu4, 6)
    tags = {
        (e.p, e.q): e.image.s
        for e in report.spectrum
        if e.image is not None and math.isinf(e.image.s)
    }
    sources_ok = all(
        e.image.source == PARABOLIC_END
        for e in report.spectrum
        if e.image is not None and math.isinf(e.image.s)
    )
    finite = [
        e.image.s
        for e in report.spectrum
        if e.image is not None and e.image.finite
    ]
    interval_ok = (
        report.interval is not None
        and all(map(math.isfinite, report.interval))
        and report.interval == (min(finite), max(finite))
    )
    _record(
        10,
        report.verdict == PARABOLIC_ENDS_DETECTED
        and sources_ok
        and tags.get((1, 0)) == -math.inf
        and tags.get((0, 1)) == math.inf
        and interval_ok,
        f"verdict {report.verdict}, {len(tags)} parabolic palindromes tagged "
        f"to core ends, finite interval {report.interval}",
    )


def test_criterion_11_hexagon_closes_and_factors_the_generators():
    worst_orth = worst_fact = 0.0
    for seed in range(20):
        rep = random_representation(seed)
        hexa = hexagon(rep)
        for k in range(6):
            worst_orth = max(
                worst_orth,
                orthogonality_residual(hexa[k], hexa[(k + 1) % 6]),
            )
        h_core = line_matrix(hexa.core)
        h_a = line_matrix(hexa.perp_a)
        h_b = line_matrix(hexa.perp_b)
        A = normalize(rep.A)
        B = normalize(rep.B)
        fact_a = min((h_a * h_core - A).max_norm(), (h_a * h_core + A).max_norm())
        fact_b = min((h_core * h_b - B).max_norm(), (h_core * h_b + B).max_norm())
        worst_fact = max(worst_fact, fact_a, fact_b)
    _record(
        11,
        worst_orth < 1e-6 and worst_fact < 1e-8,
        f"20 random pairs: worst adjacent-side orthogonality residual "
        f"{worst_orth:.2e}, worst half-turn factorization residual "
        f"{worst_fact:.2e}",
    )


def test_criterion_12_power_factorization_into_palindromes():
    palindromes = [w for w in reduced_words(5) if is_palindrome(w)]
    checked = 0
    failures = 0
    for p1 in palindromes:
        for p2 in palindromes:
            base = p1 * p2
            for n in range(1, 7):
                res = elliptic_power_factorization(p1, p2, n)
                good = (
                    is_palindrome(res.left)
                    and is_palindrome(res.right)
                    and res.left * res.right == base**n
                )
                failures += not good
                checked += 1
    _record(
        12,
        len(palindromes) == 68 and failures == 0 and checked == 68 * 68 * 6,
        f"{checked} factorizations over {len(palindromes)} palindromes of "
        f"length <= 5 and powers <= 6, failures {failures}",
    )
