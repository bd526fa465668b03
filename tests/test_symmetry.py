"""Relations the spectrum keeps exactly in the mathematics, checked on
the library's spectra where the exact oracle does not reach.

- The swap: exchanging the generators A and B maps the slope p/q to q/p
  and shifts every position by one constant, which is 0 on Riley pairs
  A = [[1, 1], [0, 1]], B = [[1, 0], [mu, 1]], where the pin puts the
  double altitude a|b at 0 either way, and on the complex pair, whose
  pin is A's axis either way.
- Conjugation: conjugating both generators by a Moebius map M carries
  the core and every axis with it, and the frame sends the core to
  [0, inf] and pins a generator axis at 0 either way, so every position
  stays. The frame puts the core endpoint that comes first in
  boundary_key order at 0, and a map M that reverses that order negates
  every position and swaps the core-end tags.
- Complex conjugation of both generators keeps every position.

Each relation compares two spectra slope for slope: the same outcome,
and an even slope's position within a tolerance measured below. A pair
slope is compared by outcome only: its position comes off the double
altitude of two factor images, whose rounding that route magnifies, and
the two sides spread by up to 1.9e-7 under these relations at depth 10.
The helpers take the depth, so a deeper run can check the same relations.
"""

import math

import pytest

from palcore import build, pi_spectrum
from palcore.sl2c import GroupElement, classify, normalize

from .outcome_digest import GENERATORS

# the even slopes' positions, each read off one palindrome's image, agreed
# within 2.4e-15 over the Riley pairs below at depth 12
SWAP_TOLERANCE = 1e-13
# under conjugation by the maps below, even slopes agreed within 4.4e-14
# over the five pairs at depth 10, and within 9.6e-14 at depth 14
CONJUGATION_TOLERANCE = 1e-12
# under complex conjugation, within 1.6e-15 on both complex pairs at depth
# 10, and within 3.5e-15 at depth 14
COMPLEX_CONJUGATION_TOLERANCE = 1e-13


def _riley(mu):
    return GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1)


# the four control pairs and the Riley pair near the boundary of the Riley
# slice whose depth-16 images reach the float maximum
PAIRS = {**GENERATORS, "near_boundary": _riley(0.773301174242 + 1.467711508710j)}
COMPLEX_PAIRS = ("complex", "near_boundary")
MAPS = {
    "M": normalize(GroupElement(0.7 + 0.2j, -1.3, 0.4j, 2.1 - 0.5j)),
    "translation": GroupElement(1, 3 - 2j, 0, 1),
    "rotation": GroupElement(
        math.cos(0.9), -math.sin(0.9), math.sin(0.9), math.cos(0.9)
    ),
}


def _outcome(entry):
    """What a relation keeps of an entry: the class of its refusal, or the
    source and class of its image with its core-end tag, if any."""
    if entry.image is None:
        return entry.error.partition(":")[0]
    s, source, kind = entry.image
    return source, kind, s if math.isinf(s) else "finite"


def _assert_spectra_agree(entries, others, tolerance: float, where: str) -> int:
    """entries against others, slope for slope; returns the number of even
    slopes' finite positions compared."""
    assert len(entries) == len(others)
    even = 0
    for entry, other in zip(entries, others):
        at = f"{where}, {entry.p}/{entry.q}: {entry} against {other}"
        assert _outcome(entry) == _outcome(other), at
        if len(entry.words) == 1 and entry.image is not None and entry.image.finite:
            assert abs(entry.image.s - other.image.s) <= tolerance, at
            even += 1
    return even


def assert_swap_holds(pair, depth: int, where: str) -> int:
    """The swap, with shift 0, on the spectra of pair at depth."""
    a, b = pair
    swapped = {(e.q, e.p): e for e in pi_spectrum(build(b, a), depth)}
    entries = pi_spectrum(build(a, b), depth)
    assert len(entries) == len(swapped) == 2**depth + 1
    others = [swapped[e.p, e.q] for e in entries]
    return _assert_spectra_agree(entries, others, SWAP_TOLERANCE, where)


def assert_conjugation_holds(pair, m: GroupElement, depth: int, where: str) -> int:
    """Conjugation by m on the spectra of pair at depth."""
    a, b = pair
    m_inv = m.inverse()
    return _assert_spectra_agree(
        pi_spectrum(build(a, b), depth),
        pi_spectrum(build(m * a * m_inv, m * b * m_inv), depth),
        CONJUGATION_TOLERANCE, where,
    )


def _even_positions(pair) -> int:
    """Even slopes at depth 10 with a finite position: all 684 but the
    roots that the pair's parabolic generators tag at the core ends."""
    return 684 - sum(classify(normalize(g)) == "parabolic" for g in pair)


def assert_complex_conjugation_holds(pair, depth: int, where: str) -> int:
    """Complex conjugation on the spectra of pair at depth."""
    conjugates = [GroupElement(*(complex(z).conjugate() for z in g)) for g in pair]
    return _assert_spectra_agree(
        pi_spectrum(build(*pair), depth),
        pi_spectrum(build(*conjugates), depth),
        COMPLEX_CONJUGATION_TOLERANCE, where,
    )


@pytest.mark.parametrize(
    "mu", [4, 0.5, 31 / 8, 1.5j, 0.773301174242 + 1.467711508710j]
)
def test_swap_maps_slope_p_q_to_q_p_on_riley_pairs(mu):
    even = assert_swap_holds(_riley(mu), 12, f"mu = {mu}")
    # every even slope but the roots, tagged at the core ends
    assert even == 2730


# the rotation, an elliptic map fixing i and -i, reverses the boundary_key
# order of the complex pair's core endpoints: every position comes back negated, within 1.2e-15
# on the even slopes, and a parabolic slope's tag moves to the other end
_ORIENTATION_REVERSED = {("complex", "rotation")}


@pytest.mark.parametrize("map_name", MAPS)
@pytest.mark.parametrize("name", PAIRS)
def test_conjugation_keeps_every_position(name, map_name, request):
    if (name, map_name) in _ORIENTATION_REVERSED:
        request.applymarker(pytest.mark.xfail(
            strict=True,
            reason="the frame orients the core by boundary_key, which this "
            "map reverses, so every position is negated",
        ))
    even = assert_conjugation_holds(PAIRS[name], MAPS[map_name], 10, name)
    assert even == _even_positions(PAIRS[name])


@pytest.mark.parametrize("name", COMPLEX_PAIRS)
def test_complex_conjugation_keeps_every_position(name):
    even = assert_complex_conjugation_holds(PAIRS[name], 10, name)
    assert even == _even_positions(PAIRS[name])
