"""Relations the spectrum keeps exactly in the mathematics, checked on
the library's spectra where the exact oracle does not reach.

The swap: exchanging the generators A and B maps the slope p/q to q/p
and shifts every position by one constant, which is 0 on Riley pairs
A = [[1, 1], [0, 1]], B = [[1, 0], [mu, 1]], where the pin puts the
double altitude a|b at 0 either way.
"""

import math

import pytest

from palcore import build, pi_spectrum
from palcore.sl2c import GroupElement

# the even slopes' positions, each read off one palindrome's image, agreed
# within 2.4e-15 over these pairs at depth 12
SWAP_TOLERANCE = 1e-13


def _outcome(entry):
    """What the swap keeps of an entry: the class of its refusal, or the
    source and class of its image with its core-end tag, if any."""
    if entry.image is None:
        return entry.error.partition(":")[0]
    s, source, kind = entry.image
    return source, kind, s if math.isinf(s) else "finite"


@pytest.mark.parametrize(
    "mu", [4, 0.5, 31 / 8, 1.5j, 0.773301174242 + 1.467711508710j]
)
def test_swap_maps_slope_p_q_to_q_p_on_riley_pairs(mu):
    a, b = GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1)
    swapped = {(e.q, e.p): e for e in pi_spectrum(build(b, a), 12)}
    entries = pi_spectrum(build(a, b), 12)
    assert len(entries) == len(swapped) == 2**12 + 1
    even = 0
    for entry in entries:
        other = swapped[entry.p, entry.q]
        where = f"mu = {mu}, {entry.p}/{entry.q}: {entry} against {other}"
        assert _outcome(entry) == _outcome(other), where
        # a pair slope is compared by outcome only: its position comes off
        # the double altitude of two factor images, whose rounding that
        # route magnifies, and the two sides spread by up to 1.4e-7
        if len(entry.words) == 1 and entry.image is not None and entry.image.finite:
            assert abs(entry.image.s - other.image.s) <= SWAP_TOLERANCE, where
            even += 1
    # every even slope but the roots, tagged at the core ends
    assert even == 2730
