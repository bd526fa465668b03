"""Probe verdicts on Riley pairs whose discreteness is known.

A = [[1, 1], [0, 1]] and B = [[1, 0], [mu, 1]] generate a discrete group
for real mu >= 4 and, below 4, exactly for mu = 4 cos^2(pi/n). So mu = 1,
2, 3, 4 cos^2(pi/5) and 5 are discrete, and mu = 1/2, 3/2, 5/2, 7/2 and 21/8
are not. Each pair is probed at depth 12 with s_escape = 4 and no samples,
on the non-negative half (A, B) and on the mirror half (A, B^-1), which
generates the same group. A verdict reads as a label through its exit code:
0 (bounded or parabolic ends) is discrete, 2 (unbounded evidence) is not.

The non-negative half labels every pair discrete: its extreme positions sit
on the cusp chains 1/n and n/1 and stay below 2.7 for all ten. The mirror
half separates them, with a gap between max |s| of the discrete pairs
(1.59 to 2.56) and of the others (4.11 to 7.01). Depth 10 is too shallow:
there the mirror half labels only mu = 3/2 and 5/2 non-discrete.
"""
import math

import pytest

from palcore import GroupElement, build, probe
from palcore.cli import verdict_exit_code

DEPTH = 12
ESCAPE = 4.0

DISCRETE = {
    "1": 1.0,
    "2": 2.0,
    "3": 3.0,
    "4cos^2(pi/5)": 4 * math.cos(math.pi / 5) ** 2,
    "5": 5.0,
}
NON_DISCRETE = {"1/2": 0.5, "3/2": 1.5, "5/2": 2.5, "7/2": 3.5, "21/8": 21 / 8}

_LABELS = {0: "discrete", 2: "non-discrete"}


def _probe(mu: float, mirror: bool):
    A, B = GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1)
    return probe(build(A, B.inverse() if mirror else B), DEPTH, s_escape=ESCAPE)


def _label(report) -> str:
    return _LABELS.get(verdict_exit_code(report.verdict), "inconclusive")


def _max_abs_s(report) -> float:
    return max(abs(e.image.s) for e in report.spectrum if e.image and e.image.finite)


_NOT_YET = pytest.mark.xfail(
    strict=True,
    reason="the non-negative half reports parabolic ends for every Riley pair",
)


def _cases(non_discrete_marks=()):
    """(mu, label) for the ten pairs, the non-discrete ones marked."""
    return [pytest.param(mu, "discrete", id=name) for name, mu in DISCRETE.items()] + [
        pytest.param(mu, "non-discrete", id=name, marks=non_discrete_marks)
        for name, mu in NON_DISCRETE.items()
    ]


@pytest.mark.parametrize("mu, label", _cases(_NOT_YET))
def test_non_negative_half_labels(mu, label):
    assert _label(_probe(mu, mirror=False)) == label


# the max |s| each label stays within on the mirror half
_MIRROR_RANGES = {"discrete": (1.5, 2.6), "non-discrete": (4.1, 7.1)}


@pytest.mark.parametrize("mu, label", _cases())
def test_mirror_half_labels(mu, label):
    report = _probe(mu, mirror=True)
    assert _label(report) == label
    low, high = _MIRROR_RANGES[label]
    assert low < _max_abs_s(report) < high
