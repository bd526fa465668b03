"""Probe verdicts on pairs whose discreteness is known.

A = [[1, 1], [0, 1]] and B = [[1, 0], [mu, 1]] generate a discrete group
for |mu| >= 4 and, for real mu below 4, exactly for mu = 4 cos^2(pi/n).
So mu = 1, 2, 3, 4cos^2(pi/5), 4cos^2(pi/7), 4, 5, 6, 4i and 3 + 3i are
discrete. For rational mu in (0, 4) other than 1, 2 and 3, AB^-1 has the
rational trace 2 - mu in (-2, 2) and, by Niven's theorem, infinite order,
so mu = 1/8, 3/8, 1/2, 5/8, 7/8, 9/8, 11/8, 13/8, 3/2, 15/8, 5/2, 21/8,
7/2 and 31/8 are not. The Schottky pair of tests/conftest.py is discrete
too: the isometric circles of A (centres +/-1.342, radius 0.894) and of B
(centres +/-10.73, radius 7.155) are disjoint. Each pair is probed at
depth 12 with s_escape = 4 and no samples, on the non-negative half (A, B)
and on the mirror half (A, B^-1), which generates the same group. A
verdict reads as a label through its exit code: 0 (bounded or parabolic
ends) is discrete, 2 (unbounded evidence) is not.

The non-negative half labels every pair discrete: the extreme positions of
the 24 Riley pairs sit on the cusp chains 1/n and n/1 and stay below 2.8,
and the Schottky pair reads a bounded spectrum, max |s| 2.08, on both
halves. The mirror half separates the first ten, with a gap between max
|s| of the discrete pairs (1.59 to 2.56) and of the others (4.11 to 7.01).
It does not separate all 25 at escape 4: mu = 1/8, 3/8 and 31/8 reach only
3.59, 3.91 and 3.47, so the gap runs from 2.66 (mu = 6) to 3.47. Depth 10
is too shallow: there the mirror half labels only mu = 3/2 and 5/2
non-discrete.
"""
import functools
import math

import pytest

from palcore import GroupElement, build, probe
from palcore.cli import verdict_exit_code

from .conftest import hyperbolic_on_axis

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

# pairs labelled after the ten above, with the max |s| their mirror half
# reads at depth 12
MORE_DISCRETE = {
    "4": (4.0, 2.44),
    "6": (6.0, 2.66),
    "4cos^2(pi/7)": (4 * math.cos(math.pi / 7) ** 2, 2.33),
    "4i": (4j, 2.49),
    "3+3i": (3 + 3j, 2.49),
}
MORE_NON_DISCRETE = {
    "1/8": (1 / 8, 3.59),
    "3/8": (3 / 8, 3.91),
    "5/8": (5 / 8, 4.66),
    "7/8": (7 / 8, 4.49),
    "9/8": (9 / 8, 4.81),
    "11/8": (11 / 8, 5.99),
    "13/8": (13 / 8, 6.88),
    "15/8": (15 / 8, 4.66),
    "31/8": (31 / 8, 3.47),
}
# the Schottky pair of tests/conftest.py, and the max |s| of its mirror half
SCHOTTKY = (hyperbolic_on_axis(1.0, 1.5), hyperbolic_on_axis(8.0, 1.5))
SCHOTTKY_REACH = 2.08

_LABELS = {0: "discrete", 2: "non-discrete"}


def _riley(mu: complex) -> tuple[GroupElement, GroupElement]:
    return GroupElement(1, 1, 0, 1), GroupElement(1, 0, mu, 1)


@functools.cache
def _reading(pair: tuple, mirror: bool) -> tuple[str, float]:
    """The label of the probe on one half of the pair, and its max |s|."""
    A, B = pair
    report = probe(build(A, B.inverse() if mirror else B), DEPTH, s_escape=ESCAPE)
    label = _LABELS.get(verdict_exit_code(report.verdict), "inconclusive")
    return label, max(abs(e.image.s) for e in report.spectrum
                      if e.image and e.image.finite)


_NOT_YET = pytest.mark.xfail(
    strict=True,
    reason="the non-negative half reports parabolic ends for every Riley pair",
)
_BELOW_ESCAPE = pytest.mark.xfail(
    strict=True,
    reason="the mirror half of this pair stays below the escape radius 4",
)

# the max |s| each label of the first ten stays within on the mirror half
_MIRROR_RANGES = {"discrete": (1.5, 2.6), "non-discrete": (4.1, 7.1)}
# the pairs the mirror half mislabels at depth 12 and escape 4
_MIRROR_MISSES = ("1/8", "3/8", "31/8")


def _cases(non_discrete_marks=(), mirror_marks=()):
    """(pair, label, mirror reach) for the 25 pairs: the non-discrete ones
    carry non_discrete_marks, and the mirror misses mirror_marks."""
    rows = [(name, _riley(mu), label, _MIRROR_RANGES[label])
            for label, pairs in (("discrete", DISCRETE), ("non-discrete", NON_DISCRETE))
            for name, mu in pairs.items()]
    more = [(name, _riley(mu), label, reach)
            for label, pairs in (("discrete", MORE_DISCRETE),
                                 ("non-discrete", MORE_NON_DISCRETE))
            for name, (mu, reach) in pairs.items()]
    more.append(("schottky", SCHOTTKY, "discrete", SCHOTTKY_REACH))
    rows += [(name, pair, label, (reach - 0.01, reach + 0.01))
             for name, pair, label, reach in more]
    return [
        pytest.param(pair, label, reach, id=name, marks=[
            *(non_discrete_marks if label == "non-discrete" else ()),
            *(mirror_marks if name in _MIRROR_MISSES else ()),
        ])
        for name, pair, label, reach in rows
    ]


@pytest.mark.parametrize("pair, label, reach", _cases([_NOT_YET]))
def test_non_negative_half_labels(pair, label, reach):
    assert _reading(pair, mirror=False)[0] == label


@pytest.mark.parametrize("pair, label, reach", _cases(mirror_marks=[_BELOW_ESCAPE]))
def test_mirror_half_labels(pair, label, reach):
    assert _reading(pair, mirror=True)[0] == label


@pytest.mark.parametrize("pair, label, reach", _cases())
def test_mirror_half_reach(pair, label, reach):
    low, high = reach
    assert low < _reading(pair, mirror=True)[1] < high
