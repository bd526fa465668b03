"""Machine-speed calibration for the end-to-end times.

On a shared host the speed a single Python process gets changes by up to
1.7x within seconds, for palcore and for any other pure-Python code alike,
and independently on each vCPU. The benchmark therefore times a fixed
piece of pure-Python work that never imports palcore (one calibration
unit) while it measures, and reports every time scaled to a machine on
which one unit takes REFERENCE_S seconds:

    reported = measured * REFERENCE_S * mean(1 / unit time)

Inside each timed process a Sampler runs one unit from a SIGALRM handler
every INTERVAL_S seconds of wall time, so the samples are spread evenly
over the same seconds, on the same CPU, as the work they scale; the
handler's own time is taken out of the measured time. Set-up samples, too
short to sample inside, are scaled by a block of units run right after
them. A change to palcore moves the measured time but not the unit time,
so the reported time moves by the same factor; a change of host speed
moves both.

The unit imitates palcore's inner loop: products of 2x2 complex matrices
held in small slotted objects, looked up by letter in a dict, with abs()
and tuple building along the way.
"""
from __future__ import annotations

import signal
import time

REFERENCE_S = 0.004  # nominal seconds of one unit (0.0025-0.0045 s on a 2-vCPU 2.1 GHz Xeon VM)
UNIT_LETTERS = 2000
INTERVAL_S = 0.2  # one unit per interval inside a timed process: about 2 % of its time
BLOCK_UNITS = 50  # units per block run between set-up samples (about 0.2 s)


class _M:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o: "_M") -> "_M":
        return _M(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                  self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


_A = _M(1 + 0j, 1 + 0j, 0j, 1 + 0j)
_B = _M(1 + 0j, 0j, 0.5 + 0.25j, 1 + 0j)
_TABLE = {1: _A, -1: _M(1 + 0j, -1 + 0j, 0j, 1 + 0j),
          2: _B, -2: _M(1 + 0j, 0j, -0.5 - 0.25j, 1 + 0j)}
# a fixed reduced word over {a, A, b, B}, cut into short pieces
_LETTERS = tuple((1, 2, 1, -2, -1, 2, 2, -1, -2, 1)[i % 10] for i in range(40))


def unit() -> float:
    """Seconds one calibration unit takes now."""
    start = time.perf_counter()
    seen = {}
    total = 0.0
    letters = _LETTERS
    for k in range(UNIT_LETTERS // len(letters)):
        out = _M(1 + 0j, 0j, 0j, 1 + 0j)
        for x in letters:
            out = out * _TABLE[x]
            if out.norm() > 1e6:
                out = _M(1 + 0j, 0j, 0j, 1 + 0j)
        key = (k % 64, round(out.a.real, 3))
        seen[key] = seen.get(key, 0) + 1
        total += abs(out.a + out.d)
    if total < 0:  # never true; keeps the loop's result live
        raise AssertionError
    return time.perf_counter() - start


def block(units: int = BLOCK_UNITS) -> list[float]:
    """Unit times of a block of `units` consecutive units."""
    return [unit() for _ in range(units)]


def scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds.

    The work done in time T at unit time s(t) is proportional to the
    integral of dt / s(t), so evenly spread samples are averaged as 1 / s.
    """
    return REFERENCE_S * sum(1.0 / s for s in samples) / len(samples)


class Sampler:
    """Times one unit every INTERVAL_S seconds of wall time in this process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall seconds inside the handler, units included
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(unit())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def to_json(self) -> dict:
        return {"samples": self.samples, "spent_s": self.spent}
