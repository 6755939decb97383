"""Machine-speed meter: scale measured seconds to a fixed CPU speed.

Shared virtual machines change how fast one vCPU runs by up to 2x
within seconds, as neighbours come and go, so raw wall time measures
the neighbours as much as the simulator. While a :class:`SpeedMeter`
is open, SIGALRM fires every ``INTERVAL_S`` of wall time and the
handler times one of two fixed pure-Python probes that never call the
simulator: a dict update loop (interpreter speed) and a pointer chase
over a ~2.5 MB ring of objects (cache and memory speed). Seconds
measured on the meter's :meth:`~SpeedMeter.clock` exclude the probes,
and :attr:`~SpeedMeter.scale` converts them to seconds at the speed
where each probe takes its ``REFERENCE_S``. A faster simulator still
shows in full, because the probes do not change. The handler touches
no simulator state, so simulated results are identical with the meter
on or off.

On a 2-vCPU Xeon VM in a noisy hour, the interquartile range over
median of ``red_readwrite`` run times, each the per-window median of
three sweeps, was 21% raw, 5.0% scaled by the dict probe alone and
3.7% scaled by both probes.
"""

from __future__ import annotations

import random
import signal
import time
from statistics import median

INTERVAL_S = 0.01
DICT_STEPS = 3_000
CHASE_STEPS = 1_500
RING_CELLS = 40_000
#: probe seconds that define the reference speed (~ an unloaded vCPU
#: of the 2-vCPU Xeon VM the benchmark was tuned on), per probe
REFERENCE_S = (0.0003, 0.0003)


class _Cell:
    __slots__ = ("next", "value")


def _ring() -> _Cell:
    """A ring of cells linked in a shuffled order (defeats prefetch)."""
    cells = [_Cell() for _ in range(RING_CELLS)]
    order = list(range(RING_CELLS))
    random.Random(0).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        cells[a].next = cells[b]
        cells[a].value = a
    return cells[0]


def _dict_probe(state) -> None:
    table: dict = {}
    for i in range(DICT_STEPS):
        table[i & 255] = table.get(i & 255, 0) + i


def _chase_probe(state) -> None:
    cell = state.cursor
    total = 0
    for _ in range(CHASE_STEPS):
        total += cell.value
        cell = cell.next
    state.cursor = cell


PROBES = (_dict_probe, _chase_probe)
#: built once per process, read-only afterwards; each meter walks it
#: from the head
_RING = _ring()


class SpeedMeter:
    """Probe the machine's speed while the block runs."""

    def __init__(self):
        self.cursor = _RING
        #: probe durations, one list per probe
        self.samples = tuple([] for _ in PROBES)
        #: wall seconds spent inside probes so far
        self.spent = 0.0
        self._next = 0

    def _on_alarm(self, signum=None, frame=None) -> None:
        which = self._next
        self._next = (which + 1) % len(PROBES)
        t0 = time.perf_counter()
        PROBES[which](self)
        elapsed = time.perf_counter() - t0
        self.samples[which].append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while not all(self.samples):
            self._on_alarm()

    def clock(self) -> float:
        """Wall seconds, less the time spent in probes."""
        return time.perf_counter() - self.spent

    @property
    def scale(self) -> float:
        """Factor from this block's seconds to reference-speed seconds:
        the geometric mean of the probes' reference/measured ratios."""
        product = 1.0
        for reference, samples in zip(REFERENCE_S, self.samples):
            product *= reference / median(samples)
        return product ** (1.0 / len(PROBES))
