"""Simulated uncore performance counters.

Each counter mirrors a capability of the Intel uncore PMU that the
paper relies on (§4.2):

* :class:`OccupancyCounter` — per-cycle occupancy aggregation for a
  queue or buffer (RPQ, WPQ, LFB, IIO buffers, CHA pools).
* :class:`RateCounter` — request arrival counting with umask-style
  classification by traffic class.
* :class:`LatencyStat` — direct per-request latency accumulation. Real
  hardware cannot observe this; the simulator can, which lets the test
  suite validate the paper's Little's-law methodology against ground
  truth.
* :class:`CounterHub` — registry + reset for a measurement window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.credit import CreditPool


class OccupancyCounter:
    """Time-weighted occupancy integral for a queue or buffer.

    ``update`` must be called with the simulation time *before* the
    occupancy changes. The average occupancy over a window is
    ``integral / elapsed`` which is exactly what the hardware's
    per-cycle aggregation computes.

    Also tracks the fraction of time the tracked resource sits at a
    given capacity (used for the "fraction of time WPQ is full"
    measurements of Figs. 7f / 8e).
    """

    __slots__ = (
        "capacity",
        "value",
        "_integral",
        "_full_time",
        "_last_t",
        "_window_start",
        "max_seen",
    )

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self.value = 0
        self._integral = 0.0
        self._full_time = 0.0
        self._last_t = 0.0
        self._window_start = 0.0
        self.max_seen = 0

    def update(self, now: float, delta: int) -> None:
        """Apply ``delta`` to the occupancy at time ``now``."""
        # _accumulate is inlined here: this is the hottest telemetry
        # call in the simulator (every credit alloc/free lands here).
        value = self.value
        capacity = self.capacity
        dt = now - self._last_t
        if dt > 0:
            self._integral += value * dt
            if capacity is not None and value >= capacity:
                self._full_time += dt
            self._last_t = now
        value += delta
        self.value = value
        if value < 0:
            raise ValueError("occupancy went negative; accounting bug")
        if capacity is not None and value > capacity:
            raise ValueError(
                f"occupancy {value} exceeds capacity {capacity}"
            )
        if value > self.max_seen:
            self.max_seen = value

    def _accumulate(self, now: float) -> None:
        dt = now - self._last_t
        if dt > 0:
            self._integral += self.value * dt
            if self.capacity is not None and self.value >= self.capacity:
                self._full_time += dt
            self._last_t = now

    def reset(self, now: float) -> None:
        """Start a fresh measurement window at ``now`` (occupancy kept)."""
        self._integral = 0.0
        self._full_time = 0.0
        self._last_t = now
        self._window_start = now
        self.max_seen = self.value

    def average(self, now: float) -> float:
        """Average occupancy over the current window."""
        self._accumulate(now)
        elapsed = now - self._window_start
        if elapsed <= 0:
            return float(self.value)
        return self._integral / elapsed

    def full_fraction(self, now: float) -> float:
        """Fraction of the window during which the resource was full."""
        if self.capacity is None:
            return 0.0
        self._accumulate(now)
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._full_time / elapsed


class RateCounter:
    """Event counter with arrival-rate derivation over a window."""

    __slots__ = ("count", "_window_start")

    def __init__(self) -> None:
        self.count = 0
        self._window_start = 0.0

    def increment(self, n: int = 1) -> None:
        """Count ``n`` events."""
        self.count += n

    def reset(self, now: float) -> None:
        """Start a fresh window."""
        self.count = 0
        self._window_start = now

    def rate(self, now: float) -> float:
        """Arrivals per nanosecond over the current window."""
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.count / elapsed


class LatencyStat:
    """Direct latency accumulation (sum + count + max)."""

    __slots__ = ("total", "count", "max_seen")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.max_seen = 0.0

    def record(self, latency: float, n: int = 1) -> None:
        """Accumulate one latency sample (``n`` identical samples)."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if n == 1:
            self.total += latency
            self.count += 1
        else:
            self.total += latency * n
            self.count += n
        if latency > self.max_seen:
            self.max_seen = latency

    def reset(self, now: float = 0.0) -> None:
        """Discard accumulated samples."""
        self.total = 0.0
        self.count = 0
        self.max_seen = 0.0

    @property
    def average(self) -> float:
        """Mean of recorded samples (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count


class ClassStats:
    """Per-traffic-class bundle: arrivals, completions, latency.

    Mirrors the paper's use of CHA umask/opcode filtering to classify
    requests by source (CPU/peripheral) and type (read/write).
    """

    __slots__ = ("arrivals", "completions", "latency")

    def __init__(self) -> None:
        self.arrivals = RateCounter()
        self.completions = RateCounter()
        self.latency = LatencyStat()

    def reset(self, now: float) -> None:
        """Start a fresh window for every sub-counter."""
        self.arrivals.reset(now)
        self.completions.reset(now)
        self.latency.reset(now)


class CounterHub:
    """Registry of all counters in a host, reset as one unit.

    The experiment runner resets the hub after warmup so every derived
    metric covers exactly the measurement window.

    A non-empty ``namespace`` prefixes every registered name with
    ``"<namespace>."`` at get-or-create time, so several hosts composed
    into one cluster keep globally-distinguishable counter and pool
    names (``h0.iio.write``, ``h1.iio.write``, ...). The default empty
    namespace leaves every name byte-identical to the historical
    layout — single-host fingerprints cannot move. Collection code
    that parses registry keys by prefix uses :meth:`scoped` /
    :meth:`local` to translate between bare and namespaced names.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._prefix = f"{namespace}." if namespace else ""
        self._occupancy: Dict[str, OccupancyCounter] = {}
        self._rates: Dict[str, RateCounter] = {}
        self._latencies: Dict[str, LatencyStat] = {}
        self._classes: Dict[str, ClassStats] = {}
        self._pools: Dict[str, "CreditPool"] = {}
        self._window_start = 0.0

    @property
    def window_start(self) -> float:
        """When the current measurement window began."""
        return self._window_start

    def scoped(self, name: str) -> str:
        """The registry key for a bare name (namespace applied)."""
        return self._prefix + name

    def local(self, name: str) -> str:
        """The bare name for a registry key (namespace stripped)."""
        if self._prefix and name.startswith(self._prefix):
            return name[len(self._prefix):]
        return name

    def occupancy(self, name: str, capacity: Optional[int] = None) -> OccupancyCounter:
        """Get-or-create the named occupancy counter."""
        name = self._prefix + name
        counter = self._occupancy.get(name)
        if counter is None:
            counter = OccupancyCounter(capacity)
            self._occupancy[name] = counter
        return counter

    def pool(
        self,
        name: str,
        capacity: Optional[int] = None,
        soft: bool = False,
    ) -> "CreditPool":
        """Get-or-create the named credit pool.

        The pool's occupancy counter is registered under the same name
        so existing counter-based telemetry keeps working; ``soft``
        pools get an uncapped counter (their occupancy may transiently
        exceed the admission threshold, e.g. the CHA write stage under
        DDIO eviction writebacks).
        """
        # Imported lazily: the credit runtime builds on these counters,
        # so a module-level import would be circular.
        from repro.sim.credit import CreditPool

        scoped = self._prefix + name
        pool = self._pools.get(scoped)
        if pool is None:
            occ = self.occupancy(name, None if soft else capacity)
            pool = CreditPool(scoped, occ, capacity, soft=soft)
            self._pools[scoped] = pool
        return pool

    def register_pool(self, pool: "CreditPool") -> None:
        """Adopt an externally-constructed pool (e.g. a per-core LFB)
        into the hub's window-reset cycle."""
        self._pools[pool.name] = pool

    def rate(self, name: str) -> RateCounter:
        """Get-or-create the named rate counter."""
        name = self._prefix + name
        counter = self._rates.get(name)
        if counter is None:
            counter = RateCounter()
            self._rates[name] = counter
        return counter

    def latency(self, name: str) -> LatencyStat:
        """Get-or-create the named latency stat."""
        name = self._prefix + name
        stat = self._latencies.get(name)
        if stat is None:
            stat = LatencyStat()
            self._latencies[name] = stat
        return stat

    def traffic_class(self, name: str) -> ClassStats:
        """Get-or-create the per-class counter bundle."""
        name = self._prefix + name
        stats = self._classes.get(name)
        if stats is None:
            stats = ClassStats()
            self._classes[name] = stats
        return stats

    def names(self) -> Iterable[str]:
        """All registered counter names."""
        yield from self._occupancy
        yield from self._rates
        yield from self._latencies
        yield from self._classes

    def reset(self, now: float) -> None:
        """Start a fresh measurement window for every counter."""
        self._window_start = now
        for counter in self._occupancy.values():
            counter.reset(now)
        for counter in self._rates.values():
            counter.reset(now)
        for stat in self._latencies.values():
            stat.reset(now)
        for stats in self._classes.values():
            stats.reset(now)
        # Pool occupancy counters are reset through the occupancy
        # registry above; the hold-time stats live on the pools. The
        # lifetime alloc/free counts are deliberately *not* reset —
        # the validator and the DomainTracker snapshot them at window
        # start instead (credit conservation spans windows).
        for pool in self._pools.values():
            pool.latency.reset(now)
