"""First-class credit runtime: one algebra for every credit loop.

The paper's §4 observation is that every host-network domain is the
same mechanism — a credit pool of ``C`` cachelines whose round-trip
hold time ``L`` bounds throughput at ``T <= C * 64 / L``. The
simulator's four loops (LFB, IIO read/write buffers, CHA admission
stages, RPQ/WPQ) historically each carried a bespoke counter pair;
:class:`CreditPool` unifies them:

* **FIFO one-shot waiters** — a blocked sender registers a callback
  that fires exactly once, in registration order, when credits free
  (replacing the IIO's broadcast-to-everyone list);
* **lifetime alloc/free counters** — the credit-conservation identity
  (credits freed == credits acquired net of occupancy drift) checked
  by :mod:`repro.validate`;
* **occupancy integral** — time-averaged credits-in-use via the shared
  :class:`~repro.telemetry.counters.OccupancyCounter`;
* **credit-hold latency** — ``release_held`` accumulates the domain
  latency ``L`` (time from acquire to release) per pool;
* **reservations** — RPQ/WPQ slots claimed for requests in transit
  from the CHA (``reserve``/``commit``).

:class:`DomainTracker` maps the four Fig. 5 domains onto their pools
and produces :class:`DomainSnapshot`\\ s — the live (C, occupancy, L,
T) tuple plus the bound utilization ``T*L/(C*64)`` — surfaced on
:class:`~repro.topology.host.RunResult` and consumed by
:mod:`repro.model` and :class:`repro.core.domain.Domain`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.domain import DomainKind
from repro.sim.records import CACHELINE_BYTES
from repro.telemetry.counters import CounterHub, LatencyStat, OccupancyCounter


class CreditPool:
    """One credit-based flow-control loop.

    ``capacity`` is the pool size in cachelines (the paper's ``C``).
    ``soft=True`` marks pools whose *admission* threshold is the
    capacity but whose occupancy may legitimately overshoot it (the
    CHA write stage: DDIO eviction writebacks enter without passing
    ingress); the validator then only checks ``occupancy >= 0``.

    Callers enforce admission themselves via :meth:`has_room` /
    :meth:`can_accept`; ``acquire`` does not re-check, so components
    keep their historical, component-specific error messages.

    The SoA kernels (``dram/kernel.py``, ``uncore/kernel.py``) inline
    these method bodies statement-for-statement on their hot paths;
    ``tests/test_credit.py::TestInlinedFastPaths`` replays the inlined
    recipes against the canonical methods, so any change here must
    update the kernels and will fail those tests until it does.
    """

    __slots__ = (
        "name",
        "capacity",
        "soft",
        "occ",
        "reserved",
        "alloc_count",
        "free_count",
        "latency",
        "_occ_update",
        "_waiters",
    )

    def __init__(
        self,
        name: str,
        occupancy: OccupancyCounter,
        capacity: Optional[int] = None,
        soft: bool = False,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError("credit pool capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.soft = soft
        self.occ = occupancy
        # Prebound: acquire/release run once per cacheline, so skip
        # the attribute walk to the counter.
        self._occ_update = occupancy.update
        #: slots claimed for requests in transit (RPQ/WPQ admission).
        self.reserved = 0
        #: lifetime credit-event counts, consumed by the credit
        #: conservation check of :mod:`repro.validate` (credits freed
        #: must equal credits acquired, net of occupancy drift).
        self.alloc_count = 0
        self.free_count = 0
        #: credit-hold-time accumulation (the domain latency ``L``),
        #: fed by :meth:`release_held`; window-reset by the hub.
        self.latency = LatencyStat()
        self._waiters: Deque[Callable[[], None]] = deque()

    # -------------------------- read API -------------------------------

    @property
    def in_use(self) -> int:
        """Credits currently held."""
        return self.occ.value

    @property
    def value(self) -> int:
        """Alias for :attr:`in_use` (OccupancyCounter-compatible)."""
        return self.occ.value

    @property
    def max_seen(self) -> int:
        """High-water mark of credits held this window."""
        return self.occ.max_seen

    @property
    def free_credits(self) -> int:
        """Credits available right now (unbounded pools report 0)."""
        if self.capacity is None:
            return 0
        return self.capacity - self.occ.value

    def has_room(self, n: int = 1) -> bool:
        """Whether ``n`` credits can be acquired at once."""
        if self.capacity is None:
            return True
        return self.occ.value + n <= self.capacity

    def can_accept(self, n: int = 1) -> bool:
        """Whether ``n`` credits are free, counting reservations."""
        if self.capacity is None:
            return True
        return self.occ.value + self.reserved + n <= self.capacity

    def average(self, now: float) -> float:
        """Time-averaged credits in use over the current window."""
        return self.occ.average(now)

    # ------------------------ credit movement ---------------------------

    def acquire(self, now: float, n: int = 1) -> None:
        """Consume ``n`` credits at time ``now``."""
        self.alloc_count += n
        self._occ_update(now, n)

    def release(self, now: float, n: int = 1) -> None:
        """Replenish ``n`` credits; wakes registered waiters (FIFO)."""
        self.free_count += n
        self._occ_update(now, -n)
        if self._waiters:
            self._drain_waiters()

    def release_held(self, now: float, t_acquire: float, n: int = 1) -> None:
        """Release ``n`` credits held since ``t_acquire``, accumulating
        the hold time — the domain latency ``L`` of §4.1."""
        self.latency.record(now - t_acquire, n)
        self.free_count += n
        self._occ_update(now, -n)
        if self._waiters:
            self._drain_waiters()

    # -------------------------- reservations ----------------------------

    def reserve(self, n: int = 1) -> None:
        """Claim ``n`` credits for a request in transit (no occupancy
        yet); the caller must have checked :meth:`can_accept`."""
        self.reserved += n

    def commit(self, now: float, n: int = 1) -> None:
        """Convert ``n`` reserved credits into held credits."""
        self.reserved -= n
        self.alloc_count += n
        self._occ_update(now, n)

    # ---------------------------- waiters -------------------------------

    def add_waiter(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired at the next release.

        Waiters are served in registration order and removed as they
        fire; a still-blocked sender re-registers from its callback
        (those registrations wait for the *next* release, so one
        release cannot spin on a sender it cannot satisfy).
        """
        self._waiters.append(callback)

    @property
    def waiter_count(self) -> int:
        """Waiters currently registered (fairness/leak tests)."""
        return len(self._waiters)

    def _drain_waiters(self) -> None:
        pending = self._waiters
        self._waiters = deque()
        while pending:
            pending.popleft()()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (
            f"CreditPool({self.name!r}, in_use={self.occ.value}/{cap}, "
            f"reserved={self.reserved}, allocs={self.alloc_count}, "
            f"frees={self.free_count})"
        )


@dataclass(frozen=True)
class DomainSnapshot:
    """Live (C, occupancy, L, T) of one Fig. 5 domain over a window.

    All values are exact simulation measurements; ``credits_in_use``
    is the time-averaged occupancy integral of the domain's pools,
    ``latency_ns`` the lines-weighted mean domain latency, and
    ``throughput_bytes_per_ns`` the domain's completed cachelines
    converted to bytes/ns (== GB/s).
    """

    kind: str
    #: pool size C, in cachelines (summed over the domain's pools —
    #: e.g. every core's LFB for the C2M domains)
    credits: float
    #: time-averaged credits held over the window
    credits_in_use: float
    #: instantaneous credits held at collection time
    occupancy_now: int
    #: credit events within the window (lines-weighted); the C2M
    #: domains share the LFB pool, so their alloc/free counts cover
    #: both directions
    allocs: int
    frees: int
    #: mean domain latency L (ns) from direct per-request timestamps
    latency_ns: float
    #: cachelines that completed the domain round trip this window
    completions: int
    #: achieved domain throughput T (bytes/ns == GB/s)
    throughput_bytes_per_ns: float

    @property
    def bound_bytes_per_ns(self) -> float:
        """The §4.1 bound ``C * 64 / L`` (inf when L is unmeasured)."""
        if self.latency_ns <= 0:
            return float("inf")
        return self.credits * CACHELINE_BYTES / self.latency_ns

    @property
    def bound_utilization(self) -> float:
        """``T * L / (C * 64)``: how much of the credit bound is used.

        1.0 means the domain runs at its bound (saturated credits);
        the validator demands this never exceeds 1 beyond tolerance.
        """
        if self.credits <= 0:
            return 0.0
        return (
            self.throughput_bytes_per_ns
            * self.latency_ns
            / (self.credits * CACHELINE_BYTES)
        )


#: hub latency-stat prefix recording each domain's per-request L
#: (per traffic class; the tracker aggregates over classes).
_DOMAIN_PREFIXES: Dict[DomainKind, str] = {
    DomainKind.C2M_READ: "domain.c2m_read.",
    DomainKind.C2M_WRITE: "domain.c2m_write.",
    DomainKind.P2M_READ: "domain.p2m_read.",
    DomainKind.P2M_WRITE: "domain.p2m_write.",
    DomainKind.LLC_DDIO: "domain.llc_ddio.",
}


class DomainTracker:
    """Registry mapping the four Fig. 5 domains onto credit pools.

    The host registers each pool at construction (IIO buffers) or as
    senders attach (per-core LFBs); auxiliary pools (CHA stages,
    RPQ/WPQ) are *tracked* without a domain so the validator can walk
    every pool through one uniform conservation probe.
    """

    def __init__(self, hub: CounterHub):
        self._hub = hub
        self._domains: Dict[DomainKind, List[CreditPool]] = {}
        self._pools: List[CreditPool] = []
        self._marks: Dict[str, Tuple[int, int]] = {}

    # --------------------------- registration ---------------------------

    def register(self, kind: DomainKind, pool: CreditPool) -> None:
        """Attach ``pool`` to a domain (a pool may serve two domains:
        the LFB backs both C2M-Read and C2M-Write)."""
        self._domains.setdefault(kind, []).append(pool)
        self.track(pool)

    def track(self, pool: CreditPool) -> None:
        """Track a pool for the uniform validator walk only."""
        if all(existing is not pool for existing in self._pools):
            self._pools.append(pool)

    def pools(self) -> List[CreditPool]:
        """Every tracked pool, in registration order, deduplicated."""
        return list(self._pools)

    def domain_pools(self, kind: DomainKind) -> List[CreditPool]:
        """The pools backing one domain (empty if none registered)."""
        return list(self._domains.get(kind, ()))

    @property
    def kinds(self) -> List[DomainKind]:
        """Domains with at least one registered pool."""
        return list(self._domains)

    # ----------------------------- windows ------------------------------

    def begin_window(self, now: float) -> None:
        """Mark window-start credit counts (hub reset covers the rest)."""
        self._marks = {
            pool.name: (pool.alloc_count, pool.free_count)
            for pool in self._pools
        }

    # ---------------------------- snapshots -----------------------------

    def snapshot(
        self, kind: DomainKind, now: float, elapsed_ns: float
    ) -> DomainSnapshot:
        """Materialize one domain's live (C, occupancy, L, T)."""
        pools = self._domains.get(kind, ())
        credits = 0.0
        avg_occ = 0.0
        occ_now = 0
        allocs = 0
        frees = 0
        for pool in pools:
            if pool.capacity is not None:
                credits += pool.capacity
            avg_occ += pool.occ.average(now)
            occ_now += pool.occ.value
            mark_alloc, mark_free = self._marks.get(pool.name, (0, 0))
            allocs += pool.alloc_count - mark_alloc
            frees += pool.free_count - mark_free
        total = 0.0
        count = 0
        prefix = self._hub.scoped(_DOMAIN_PREFIXES[kind])
        for name, stat in self._hub._latencies.items():
            if name.startswith(prefix):
                total += stat.total
                count += stat.count
        latency = total / count if count else 0.0
        throughput = (
            count * CACHELINE_BYTES / elapsed_ns if elapsed_ns > 0 else 0.0
        )
        return DomainSnapshot(
            kind=kind.value,
            credits=credits,
            credits_in_use=avg_occ,
            occupancy_now=occ_now,
            allocs=allocs,
            frees=frees,
            latency_ns=latency,
            completions=count,
            throughput_bytes_per_ns=throughput,
        )

    def snapshot_all(
        self, now: float, elapsed_ns: float
    ) -> Dict[str, DomainSnapshot]:
        """Snapshots for every registered domain, keyed by kind value."""
        return {
            kind.value: self.snapshot(kind, now, elapsed_ns)
            for kind in self._domains
        }
