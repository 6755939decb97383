"""Cross-layer invariant probes over a :class:`~repro.topology.host.Host`.

The :class:`Validator` is installed by the host when validation is on
(``REPRO_VALIDATE=1`` or ``Host(..., validate=True)``). It snapshots
credit-event counters at the start of the measurement window and, at
the end of the window, walks every layer:

* **engine** — clock monotone and finite, heap property intact,
  fast-path vs cancellable-path dispatch equivalence (a scripted
  self-test run once at install);
* **credit pools** — every pool registered with the host's
  :class:`~repro.sim.credit.DomainTracker` (per-core LFBs, IIO
  buffers, CHA stages, RPQ/WPQ) through one uniform probe: occupancy
  within ``[0, C]`` (soft pools: ``>= 0``), reservations non-negative
  and within capacity, and *credit conservation* — credits freed
  equal credits acquired net of the occupancy drift across the window;
* **queues** — per-bank FIFO contents reconciling with the RPQ/WPQ
  pools, CHA ingress/stage/backlog accounting;
* **telemetry** — Little's-law latency (``L = O / R``, §4.2) from
  occupancy integrals agreeing with each pool's credit-hold
  timestamps within a tolerance, and the paper's throughput bound
  ``T <= C * 64 / L`` checked per pool (rate form ``R * L <= C``)
  and per Fig. 5 domain snapshot (``T * L / (C * 64) <= 1``).

Structural identities are exact; statistical identities use
``REPRO_VALIDATE_TOL`` (default 0.25) and require ``MIN_SAMPLES``
latency samples, because requests in flight across the window reset
perturb short windows. All probes are read-only: a validated run
executes the identical event sequence and produces float-identical
results (only the wall-clock diagnostics and the check count differ).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.telemetry.littleslaw import littles_law_latency
from repro.validate.engine import dispatch_equivalence_selftest, verify_heap
from repro.validate.invariants import (
    MIN_SAMPLES,
    InvariantViolation,
    tolerance as default_tolerance,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (host imports us)
    from repro.topology.host import Host


class Validator:
    """Window-scoped invariant checker for one host."""

    def __init__(
        self,
        tolerance: Optional[float] = None,
        min_samples: int = MIN_SAMPLES,
    ):
        self.tolerance = default_tolerance() if tolerance is None else tolerance
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.min_samples = min_samples
        self.checks_passed = 0
        self._t0 = 0.0
        self._now = 0.0
        self._snapshot: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle (called by Host)
    # ------------------------------------------------------------------

    def install(self, host: "Host") -> None:
        """One-time probe setup; runs the engine dispatch self-test."""
        dispatch_equivalence_selftest()
        self.checks_passed += 1

    def begin_window(self, host: "Host") -> None:
        """Snapshot credit-event counters at the window start.

        One uniform walk over every pool the host's DomainTracker
        knows (LFBs, IIO buffers, CHA stages, RPQ/WPQ).
        """
        self._t0 = self._now = host.sim.now
        snap = self._snapshot = {}
        for pool in host.domains.pools():
            snap[f"{pool.name}.alloc"] = pool.alloc_count
            snap[f"{pool.name}.free"] = pool.free_count
            snap[f"{pool.name}.occ"] = pool.occ.value

    def end_window(self, host: "Host") -> int:
        """Run every probe; returns the cumulative checks-passed count.

        Raises :class:`InvariantViolation` on the first failed
        identity, naming the component, the identity and the window.
        """
        self.check_engine(host)
        self.check_credit_pools(host)
        self.check_cha(host)
        self.check_llc(host)
        self.check_channels(host)
        self.check_pcie(host)
        self.check_littles_law(host)
        self.check_domains(host)
        return self.checks_passed

    def post_restore(self, host: "Host") -> int:
        """Structural walk over a checkpoint-restored host.

        Run automatically by ``Host.restore()`` under
        ``REPRO_VALIDATE=1``: heap structure (verify_heap), pool
        bounds and credit conservation, CHA/LLC (``verify_tags``) /
        channel (kernel ``verify_consistency``) / PCIe accounting. The
        statistical probes (Little's law, domain bounds) are skipped —
        the restore point is mid-window, where their rate identities
        are not yet meaningful. Returns the cumulative checks-passed
        count.
        """
        if not self._snapshot:
            # Restored mid-warmup: no measurement window is open, but
            # credit conservation still holds from t=0 (the counters
            # and occupancy have moved together since construction),
            # so the uniform pool walk applies with a zero snapshot.
            self._t0 = host.sim.now
        self.check_engine(host)
        self.check_credit_pools(host)
        self.check_cha(host)
        self.check_llc(host)
        self.check_channels(host)
        self.check_pcie(host)
        return self.checks_passed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @property
    def _window(self) -> Tuple[float, float]:
        return (self._t0, self._now)

    def _require(
        self,
        ok: bool,
        component: str,
        identity: str,
        message: str,
        **details,
    ) -> None:
        if not ok:
            raise InvariantViolation(
                component, identity, message, window=self._window, details=details
            )
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # Layer probes
    # ------------------------------------------------------------------

    def check_engine(self, host: "Host") -> None:
        """Clock sanity and heap health."""
        sim = host.sim
        self._now = sim.now
        self._require(
            math.isfinite(sim.now),
            "engine",
            "clock-finite",
            f"simulation clock is not finite: {sim.now}",
        )
        self._require(
            sim.now >= self._t0,
            "engine",
            "clock-monotonicity",
            f"clock moved backwards across the window: {sim.now} < {self._t0}",
        )
        self._require(
            sim.events_processed >= 0,
            "engine",
            "event-count",
            f"negative events_processed {sim.events_processed}",
        )
        verify_heap(sim)
        self.checks_passed += 1

    def _check_pool(self, pool) -> None:
        """Bounds, reservation sanity and conservation for one pool."""
        name = pool.name
        value = pool.occ.value
        if pool.capacity is not None and not pool.soft:
            self._require(
                0 <= value <= pool.capacity,
                name,
                "occupancy-bounds",
                f"occupancy {value} outside [0, {pool.capacity}]",
            )
            self._require(
                value + pool.reserved <= pool.capacity,
                name,
                "admission-capacity",
                "admitted + reserved exceeds pool capacity",
                value=value,
                reserved=pool.reserved,
                capacity=pool.capacity,
            )
        else:
            # Soft pools (CHA stages): the capacity is an admission
            # threshold only — DDIO eviction writebacks legitimately
            # overshoot it — so only non-negativity is structural.
            self._require(
                value >= 0,
                name,
                "occupancy-bounds",
                f"negative occupancy {value}",
            )
        self._require(
            pool.reserved >= 0,
            name,
            "reservation-bounds",
            f"negative in-transit reservation count {pool.reserved}",
        )
        snap = self._snapshot
        allocs = pool.alloc_count - int(snap.get(f"{name}.alloc", 0))
        frees = pool.free_count - int(snap.get(f"{name}.free", 0))
        drift = value - snap.get(f"{name}.occ", 0)
        self._require(
            allocs - frees == drift,
            name,
            "credit-conservation",
            "credits freed != credits acquired net of occupancy drift",
            acquired=allocs,
            freed=frees,
            occupancy_drift=drift,
        )

    def check_credit_pools(self, host: "Host") -> None:
        """Every tracked pool: bounds + per-window credit conservation."""
        self._now = host.sim.now
        for pool in host.domains.pools():
            self._check_pool(pool)

    def check_cha(self, host: "Host") -> None:
        """CHA ingress / stage / backlog accounting."""
        self._now = host.sim.now
        cha = host.cha
        self._require(
            cha.ingress_occ.value == cha.admission_queue_len,
            "cha.ingress",
            "occupancy-accounting",
            "ingress occupancy counter disagrees with the FCFS queue",
            counter=cha.ingress_occ.value,
            queue=cha.admission_queue_len,
        )
        self._require(
            cha.read_stage.value >= cha.read_backlog_len,
            "cha.read_stage",
            "backlog-accounting",
            "more backlogged reads than read-stage entries",
            stage=cha.read_stage.value,
            backlog=cha.read_backlog_len,
        )
        self._require(
            cha.write_waiting.value >= cha.write_backlog_len,
            "cha.write_stage",
            "backlog-accounting",
            "more backlogged writes than write-stage entries",
            stage=cha.write_waiting.value,
            backlog=cha.write_backlog_len,
        )
        kernel = cha.kernel
        if kernel is not None:
            # SoA uncore kernel: incremental line counters, intern
            # tables and pool conservation must agree exactly with
            # direct walks of the shared queues.
            try:
                kernel.verify_consistency()
            except AssertionError as exc:
                raise InvariantViolation(
                    "cha.kernel",
                    "kernel-consistency",
                    str(exc),
                    window=self._window,
                ) from None
            self.checks_passed += 1

    def check_llc(self, host: "Host") -> None:
        """LLC tag-store structure + DDIO credit-occupancy identity.

        The tag walk (:meth:`~repro.uncore.llc.LastLevelCache
        .verify_tags`) proves every line sits in the set its address
        maps to, tags are unique per set and no set exceeds the
        associativity; when the llc.ddio domain is live, the credits
        held must equal the resident DMA-tagged lines exactly.
        """
        self._now = host.sim.now
        llc = host.llc
        if llc is None:
            return
        try:
            llc.verify_tags()
        except AssertionError as exc:
            raise InvariantViolation(
                "llc",
                "tag-store",
                str(exc),
                window=self._window,
            ) from None
        self.checks_passed += 1
        pool = getattr(host, "llc_ddio_pool", None)
        if pool is not None:
            dma = llc.dma_lines()
            self._require(
                pool.occ.value == dma,
                "llc.ddio",
                "occupancy-accounting",
                "llc.ddio credits held disagree with resident DMA lines",
                credits_held=pool.occ.value,
                dma_lines=dma,
            )

    def check_channels(self, host: "Host") -> None:
        """Per-channel bank-FIFO reconciliation with the queue pools.

        The RPQ/WPQ pools themselves (bounds, reservations,
        conservation) are covered by the uniform pool walk of
        :meth:`check_credit_pools`.
        """
        self._now = host.sim.now
        for channel in host.mc.channels:
            name = f"mc.ch{channel.channel_id}"
            bank_reads, bank_writes = channel.queued_in_banks()
            # queued_in_banks() is an incrementally maintained cache;
            # recount the FIFOs directly so a drifted counter cannot
            # hide behind its own bookkeeping.
            walk = channel.walk_queued_lines()
            self._require(
                walk == (bank_reads, bank_writes),
                name,
                "queue-count-cache",
                "cached queued-lines counters drifted from the bank FIFOs",
                cached=(bank_reads, bank_writes),
                walk=walk,
            )
            kernel = channel.kernel
            if kernel is not None:
                # SoA kernel: head caches and open-row match sets must
                # agree exactly with the FIFO contents and bank arrays.
                try:
                    kernel.verify_consistency()
                except AssertionError as exc:
                    raise InvariantViolation(
                        name,
                        "kernel-consistency",
                        str(exc),
                        window=self._window,
                    ) from None
                self.checks_passed += 1
            in_flight_reads = channel.rpq_count - bank_reads
            in_flight_writes = channel.wpq_count - bank_writes
            # At most one request has been popped for transmit but not
            # yet completed (the channel serializes transmissions).
            self._require(
                in_flight_reads >= 0
                and in_flight_writes >= 0
                and in_flight_reads + in_flight_writes <= 1,
                name,
                "bank-fifo-accounting",
                "bank FIFO contents do not reconcile with queue counts",
                rpq=(channel.rpq_count, bank_reads),
                wpq=(channel.wpq_count, bank_writes),
            )

    def check_pcie(self, host: "Host") -> None:
        """PCIe link byte accounting and serialization cursors."""
        self._now = host.sim.now
        link = host.link
        self._require(
            link.bytes_upstream >= 0 and link.bytes_downstream >= 0,
            "pcie.link",
            "byte-accounting",
            "negative transferred-bytes counter",
            upstream=link.bytes_upstream,
            downstream=link.bytes_downstream,
        )
        self._require(
            math.isfinite(link.upstream_next_free())
            and math.isfinite(link.downstream_next_free()),
            "pcie.link",
            "serialization-cursor",
            "non-finite link serialization cursor",
        )

    # ------------------------------------------------------------------
    # Statistical identities (§4.2)
    # ------------------------------------------------------------------

    def _check_littles_law_pool(
        self,
        component: str,
        avg_occupancy: float,
        capacity: float,
        count: int,
        direct_latency: float,
        elapsed: float,
    ) -> None:
        """``L = O / R`` agreement plus the ``T <= C * 64 / L`` bound.

        ``count`` completions over ``elapsed`` define the rate R; the
        direct latency comes from per-request timestamps the real
        hardware cannot observe. The throughput bound is checked in
        its rate form ``R * L <= C`` (multiply both sides of
        ``T <= C * 64 / L`` by ``L / 64``).
        """
        if count < self.min_samples or elapsed <= 0 or direct_latency <= 0:
            return
        rate = count / elapsed
        estimate = littles_law_latency(avg_occupancy, rate)
        error = abs(estimate - direct_latency) / direct_latency
        self._require(
            error <= self.tolerance,
            component,
            "littles-law",
            "occupancy-derived latency disagrees with direct timestamps",
            littles_law_ns=round(estimate, 3),
            direct_ns=round(direct_latency, 3),
            relative_error=round(error, 4),
            tolerance=self.tolerance,
        )
        self._require(
            rate * direct_latency <= capacity * (1.0 + self.tolerance),
            component,
            "throughput-bound",
            "throughput exceeds the credit bound T <= C * 64 / L",
            implied_occupancy=round(rate * direct_latency, 3),
            capacity=capacity,
        )

    def check_littles_law(self, host: "Host") -> None:
        """Cross-check occupancy integrals against credit-hold times.

        Every pool accumulates its own hold-time stats (``L``) via
        ``release_held``, covering exactly the population that fed the
        occupancy integral — loads, RFO stores *and* non-temporal
        stores for the LFB; every DMA direction for the IIO — so the
        two sides of ``L = O / R`` are matched by construction.
        """
        now = host.sim.now
        self._now = now
        elapsed = now - self._t0

        # LFBs aggregated per traffic class (the granularity the
        # paper's uncore counters report at).
        by_class: Dict[str, Dict[str, float]] = {}
        for core in host.cores:
            tc = core.workload.traffic_class
            slot = by_class.setdefault(
                tc, {"occ": 0.0, "capacity": 0.0, "total": 0.0, "count": 0}
            )
            slot["occ"] += core.lfb.average_occupancy(now)
            slot["capacity"] += core.lfb.size
            slot["total"] += core.lfb.latency.total
            slot["count"] += core.lfb.latency.count
        for tc, slot in by_class.items():
            if slot["count"] == 0:
                continue
            self._check_littles_law_pool(
                f"lfb.{tc}",
                slot["occ"],
                slot["capacity"],
                int(slot["count"]),
                slot["total"] / slot["count"],
                elapsed,
            )

        # IIO pools: hold-time stats aggregate over traffic classes.
        iio = host.iio
        for pool in (iio.write_pool, iio.read_pool):
            stat = pool.latency
            if stat.count == 0:
                continue
            self._check_littles_law_pool(
                pool.name,
                pool.average(now),
                pool.capacity,
                stat.count,
                stat.average,
                elapsed,
            )

        # The DDIO slice: hold times are DMA-line residencies,
        # recorded by the LLC at each eviction (release_held). Unlike
        # the other pools (hold times of hundreds of ns), a line's
        # residency can approach the window length — and Little's law
        # over a window only holds when elapsed >> L (the occupancy
        # integral is otherwise dominated by lines installed before
        # the window). Only check once the slice demonstrably turned
        # over several times within the window.
        pool = getattr(host, "llc_ddio_pool", None)
        if (
            pool is not None
            and pool.latency.count > 0
            and pool.latency.average * 4.0 <= elapsed
        ):
            self._check_littles_law_pool(
                pool.name,
                pool.average(now),
                pool.capacity,
                pool.latency.count,
                pool.latency.average,
                elapsed,
            )

    def check_domains(self, host: "Host") -> None:
        """The paper's bound on each live Fig. 5 domain snapshot.

        Every :class:`~repro.sim.credit.DomainSnapshot` must satisfy
        ``T <= C * 64 / L`` — stated as the bound utilization
        ``T * L / (C * 64) <= 1`` — within tolerance, whenever the
        domain measured enough completions for L to be stable.
        """
        now = host.sim.now
        self._now = now
        elapsed = now - self._t0
        if elapsed <= 0:
            return
        for kind in host.domains.kinds:
            snapshot = host.domains.snapshot(kind, now, elapsed)
            if (
                snapshot.completions < self.min_samples
                or snapshot.latency_ns <= 0
                or snapshot.credits <= 0
            ):
                continue
            self._require(
                snapshot.bound_utilization <= 1.0 + self.tolerance,
                f"domain.{snapshot.kind}",
                "throughput-bound",
                "domain throughput exceeds the credit bound T <= C * 64 / L",
                utilization=round(snapshot.bound_utilization, 4),
                throughput_bytes_per_ns=round(snapshot.throughput_bytes_per_ns, 4),
                bound_bytes_per_ns=round(snapshot.bound_bytes_per_ns, 4),
                credits=snapshot.credits,
                latency_ns=round(snapshot.latency_ns, 3),
            )
