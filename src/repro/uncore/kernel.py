"""Struct-of-arrays uncore kernel (``REPRO_UNCORE``).

After the SoA DRAM channel kernel (``dram/kernel.py``) took the
scheduler off the profile, the remaining per-request cost sits in flat
uncore model code: CHA ingress/stage admission, IIO credit handling
and per-line ``CreditPool`` traffic. :class:`UncoreKernel` gives that
path the same fuse-the-pipeline treatment:

* **one fused admission path** — IIO credit acquire → CHA ingress
  (FCFS, HoL-faithful) → read/write stage → MC/LLC handoff runs as a
  single chain of methods with every ``CreditPool`` /
  ``OccupancyCounter`` operation hand-inlined (statement-for-statement
  copies of the canonical methods, pinned by
  ``tests/test_credit.py::TestInlinedFastPaths``-style replay tests);
* **interned traffic classes + deferred stats** — the per-class CHA
  stats (admission delay, arrivals/completions, read/write latency)
  accumulate into flat arrays indexed by interned class ids and are
  materialized into the :class:`~repro.telemetry.counters.CounterHub`
  registries only at window boundaries (:meth:`sync_stats`). The IIO
  *domain* latency stats stay live: :mod:`repro.ext.hostcc` samples
  ``domain.p2m_write.*`` mid-run every control interval, so deferring
  them would change its control decisions.

The kernel is an *exact* reimplementation of the reference CHA/IIO
path, not an approximation: every simulator event is filed at the same
instant in the same submission order, every float accumulation happens
in the same order on the same operands, and all accounting goes
through the same pool/counter objects — so results are float-identical
and the fig03/ddio fingerprints hold with the kernel on or off
(``tests/test_uncore_kernel.py`` holds it to that standard across the
REPRO_DDIO x REPRO_VALIDATE x checkpoint-interrupt matrix).
``REPRO_UNCORE=off`` keeps the historical object-at-a-time path in
``uncore/cha.py`` / ``uncore/iio.py`` (diagnostic aid: any divergence
with the kernel on is a kernel bug).

Wiring mirrors the DRAM kernel's instance-rebinding idiom: the host
constructs one kernel per :class:`~repro.uncore.cha.CHA`/IIO pair and
the kernel rebinds the hot entry points (``request_admission``,
``_pump_ingress``, deliveries, queue-space callbacks, ``iio.alloc`` /
``iio.release``) onto the component instances, so cold-path CHA
methods that re-enter the hot path (LLC hits, writeback spawns)
resolve to the kernel automatically and callers pay zero delegation
overhead. The kernel state rides inside the host pickle, so
checkpoints (``sim/checkpoint.py``) snapshot/restore the arrays for
free; ``REPRO_UNCORE`` is hashed into the checkpoint knob fingerprint
and the run-cache key so a blob or cache entry never silently crosses
implementations.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.sim.records import Request, RequestKind, RequestSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.uncore.cha import CHA
    from repro.uncore.iio import IIO


def uncore_enabled() -> bool:
    """Whether new hosts use the SoA uncore kernel (``REPRO_UNCORE``).

    Defaults to on; ``off``/``0``/``no``/``false`` selects the
    object-at-a-time reference path. Invalid values raise so typos
    don't silently change which implementation runs.
    """
    raw = os.environ.get("REPRO_UNCORE", "on").strip().lower()
    if raw in ("", "on", "1", "yes", "true"):
        return True
    if raw in ("off", "0", "no", "false"):
        return False
    raise ValueError(f"REPRO_UNCORE must be on/off, got {raw!r}")


class UncoreKernel:
    """Fused SoA hot path for one CHA + IIO pair.

    Shares every queue, pool and counter object with the reference
    components (the deques/pools *are* the reference ones), so the
    cold paths, the validator's pool walks and checkpointing see one
    consistent world regardless of which implementation ran.
    """

    __slots__ = (
        "_sim",
        "_hub",
        "_cha",
        "_iio",
        # shared hot structures (the same objects the reference uses)
        "_ingress",
        "_read_backlog",
        "_write_backlog",
        "_channels",
        "llc",
        "ddio_enabled",
        # timing constants
        "t_cha_to_mc",
        "t_llc_hit",
        # pools / counters (same objects as the reference path)
        "ingress_occ",
        "read_stage",
        "write_waiting",
        "_inflight_c2m",
        "_inflight_p2m",
        "write_pool",
        "read_pool",
        # per-channel prebound admission state
        "_rpq_pools",
        "_wpq_pools",
        "_track_full",
        # live per-class IIO domain stats (mid-run readers: ext.hostcc)
        "_iio_wr_stats",
        "_iio_rd_stats",
        # interned traffic classes + deferred flat per-class stats
        "cls_ids",
        "cls_names",
        "adm_total",
        "adm_count",
        "adm_max",
        "arr_lines",
        "comp_lines",
        "rd_total",
        "rd_count",
        "rd_max",
        "wr_total",
        "wr_count",
        "wr_max",
        # incrementally-maintained structural counters (cachelines)
        "ingress_lines",
        "read_backlog_lines",
        "write_backlog_lines",
    )

    def __init__(self, cha: "CHA", iio: "IIO"):
        self._sim = cha._sim
        self._hub = cha._hub
        self._cha = cha
        self._iio = iio
        self._ingress = cha._ingress
        self._read_backlog = cha._read_backlog
        self._write_backlog = cha._write_backlog
        self._channels = cha._channels
        self.llc = cha.llc
        self.ddio_enabled = cha.ddio_enabled
        self.t_cha_to_mc = cha.t_cha_to_mc
        self.t_llc_hit = cha.t_llc_hit
        self.ingress_occ = cha.ingress_occ
        self.read_stage = cha.read_stage
        self.write_waiting = cha.write_waiting
        self._inflight_c2m = cha._inflight_reads[RequestSource.C2M]
        self._inflight_p2m = cha._inflight_reads[RequestSource.P2M]
        self.write_pool = iio.write_pool
        self.read_pool = iio.read_pool
        self._rpq_pools = [ch.rpq_pool for ch in self._channels]
        self._wpq_pools = [ch.wpq_pool for ch in self._channels]
        self._track_full = [ch._track_wpq_full for ch in self._channels]
        # Share the IIO's lazy stat caches: the hub get-or-creates, so
        # whichever path touches a class first binds the same object
        # in the same registry insertion order (DomainTracker.snapshot
        # sums by prefix in that order, which is float-sensitive).
        self._iio_wr_stats = iio._write_latency
        self._iio_rd_stats = iio._read_latency
        self.cls_ids: dict = {}
        self.cls_names: list = []
        self.adm_total: list = []
        self.adm_count: list = []
        self.adm_max: list = []
        self.arr_lines: list = []
        self.comp_lines: list = []
        self.rd_total: list = []
        self.rd_count: list = []
        self.rd_max: list = []
        self.wr_total: list = []
        self.wr_count: list = []
        self.wr_max: list = []
        # Robust against late construction: start from a walk (the
        # host builds the kernel before any traffic, so these are 0).
        self.ingress_lines = len(self._ingress)
        self.read_backlog_lines = sum(len(q) for q in self._read_backlog)
        self.write_backlog_lines = sum(len(q) for q in self._write_backlog)
        # Rebind the hot path onto the component instances (the DRAM
        # kernel's idiom): cold CHA methods that call
        # ``self._pump_ingress()`` / ``self.request_admission()``
        # resolve to the kernel through the instance dict.
        cha.kernel = self
        cha.request_admission = self.request_admission
        cha._pump_ingress = self._pump_ingress
        cha._deliver_read = self._deliver_read
        cha._deliver_write = self._deliver_write
        cha._on_rpq_space = self._on_rpq_space
        cha._on_wpq_space = self._on_wpq_space
        cha._on_read_serviced = self._on_read_serviced
        iio.alloc = self.iio_alloc
        iio.release = self.iio_release
        for channel in self._channels:
            channel.on_rpq_space = self._on_rpq_space
            channel.on_wpq_space = self._on_wpq_space

    # ------------------------------------------------------------------
    # Class interning
    # ------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        """Assign the next class id and grow every parallel array."""
        cid = len(self.cls_names)
        self.cls_ids[name] = cid
        self.cls_names.append(name)
        self.adm_total.append(0.0)
        self.adm_count.append(0)
        self.adm_max.append(0.0)
        self.arr_lines.append(0)
        self.comp_lines.append(0)
        self.rd_total.append(0.0)
        self.rd_count.append(0)
        self.rd_max.append(0.0)
        self.wr_total.append(0.0)
        self.wr_count.append(0)
        self.wr_max.append(0.0)
        return cid

    # ------------------------------------------------------------------
    # Ingress (rebound over CHA.request_admission / CHA._pump_ingress)
    # ------------------------------------------------------------------

    def request_admission(self, req: Request) -> None:
        """A request arrives at the CHA (from a core or the IIO)."""
        now = self._sim.now
        if not self._ingress:
            # Empty ingress and a free stage: admission is synchronous.
            read = req.kind is RequestKind.READ
            pool = self.read_stage if read else self.write_waiting
            if pool.occ.value < pool.capacity:
                # The reference keeps an occupancy pulse (+1 then -1 at
                # the same instant) so the integral and high-water mark
                # stay identical to the queued path; inlined
                # OccupancyCounter.update x2 (capacity None: no
                # full-time tracking).
                occ = self.ingress_occ
                dt = now - occ._last_t
                if dt > 0:
                    occ._integral += occ.value * dt
                    occ._last_t = now
                value = occ.value + 1
                if value > occ.max_seen:
                    occ.max_seen = value
                # _admit, fused with the admission delay pinned to 0.0:
                # `total += 0.0` cannot change an accumulator that
                # stays >= +0.0, and `0.0 > max` is always false, so
                # only the line counts move (bit-exact vs the
                # reference's record(0.0)).
                req.t_cha_admit = now
                cid = self.cls_ids.get(req.traffic_class)
                if cid is None:
                    cid = self._intern(req.traffic_class)
                req.ucls_id = cid
                self.adm_count[cid] += 1
                self.arr_lines[cid] += 1
                if req.on_cha_admit is not None:
                    req.on_cha_admit(req)
                if read:
                    self._admit_read(req, cid, now)
                else:
                    self._admit_write(req, cid, now)
                return
        self._ingress.append((req, now))
        self.ingress_lines += 1
        # OccupancyCounter.update(now, +1), inlined.
        occ = self.ingress_occ
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        value = occ.value + 1
        occ.value = value
        if value > occ.max_seen:
            occ.max_seen = value
        self._pump_ingress()

    def _pump_ingress(self) -> None:
        """Admit ingress heads while their type stage has room (FCFS:
        a blocked head blocks everyone behind it)."""
        ingress = self._ingress
        if not ingress:
            return
        read_pool = self.read_stage
        write_pool = self.write_waiting
        occ = self.ingress_occ
        while ingress:
            req, t_arrival = ingress[0]
            if req.kind is RequestKind.READ:
                if read_pool.occ.value >= read_pool.capacity:
                    return
            elif write_pool.occ.value >= write_pool.capacity:
                return
            ingress.popleft()
            self.ingress_lines -= 1
            # OccupancyCounter.update(now, -1), inlined. ``now`` is
            # re-read per head: _admit can re-enter the pump (writeback
            # spawns), but the clock cannot advance inside one event.
            now = self._sim.now
            dt = now - occ._last_t
            if dt > 0:
                occ._integral += occ.value * dt
                occ._last_t = now
            occ.value -= 1
            self._admit(req, t_arrival, now)

    def _admit(self, req: Request, t_arrival: float, now: float) -> None:
        req.t_cha_admit = now
        traffic_class = req.traffic_class
        cid = self.cls_ids.get(traffic_class)
        if cid is None:
            cid = self._intern(traffic_class)
        req.ucls_id = cid
        # LatencyStat.record(delay) + arrivals, deferred into the flat
        # arrays.
        latency = now - t_arrival
        self.adm_total[cid] += latency
        self.adm_count[cid] += 1
        if latency > self.adm_max[cid]:
            self.adm_max[cid] = latency
        self.arr_lines[cid] += 1
        if req.on_cha_admit is not None:
            req.on_cha_admit(req)
        if req.kind is RequestKind.READ:
            self._admit_read(req, cid, now)
        else:
            self._admit_write(req, cid, now)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _admit_read(self, req: Request, cid: int, now: float) -> None:
        llc = self.llc
        if llc is not None:
            hit, evicted_dirty = llc.lookup_read(req.line_addr)
            if hit:
                self._sim.schedule(
                    self.t_llc_hit, self._cha._complete_llc_read, req
                )
                return
            if evicted_dirty is not None:
                # Re-enters via request_admission (rebound to the
                # kernel), possibly pumping ingress reentrantly —
                # exactly the reference interleaving.
                self._cha._spawn_writeback(evicted_dirty, req.traffic_class)
        # CreditPool.acquire, inlined (soft pool: uncapped counter).
        # Pinned by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.read_stage
        pool.alloc_count += 1
        occ = pool.occ
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        value = occ.value + 1
        occ.value = value
        if value > occ.max_seen:
            occ.max_seen = value
        # In-flight read tracking, inlined OccupancyCounter.update.
        inflight = (
            self._inflight_c2m
            if req.source is RequestSource.C2M
            else self._inflight_p2m
        )
        dt = now - inflight._last_t
        if dt > 0:
            inflight._integral += inflight.value * dt
            inflight._last_t = now
        value = inflight.value + 1
        inflight.value = value
        if value > inflight.max_seen:
            inflight.max_seen = value
        req.on_serviced = self._on_read_serviced
        channel_id = req.channel_id
        rpq = self._rpq_pools[channel_id]
        # Channel.can_accept_read + reserve_read, inlined (the reserve
        # re-check cannot fail here: checked in the same expression).
        if rpq.occ.value + rpq.reserved < rpq.capacity:
            rpq.reserved += 1
            self._sim.schedule(self.t_cha_to_mc, self._deliver_read, req)
        else:
            self._read_backlog[channel_id].append(req)
            self.read_backlog_lines += 1

    def _deliver_read(self, req: Request) -> None:
        now = self._sim.now
        # CreditPool.release, inlined (the read stage has no waiters
        # registered, but the drain check is kept for exactness).
        # Pinned by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.read_stage
        pool.free_count += 1
        occ = pool.occ
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        occ.value -= 1
        if pool._waiters:
            pool._drain_waiters()
        self._channels[req.channel_id].enqueue_read(req)
        if self._ingress:
            self._pump_ingress()

    def _on_read_serviced(self, req: Request) -> None:
        now = self._sim.now
        inflight = (
            self._inflight_c2m
            if req.source is RequestSource.C2M
            else self._inflight_p2m
        )
        dt = now - inflight._last_t
        if dt > 0:
            inflight._integral += inflight.value * dt
            inflight._last_t = now
        inflight.value -= 1
        latency = (req.t_service - req.t_cha_admit) + self.t_cha_to_mc
        cid = req.ucls_id
        self.rd_total[cid] += latency
        self.rd_count[cid] += 1
        if latency > self.rd_max[cid]:
            self.rd_max[cid] = latency
        self.comp_lines[cid] += 1

    def _on_rpq_space(self, channel_id: int) -> None:
        backlog = self._read_backlog[channel_id]
        if not backlog:
            return
        rpq = self._rpq_pools[channel_id]
        schedule = self._sim.schedule
        t_cha_to_mc = self.t_cha_to_mc
        while backlog:
            if rpq.occ.value + rpq.reserved >= rpq.capacity:
                return
            req = backlog.popleft()
            self.read_backlog_lines -= 1
            rpq.reserved += 1
            schedule(t_cha_to_mc, self._deliver_read, req)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _admit_write(self, req: Request, cid: int, now: float) -> None:
        llc = self.llc
        if (
            llc is not None
            and self.ddio_enabled
            and req.source is RequestSource.P2M
        ):
            # DDIO: the DMA write terminates at the LLC; a dirty
            # eviction becomes a memory write on a fresh request, which
            # inherits the triggering class id (same traffic class).
            outcome, evicted_dirty = llc.write_allocate_ddio(req.line_addr)
            self._sim.schedule(
                self.t_llc_hit, self._cha._complete_ddio_write, req
            )
            if evicted_dirty is None:
                return
            req = self._cha._make_writeback(evicted_dirty, req.traffic_class)
            req.ucls_id = cid
        elif llc is not None and req.source is RequestSource.C2M:
            if llc.writeback_update(req.line_addr):
                self._sim.schedule(
                    0.0, self._cha._complete_absorbed_write, req
                )
                return
        # CreditPool.acquire, inlined (soft pool: uncapped counter).
        pool = self.write_waiting
        pool.alloc_count += 1
        occ = pool.occ
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        value = occ.value + 1
        occ.value = value
        if value > occ.max_seen:
            occ.max_seen = value
        channel_id = req.channel_id
        wpq = self._wpq_pools[channel_id]
        # Channel.can_accept_write + reserve_write, inlined (the WPQ
        # fullness tracker runs exactly as in the reference reserve).
        if wpq.occ.value + wpq.reserved < wpq.capacity:
            wpq.reserved += 1
            self._track_full[channel_id]()
            self._sim.schedule(self.t_cha_to_mc, self._deliver_write, req)
        else:
            self._write_backlog[channel_id].append(req)
            self.write_backlog_lines += 1

    def _deliver_write(self, req: Request) -> None:
        now = self._sim.now
        # CreditPool.release, inlined (hot: every memory write).
        # Pinned by tests/test_credit.py::TestInlinedFastPaths.
        pool = self.write_waiting
        pool.free_count += 1
        occ = pool.occ
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        occ.value -= 1
        if pool._waiters:
            pool._drain_waiters()
        latency = now - req.t_cha_admit
        cid = req.ucls_id
        self.wr_total[cid] += latency
        self.wr_count[cid] += 1
        if latency > self.wr_max[cid]:
            self.wr_max[cid] = latency
        self._channels[req.channel_id].enqueue_write(req)
        self.comp_lines[cid] += 1
        if self._ingress:
            self._pump_ingress()

    def _on_wpq_space(self, channel_id: int) -> None:
        backlog = self._write_backlog[channel_id]
        if not backlog:
            return
        wpq = self._wpq_pools[channel_id]
        track_full = self._track_full[channel_id]
        schedule = self._sim.schedule
        t_cha_to_mc = self.t_cha_to_mc
        moved = False
        while backlog:
            if wpq.occ.value + wpq.reserved >= wpq.capacity:
                break
            req = backlog.popleft()
            self.write_backlog_lines -= 1
            wpq.reserved += 1
            track_full()
            schedule(t_cha_to_mc, self._deliver_write, req)
            moved = True
        if moved:
            self._pump_ingress()

    # ------------------------------------------------------------------
    # IIO credits (rebound over IIO.alloc / IIO.release)
    # ------------------------------------------------------------------

    def iio_alloc(self, req: Request) -> None:
        """Allocate IIO entries at DMA initiation time (device side)."""
        now = self._sim.now
        req.t_alloc = now
        pool = (
            self.write_pool
            if req.kind is RequestKind.WRITE
            else self.read_pool
        )
        # CreditPool.acquire, inlined (hard pool: keep the full-time
        # branch and the capacity guard of OccupancyCounter.update).
        pool.alloc_count += 1
        occ = pool.occ
        value = occ.value
        capacity = occ.capacity
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += value * dt
            if value >= capacity:
                occ._full_time += dt
            occ._last_t = now
        value += 1
        occ.value = value
        if value > capacity:
            raise ValueError(f"occupancy {value} exceeds capacity {capacity}")
        if value > occ.max_seen:
            occ.max_seen = value

    def iio_release(self, req: Request) -> None:
        """Replenish the credit and record the P2M domain latency.

        Both latency stats stay *live* (not deferred):
        :mod:`repro.ext.hostcc` samples ``domain.p2m_write.*`` totals
        mid-run, and the pool hold-time stat feeds the same-window
        domain snapshots. Waiters fire after the stats, exactly as in
        the reference, so a woken device observes fully-updated state.
        """
        now = self._sim.now
        req.t_free = now
        traffic_class = req.traffic_class
        if req.kind is RequestKind.WRITE:
            stat = self._iio_wr_stats.get(traffic_class)
            if stat is None:
                stat = self._hub.latency(f"domain.p2m_write.{traffic_class}")
                self._iio_wr_stats[traffic_class] = stat
            pool = self.write_pool
        else:
            stat = self._iio_rd_stats.get(traffic_class)
            if stat is None:
                stat = self._hub.latency(f"domain.p2m_read.{traffic_class}")
                self._iio_rd_stats[traffic_class] = stat
            pool = self.read_pool
        latency = now - req.t_alloc
        # LatencyStat.record(latency), inlined, twice: the per-class
        # domain stat, then the pool hold-time stat — the same order as
        # IIO.release -> CreditPool.release_held.
        stat.total += latency
        stat.count += 1
        if latency > stat.max_seen:
            stat.max_seen = latency
        held = pool.latency
        held.total += latency
        held.count += 1
        if latency > held.max_seen:
            held.max_seen = latency
        # CreditPool release tail, inlined (hard pool).
        pool.free_count += 1
        occ = pool.occ
        value = occ.value
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += value * dt
            if value >= occ.capacity:
                occ._full_time += dt
            occ._last_t = now
        occ.value = value - 1
        if pool._waiters:
            pool._drain_waiters()

    # ------------------------------------------------------------------
    # Window boundaries
    # ------------------------------------------------------------------

    def sync_stats(self) -> None:
        """Materialize the deferred arrays into the hub registries.

        Assignment, not accumulation: the arrays hold the full totals
        since the last window reset and nothing else writes these
        stats, so syncing is idempotent (safe to call repeatedly
        within one window).
        """
        cha = self._cha
        delays = cha._admission_delay
        arrivals = cha._arrival_rates
        completions = cha._completion_rates
        read_lat = cha._read_latency
        write_lat = cha._write_latency
        for cid, name in enumerate(self.cls_names):
            delay = delays.get(name)
            if delay is None:
                cha._class_stats(name)
                delay = delays[name]
            delay.total = self.adm_total[cid]
            delay.count = self.adm_count[cid]
            delay.max_seen = self.adm_max[cid]
            arrivals[name].count = self.arr_lines[cid]
            completions[name].count = self.comp_lines[cid]
            stat = read_lat[name]
            stat.total = self.rd_total[cid]
            stat.count = self.rd_count[cid]
            stat.max_seen = self.rd_max[cid]
            stat = write_lat[name]
            stat.total = self.wr_total[cid]
            stat.count = self.wr_count[cid]
            stat.max_seen = self.wr_max[cid]

    def reset_window(self) -> None:
        """Zero the deferred accumulators for a fresh measurement
        window (the hub reset zeroes the materialized registries; the
        interning table survives, mirroring the DRAM kernel)."""
        for cid in range(len(self.cls_names)):
            self.adm_total[cid] = 0.0
            self.adm_count[cid] = 0
            self.adm_max[cid] = 0.0
            self.arr_lines[cid] = 0
            self.comp_lines[cid] = 0
            self.rd_total[cid] = 0.0
            self.rd_count[cid] = 0
            self.rd_max[cid] = 0.0
            self.wr_total[cid] = 0.0
            self.wr_count[cid] = 0
            self.wr_max[cid] = 0.0

    # ------------------------------------------------------------------
    # Introspection (REPRO_VALIDATE probe)
    # ------------------------------------------------------------------

    def verify_consistency(self) -> int:
        """Cross-check incremental counters, pools and intern tables
        against direct walks; returns the number of checks performed
        (raises ``AssertionError`` naming the first that fails)."""
        checks = 0
        ingress_walk = len(self._ingress)
        assert ingress_walk == self.ingress_lines, (
            f"ingress line cache drifted: walk {ingress_walk} != "
            f"cached {self.ingress_lines}"
        )
        checks += 1
        assert self.ingress_occ.value == self.ingress_lines, (
            f"ingress occupancy {self.ingress_occ.value} disagrees with "
            f"the FCFS queue ({self.ingress_lines} lines)"
        )
        checks += 1
        read_walk = sum(len(q) for q in self._read_backlog)
        assert read_walk == self.read_backlog_lines, (
            f"read-backlog line cache drifted: walk {read_walk} != "
            f"cached {self.read_backlog_lines}"
        )
        checks += 1
        write_walk = sum(len(q) for q in self._write_backlog)
        assert write_walk == self.write_backlog_lines, (
            f"write-backlog line cache drifted: walk {write_walk} != "
            f"cached {self.write_backlog_lines}"
        )
        checks += 1
        assert self.read_stage.occ.value >= self.read_backlog_lines, (
            f"more backlogged read lines ({self.read_backlog_lines}) than "
            f"read-stage entries ({self.read_stage.occ.value})"
        )
        checks += 1
        assert self.write_waiting.occ.value >= self.write_backlog_lines, (
            f"more backlogged write lines ({self.write_backlog_lines}) than "
            f"write-stage entries ({self.write_waiting.occ.value})"
        )
        checks += 1
        # Interning bijection + parallel-array integrity.
        assert len(self.cls_ids) == len(self.cls_names), (
            "intern table size mismatch"
        )
        for name, cid in self.cls_ids.items():
            assert self.cls_names[cid] == name, (
                f"intern table corrupt: {name!r} -> {cid} -> "
                f"{self.cls_names[cid]!r}"
            )
        n = len(self.cls_names)
        for arr_name in (
            "adm_total", "adm_count", "adm_max", "arr_lines", "comp_lines",
            "rd_total", "rd_count", "rd_max", "wr_total", "wr_count",
            "wr_max",
        ):
            assert len(getattr(self, arr_name)) == n, (
                f"parallel array {arr_name} has {len(getattr(self, arr_name))} "
                f"entries for {n} interned classes"
            )
        checks += 1
        # Pool occupancy vs. lifetime accounting, for every pool the
        # kernel's inlined fast paths touch.
        for pool in (
            self.write_pool,
            self.read_pool,
            self.read_stage,
            self.write_waiting,
        ):
            drift = pool.alloc_count - pool.free_count
            assert drift == pool.occ.value, (
                f"{pool.name}: allocs({pool.alloc_count}) - "
                f"frees({pool.free_count}) != occupancy({pool.occ.value})"
            )
            checks += 1
        return checks
