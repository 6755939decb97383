"""Caching and Home Agent (CHA).

The CHA abstracts the LLC and memory from the rest of the system (§3).
For this model it is the admission point of the processor interconnect
and the place where the red regime's two backpressure effects play out
(§5.2):

* **WPQ backpressure** — writes that cannot enter a full WPQ backlog
  inside the CHA's *write stage* (``N_waiting`` in the analytical
  model, Table 2). This inflates the P2M-Write domain (which spans the
  MC) but not the C2M-Write domain (which ends at CHA admission).
  Reads are *not* affected: they flow through a separate read stage,
  matching the paper's observation that "reads can be processed
  concurrently at the CHA even when writes are blocked".
* **CHA admission backpressure** — when the write stage itself fills,
  requests back up in the shared FCFS *ingress* queue, where a blocked
  write head-of-line-blocks every later arrival, read or write, C2M or
  P2M. This is the equitable latency increase and bandwidth-share
  stabilization the paper sees at 5–6 C2M cores.

Pipeline::

    arrivals -> ingress (FCFS, HoL) -> read stage  -> RPQ
                                    -> write stage -> WPQ

This module is the *reference* implementation. With ``REPRO_UNCORE``
on (the default) the host rebinds the hot entry points
(``request_admission``, ``_pump_ingress``, the deliveries and the
queue-space callbacks) to the fused struct-of-arrays kernel in
:mod:`repro.uncore.kernel`, which shares this object's queues, pools
and counters and is float-identical by construction. Keep the two in
lockstep: any semantic change here must land in the kernel too (the
differential tests in ``tests/test_uncore_kernel.py`` will catch a
divergence).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.dram.controller import MemoryController
from repro.sim.engine import Simulator
from repro.sim.records import (
    Request,
    RequestKind,
    RequestSource,
    acquire_request,
    release_request,
)
from repro.telemetry.counters import CounterHub
from repro.uncore.llc import LastLevelCache


class CHA:
    """Admission control + LLC/DDIO service + MC routing."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        mc: MemoryController,
        write_capacity: int = 96,
        read_capacity: int = 96,
        t_cha_to_mc: float = 15.0,
        t_llc_hit: float = 22.0,
        llc: Optional[LastLevelCache] = None,
        ddio_enabled: bool = False,
    ):
        self._sim = sim
        self._hub = hub
        self._mc = mc
        self.write_capacity = write_capacity
        self.read_capacity = read_capacity
        self.t_cha_to_mc = t_cha_to_mc
        self.t_llc_hit = t_llc_hit
        self.llc = llc
        self.ddio_enabled = ddio_enabled
        n_channels = len(mc.channels)
        # Prebound: the channel list and per-channel admission methods
        # are hit once per request; skip the mc attribute walk.
        self._channels = mc.channels
        self._ingress: Deque[Tuple[Request, float]] = deque()
        self._read_backlog: list[Deque[Request]] = [deque() for _ in range(n_channels)]
        self._write_backlog: list[Deque[Request]] = [deque() for _ in range(n_channels)]
        self.ingress_occ = hub.occupancy("cha.ingress")
        # Soft pools: the capacity is the *admission* threshold, not a
        # hard occupancy cap — DDIO eviction writebacks enter the write
        # stage without passing ingress, so occupancy may transiently
        # exceed it (and the backing counters stay uncapped).
        self.read_stage = hub.pool("cha.read_stage", read_capacity, soft=True)
        self.write_waiting = hub.pool(
            "cha.write_waiting", write_capacity, soft=True
        )
        self._inflight_reads = {
            RequestSource.C2M: hub.occupancy("cha.inflight_reads.c2m"),
            RequestSource.P2M: hub.occupancy("cha.inflight_reads.p2m"),
        }
        # Per-traffic-class stats, cached so the per-request hot path
        # skips the f-string build and hub registry lookup.
        self._admission_delay: dict = {}
        self._arrival_rates: dict = {}
        self._completion_rates: dict = {}
        self._read_latency: dict = {}
        self._write_latency: dict = {}
        #: set by UncoreKernel when REPRO_UNCORE rebinds the hot path
        self.kernel = None
        for channel in mc.channels:
            channel.on_rpq_space = self._on_rpq_space
            channel.on_wpq_space = self._on_wpq_space

    def _class_stats(self, traffic_class: str) -> tuple:
        """Bind (and cache) every per-class stat this CHA records."""
        hub = self._hub
        bundle = hub.traffic_class(traffic_class)
        self._admission_delay[traffic_class] = hub.latency(
            f"cha.admission_delay.{traffic_class}"
        )
        self._arrival_rates[traffic_class] = bundle.arrivals
        self._completion_rates[traffic_class] = bundle.completions
        self._read_latency[traffic_class] = hub.latency(
            f"cha_to_dram_read.{traffic_class}"
        )
        self._write_latency[traffic_class] = hub.latency(
            f"cha_to_mc_write.{traffic_class}"
        )

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------

    def request_admission(self, req: Request) -> None:
        """A request arrives at the CHA (from a core or the IIO)."""
        now = self._sim.now
        if not self._ingress:
            # Empty ingress and a free stage: admission is synchronous,
            # so skip the queue round-trip. The occupancy pulse (+1
            # then -1 at the same instant) is kept so the counter's
            # integral and high-water mark stay identical to the
            # queued path.
            if req.kind is RequestKind.READ:
                room = self.read_stage.has_room()
            else:
                room = self.write_waiting.has_room()
            if room:
                occ_update = self.ingress_occ.update
                occ_update(now, 1)
                occ_update(now, -1)
                self._admit(req, now)
                return
        self._ingress.append((req, now))
        self.ingress_occ.update(now, 1)
        self._pump_ingress()

    def _stage_has_room(self, req: Request) -> bool:
        if req.kind is RequestKind.READ:
            return self.read_stage.has_room()
        return self.write_waiting.has_room()

    def _pump_ingress(self) -> None:
        """Admit ingress heads while their type stage has room (FCFS:
        a blocked head blocks everyone behind it)."""
        while self._ingress:
            req, t_arrival = self._ingress[0]
            if not self._stage_has_room(req):
                return
            self._ingress.popleft()
            self.ingress_occ.update(self._sim.now, -1)
            self._admit(req, t_arrival)

    def _admit(self, req: Request, t_arrival: float) -> None:
        now = self._sim.now
        req.t_cha_admit = now
        traffic_class = req.traffic_class
        delay_stat = self._admission_delay.get(traffic_class)
        if delay_stat is None:
            self._class_stats(traffic_class)
            delay_stat = self._admission_delay[traffic_class]
        delay_stat.record(now - t_arrival)
        self._arrival_rates[traffic_class].increment()
        if req.on_cha_admit is not None:
            req.on_cha_admit(req)
        if req.kind is RequestKind.READ:
            self._admit_read(req)
        else:
            self._admit_write(req)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _admit_read(self, req: Request) -> None:
        now = self._sim.now
        if self.llc is not None:
            hit, evicted_dirty = self.llc.lookup_read(req.line_addr)
            if hit:
                self._sim.schedule(self.t_llc_hit, self._complete_llc_read, req)
                return
            if evicted_dirty is not None:
                self._spawn_writeback(evicted_dirty, req.traffic_class)
        self.read_stage.acquire(now)
        self._inflight_reads[req.source].update(now, 1)
        req.on_serviced = self._on_read_serviced
        channel = self._channels[req.channel_id]
        if channel.can_accept_read():
            channel.reserve_read()
            self._sim.schedule(self.t_cha_to_mc, self._deliver_read, req)
        else:
            self._read_backlog[req.channel_id].append(req)

    def _deliver_read(self, req: Request) -> None:
        # CreditPool.release, inlined (the read stage has no waiters
        # registered, but the drain check is kept for exactness).
        # Pinned to the canonical method by
        # tests/test_credit.py::TestInlinedFastPaths.
        pool = self.read_stage
        pool.free_count += 1
        pool._occ_update(self._sim.now, -1)
        if pool._waiters:
            pool._drain_waiters()
        self._channels[req.channel_id].enqueue_read(req)
        if self._ingress:
            self._pump_ingress()

    def _complete_llc_read(self, req: Request) -> None:
        """Serve a read from the LLC (no memory traversal)."""
        req.t_service = self._sim.now
        if req.on_complete is not None:
            req.on_complete(req)
        self._pump_ingress()

    def _on_read_serviced(self, req: Request) -> None:
        now = self._sim.now
        traffic_class = req.traffic_class
        self._inflight_reads[req.source].update(now, -1)
        latency = (req.t_service - req.t_cha_admit) + self.t_cha_to_mc
        stat = self._read_latency.get(traffic_class)
        if stat is None:
            self._class_stats(traffic_class)
            stat = self._read_latency[traffic_class]
        stat.record(latency)
        self._completion_rates[traffic_class].increment()

    def _on_rpq_space(self, channel_id: int) -> None:
        backlog = self._read_backlog[channel_id]
        if not backlog:
            return
        channel = self._channels[channel_id]
        while backlog and channel.can_accept_read():
            req = backlog.popleft()
            channel.reserve_read()
            self._sim.schedule(self.t_cha_to_mc, self._deliver_read, req)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _admit_write(self, req: Request) -> None:
        now = self._sim.now
        if (
            self.llc is not None
            and self.ddio_enabled
            and req.source is RequestSource.P2M
        ):
            # DDIO: the DMA write terminates at the LLC; the P2M-Write
            # credit is replenished here. A dirty eviction (the steady
            # state for buffers larger than the DDIO ways) becomes a
            # memory write carried by a fresh write-stage entry.
            outcome, evicted_dirty = self.llc.write_allocate_ddio(req.line_addr)
            self._sim.schedule(self.t_llc_hit, self._complete_ddio_write, req)
            if evicted_dirty is None:
                return
            req = self._make_writeback(evicted_dirty, req.traffic_class)
            # fall through: the eviction writeback heads to the WPQ.
        elif self.llc is not None and req.source is RequestSource.C2M:
            if self.llc.writeback_update(req.line_addr):
                # Absorbed by a resident line; written back on eviction.
                self._sim.schedule(0.0, self._complete_absorbed_write, req)
                return
        self.write_waiting.acquire(now)
        channel = self._channels[req.channel_id]
        if channel.can_accept_write():
            channel.reserve_write()
            self._sim.schedule(self.t_cha_to_mc, self._deliver_write, req)
        else:
            self._write_backlog[req.channel_id].append(req)

    def _deliver_write(self, req: Request) -> None:
        now = self._sim.now
        traffic_class = req.traffic_class
        # CreditPool.release, inlined (hot: every memory write). Pinned
        # to the canonical method by
        # tests/test_credit.py::TestInlinedFastPaths.
        pool = self.write_waiting
        pool.free_count += 1
        pool._occ_update(now, -1)
        if pool._waiters:
            pool._drain_waiters()
        latency = now - req.t_cha_admit
        stat = self._write_latency.get(traffic_class)
        if stat is None:
            self._class_stats(traffic_class)
            stat = self._write_latency[traffic_class]
        stat.record(latency)
        self._channels[req.channel_id].enqueue_write(req)
        self._completion_rates[traffic_class].increment()
        if self._ingress:
            self._pump_ingress()

    def _complete_ddio_write(self, req: Request) -> None:
        req.t_queue_admit = self._sim.now  # domain ends at the LLC
        if req.on_complete is not None:
            req.on_complete(req)
        # A DDIO write's lifecycle ends at the LLC; any eviction
        # writeback rides a separate request.
        release_request(req)

    def _complete_absorbed_write(self, req: Request) -> None:
        req.t_queue_admit = self._sim.now
        if req.on_complete is not None:
            req.on_complete(req)
        release_request(req)

    def _make_writeback(self, line_addr: int, traffic_class: str) -> Request:
        """Turn a dirty DDIO eviction into a memory write."""
        wb = acquire_request(
            RequestSource.P2M,
            RequestKind.WRITE,
            line_addr,
            traffic_class=traffic_class,
        )
        wb.t_alloc = self._sim.now
        wb.t_cha_admit = self._sim.now
        self._mc.assign(wb)
        return wb

    def _spawn_writeback(self, line_addr: int, traffic_class: str) -> None:
        """Dirty eviction caused by a read fill: re-enters via ingress
        so it competes for write-stage space like any other write."""
        wb = acquire_request(
            RequestSource.C2M,
            RequestKind.WRITE,
            line_addr,
            traffic_class=traffic_class,
        )
        wb.t_alloc = self._sim.now
        self._mc.assign(wb)
        self.request_admission(wb)

    def _on_wpq_space(self, channel_id: int) -> None:
        backlog = self._write_backlog[channel_id]
        if not backlog:
            return
        channel = self._channels[channel_id]
        moved = False
        while backlog and channel.can_accept_write():
            req = backlog.popleft()
            channel.reserve_write()
            self._sim.schedule(self.t_cha_to_mc, self._deliver_write, req)
            moved = True
        if moved:
            self._pump_ingress()

    # ------------------------------------------------------------------

    @property
    def write_backlog_len(self) -> int:
        """Writes waiting for WPQ space across channels."""
        return sum(len(q) for q in self._write_backlog)

    @property
    def read_backlog_len(self) -> int:
        """Reads waiting for RPQ space across channels."""
        return sum(len(q) for q in self._read_backlog)

    @property
    def admission_queue_len(self) -> int:
        """Requests waiting in the shared ingress (HoL queue)."""
        return len(self._ingress)
