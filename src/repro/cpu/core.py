"""Core issue model.

A core issues memory operations as fast as its LFB allows (§5.1: a
3 GHz core can issue every ~0.3 ns, two orders of magnitude below the
C2M-Read domain latency, so the LFB is the binding constraint for
memory-intensive workloads). Loads hold their LFB entry until data
returns (C2M-Read domain); stores additionally hold it until the
writeback is admitted by the CHA (C2M-Write domain), which makes the
measured LFB latency for the ReadWrite workload the *sum* of the two
domain latencies — exactly the property the paper exploits in §4.2.
"""

from __future__ import annotations

from typing import Callable

from repro.cpu.lfb import LineFillBuffer
from repro.cpu.workloads import OP_NT_STORE, MemoryWorkload
from repro.dram.controller import MemoryController
from repro.sim.engine import Alarm, Simulator
from repro.sim.records import (
    Request,
    RequestKind,
    RequestSource,
    acquire_request,
    release_request,
)
from repro.telemetry.counters import CounterHub


class Core:
    """One core running one memory workload through its LFB."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        core_id: int,
        mc: MemoryController,
        cha_admission: Callable[[Request], None],
        workload: MemoryWorkload,
        lfb_size: int = 12,
        t_core_to_cha: float = 10.0,
        t_data_return: float = 33.0,
    ):
        self._sim = sim
        self._hub = hub
        self.core_id = core_id
        self._mc = mc
        self._cha_admission = cha_admission
        self.workload = workload
        self.lfb = LineFillBuffer(
            hub.occupancy(f"core{core_id}.lfb", lfb_size),
            lfb_size,
            name=hub.scoped(f"core{core_id}.lfb"),
        )
        hub.register_pool(self.lfb)
        self.t_core_to_cha = t_core_to_cha
        self.t_data_return = t_data_return
        # A workload's traffic class is fixed at construction, so the
        # per-request domain stats can be bound once here instead of
        # rebuilding the f-string key on every completion.
        tc = workload.traffic_class
        self._lat_read = hub.latency(f"domain.c2m_read.{tc}")
        self._lat_write = hub.latency(f"domain.c2m_write.{tc}")
        self._lat_lfb = hub.latency(f"lfb.total.{tc}")
        #: minimum spacing between issued operations (ns); 0 disables.
        #: Models Intel MBA-style memory-bandwidth throttling, the knob
        #: hostCC [2] actuates (used by repro.ext.hostcc).
        self.throttle_gap_ns = 0.0
        self._next_issue_allowed = 0.0
        self._wake_alarm = Alarm(sim, self._try_issue)
        self.reads_completed = 0
        self.stores_completed = 0

    def start(self) -> None:
        """Begin issuing at the current simulation time."""
        self._try_issue()

    def kick(self) -> None:
        """Re-evaluate issue eligibility now (external state changed:
        new data available to a consumer workload, throttle adjusted)."""
        self._try_issue()

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------

    def _try_issue(self) -> None:
        now = self._sim.now
        while self.lfb.has_free_entry:
            if self.throttle_gap_ns > 0 and now < self._next_issue_allowed:
                self._wake_alarm.arm(self._next_issue_allowed)
                return
            nxt = self.workload.try_next(now)
            if nxt is None:
                self._arm_wake()
                return
            if self.throttle_gap_ns > 0:
                self._next_issue_allowed = now + self.throttle_gap_ns
            addr, op = nxt
            self.workload.on_issue(now)
            if op == OP_NT_STORE:
                self._issue_nt_store(addr, now)
            else:
                self._issue(addr, bool(op), now)

    def _arm_wake(self) -> None:
        wake = self.workload.wake_time(self._sim.now)
        if wake is not None:
            self._wake_alarm.arm(wake)

    def _issue(self, addr: int, is_store: bool, now: float) -> None:
        req = acquire_request(
            RequestSource.C2M,
            RequestKind.READ,
            addr,
            requester_id=self.core_id,
            traffic_class=self.workload.traffic_class,
        )
        req.t_alloc = now
        req.tag = is_store
        self.lfb.alloc(now)
        self._mc.assign(req)
        req.on_complete = self._on_read_serviced
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, req)

    def _issue_nt_store(self, addr: int, now: float) -> None:
        """Non-temporal (fast-string) store: no RFO read; the line goes
        straight down the write path, holding its fill/write-combining
        buffer entry until CHA admission (the C2M-Write domain)."""
        wb = acquire_request(
            RequestSource.C2M,
            RequestKind.WRITE,
            addr,
            requester_id=self.core_id,
            traffic_class=self.workload.traffic_class,
        )
        wb.t_alloc = now
        self.lfb.alloc(now)
        self._mc.assign(wb)
        wb.on_cha_admit = self._on_nt_store_admitted
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, wb)

    def _on_nt_store_admitted(self, wb: Request) -> None:
        now = self._sim.now
        self._lat_write.record(now - wb.t_alloc)
        wb.t_free = now
        self.lfb.free_held(now, wb.t_alloc)
        self.stores_completed += 1
        self.workload.on_complete(now, was_store=True)
        # ``wb`` continues down the write path (WPQ or LLC absorption)
        # and is released there.
        self._try_issue()

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------

    def _on_read_serviced(self, req: Request) -> None:
        """Data left the memory channel (or the LLC); schedule the
        return hop to the core."""
        self._sim.schedule(self.t_data_return, self._on_data, req)

    def _on_data(self, req: Request) -> None:
        now = self._sim.now
        self._lat_read.record(now - req.t_alloc)
        if req.tag:  # store: the RFO completed, hand off the writeback
            self._begin_writeback(req, now)
            return
        req.t_free = now
        self.lfb.free_held(now, req.t_alloc)
        self.reads_completed += 1
        self._lat_lfb.record(now - req.t_alloc)
        self.workload.on_complete(now, was_store=False)
        # Last stop of a load's lifecycle: no component references it.
        release_request(req)
        self._try_issue()

    def _begin_writeback(self, read_req: Request, now: float) -> None:
        wb = acquire_request(
            RequestSource.C2M,
            RequestKind.WRITE,
            read_req.line_addr,
            requester_id=self.core_id,
            traffic_class=read_req.traffic_class,
        )
        wb.t_alloc = now
        wb.tag = read_req
        self._mc.assign(wb)
        wb.on_cha_admit = self._on_writeback_admitted
        self._sim.schedule(self.t_core_to_cha, self._cha_admission, wb)

    def _on_writeback_admitted(self, wb: Request) -> None:
        """CHA admitted the writeback: the C2M-Write domain ends here
        (writes are asynchronous past the CHA, §3)."""
        now = self._sim.now
        read_req: Request = wb.tag
        self._lat_write.record(now - wb.t_alloc)
        self._lat_lfb.record(now - read_req.t_alloc)
        read_req.t_free = now
        self.lfb.free_held(now, read_req.t_alloc)
        self.stores_completed += 1
        self.workload.on_complete(now, was_store=True)
        # The RFO read's lifecycle ends here; the writeback itself
        # continues (WPQ or LLC absorption) and is released there.
        wb.tag = None
        release_request(read_req)
        self._try_issue()

    # ------------------------------------------------------------------

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window (core + workload)."""
        self.reads_completed = 0
        self.stores_completed = 0
        self.workload.reset_stats(now)
