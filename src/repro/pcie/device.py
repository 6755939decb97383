"""Generic DMA engine behind a PCIe link.

A :class:`DmaDevice` drives the P2M datapaths of §3:

* DMA **writes** (storage reads / NIC receive): the device allocates an
  IIO write-buffer entry (PCIe credit) at initiation, serializes the
  cacheline upstream, and the credit is replenished at WPQ admission —
  posted semantics, the P2M-Write domain.
* DMA **reads** (storage writes / NIC transmit): non-posted; the IIO
  read-buffer entry is held until data returns from DRAM and the
  completion is issued back over the link — the P2M-Read domain.

The device paces itself at ``device_rate`` (its internal media/engine
speed), independent of the link bandwidth; both limits apply.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.controller import MemoryController
from repro.dram.region import Region
from repro.pcie.link import PcieLink
from repro.sim.engine import Alarm, Simulator
from repro.sim.records import (
    CACHELINE_BYTES,
    Request,
    RequestKind,
    RequestSource,
    acquire_request,
    release_request,
)
from repro.telemetry.counters import CounterHub
from repro.uncore.iio import IIO

_INF = float("inf")


class DmaWorkload:
    """Protocol for device-side demand (subclassed by NVMe/NIC models)."""

    #: capability hints: a workload that can *never* produce demand in
    #: one direction sets the flag False so the device skips that
    #: direction's pump loop entirely (an empty-handed pump pass reads
    #: no mutable state, so skipping it is observationally identical).
    emits_writes = True
    emits_reads = True

    def next_write(self, now: float) -> Optional[int]:
        """Next line address to DMA-write, or None if none pending."""
        return None

    def next_read(self, now: float) -> Optional[int]:
        """Next line address to DMA-read, or None if none pending."""
        return None

    def wake_time(self, now: float) -> Optional[float]:
        """Absolute retry time after both ``next_*`` returned None."""
        return None

    def on_write_posted(self, line_addr: int, now: float) -> None:
        """The DMA write was admitted to the WPQ (or served by DDIO)."""

    def on_read_data(self, line_addr: int, now: float) -> None:
        """Read-completion data arrived back at the device."""

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window."""


class SequentialDmaWorkload(DmaWorkload):
    """Infinite sequential DMA over a ring buffer — the paper's
    P2M-Write / P2M-Read microbenchmark traffic (§2.2)."""

    def __init__(self, region: Region, kind: RequestKind):
        self.region = region
        self.kind = kind
        self.emits_writes = kind is RequestKind.WRITE
        self.emits_reads = kind is RequestKind.READ
        self._pos = 0
        self.lines_done = 0

    def _next(self) -> int:
        addr = self.region.line(self._pos)
        self._pos += 1
        if self._pos >= self.region.n_lines:
            self._pos = 0
        return addr

    def next_write(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.WRITE:
            return None
        return self._next()

    def next_read(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.READ:
            return None
        return self._next()

    def on_write_posted(self, line_addr: int, now: float) -> None:
        self.lines_done += 1

    def on_read_data(self, line_addr: int, now: float) -> None:
        self.lines_done += 1

    def reset_stats(self, now: float) -> None:
        self.lines_done = 0


class DmaDevice:
    """DMA engine: paces line transfers through credits and the link."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        iio: IIO,
        link: PcieLink,
        mc: MemoryController,
        workload: DmaWorkload,
        device_rate: Optional[float] = None,
        t_host_return: float = 55.0,
        traffic_class: str = "p2m",
    ):
        self._sim = sim
        self._hub = hub
        self._iio = iio
        self._link = link
        self._mc = mc
        self.workload = workload
        self.device_rate = device_rate
        self.t_host_return = t_host_return
        self.traffic_class = traffic_class
        self._next_write_slot = 0.0
        self._next_read_slot = 0.0
        self._pump_alarm = Alarm(sim, self._pump)
        self.writes_posted = 0
        self.reads_completed = 0
        # One-shot credit waiters: when a pump blocks on credits, it
        # registers once on the pool it needs; the flags dedupe so a
        # device sits in each FIFO at most once.
        self._waiting_write_credit = False
        self._waiting_read_credit = False

    def start(self) -> None:
        """Begin pumping DMA at the current simulation time."""
        self._pump()

    # ------------------------------------------------------------------
    # Pumping
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        workload = self.workload
        next_at = self._pump_writes() if workload.emits_writes else _INF
        if workload.emits_reads:
            at_read = self._pump_reads()
            if at_read < next_at:
                next_at = at_read
        if next_at != _INF:
            now = self._sim.now
            self._pump_alarm.arm(next_at if next_at > now else now)

    def _pace(self) -> float:
        if self.device_rate is None:
            return 0.0
        return CACHELINE_BYTES / self.device_rate

    def _wait_for_credit(self, kind: RequestKind) -> None:
        """Register (once) as a FIFO one-shot waiter on a pool."""
        if kind is RequestKind.WRITE:
            if not self._waiting_write_credit:
                self._waiting_write_credit = True
                self._iio.write_pool.add_waiter(self._on_write_credit)
        else:
            if not self._waiting_read_credit:
                self._waiting_read_credit = True
                self._iio.read_pool.add_waiter(self._on_read_credit)

    def _on_write_credit(self) -> None:
        self._waiting_write_credit = False
        self._pump()

    def _on_read_credit(self) -> None:
        self._waiting_read_credit = False
        self._pump()

    def _pump_writes(self) -> float:
        """Send pending DMA writes; returns the next retry time."""
        now = self._sim.now
        while True:
            if not self._iio.has_credit(RequestKind.WRITE):
                self._wait_for_credit(RequestKind.WRITE)
                return _INF  # the pool waiter re-pumps
            start = max(now, self._next_write_slot, self._link.upstream_next_free())
            if start > now:
                return start
            addr = self.workload.next_write(now)
            if addr is None:
                wake = self.workload.wake_time(now)
                return wake if wake is not None else _INF
            req = acquire_request(
                RequestSource.P2M,
                RequestKind.WRITE,
                addr,
                traffic_class=self.traffic_class,
            )
            self._iio.alloc(req)
            self._mc.assign(req)
            req.on_complete = self._on_write_posted
            arrival = self._link.send_upstream(CACHELINE_BYTES)
            self._next_write_slot = start + self._pace()
            self._sim.schedule_at(arrival, self._iio.on_dma_arrival, req)

    def _pump_reads(self) -> float:
        now = self._sim.now
        while True:
            if not self._iio.has_credit(RequestKind.READ):
                self._wait_for_credit(RequestKind.READ)
                return _INF
            start = max(now, self._next_read_slot)
            if start > now:
                return start
            addr = self.workload.next_read(now)
            if addr is None:
                wake = self.workload.wake_time(now)
                return wake if wake is not None else _INF
            req = acquire_request(
                RequestSource.P2M,
                RequestKind.READ,
                addr,
                traffic_class=self.traffic_class,
            )
            self._iio.alloc(req)
            self._mc.assign(req)
            req.on_complete = self._on_read_serviced
            self._next_read_slot = start + self._pace()
            # Read requests are small TLPs: propagation only.
            self._sim.schedule(self._link.t_prop, self._iio.on_dma_arrival, req)

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------

    def _on_write_posted(self, req: Request) -> None:
        now = self._sim.now
        self.writes_posted += 1
        # Update workload state before releasing the credit: the release
        # synchronously wakes credit waiters, which must observe the
        # post-completion demand (e.g. the next queued IO).
        self.workload.on_write_posted(req.line_addr, now)
        self._iio.release(req)
        # The waiter queue only holds credit-blocked devices; a device
        # blocked on its own *demand* (e.g. a closed-loop workload at
        # queue depth) is not registered, so re-pump explicitly now
        # that the completion may have produced new demand.
        self._pump()

    def _on_read_serviced(self, req: Request) -> None:
        """Read data left the memory channel; traverse back to the IIO."""
        self._sim.schedule(self.t_host_return, self._on_read_at_iio, req)

    def _on_read_at_iio(self, req: Request) -> None:
        serialized_at, device_arrival = self._link.send_downstream(CACHELINE_BYTES)
        self._sim.schedule_at(serialized_at, self._finish_read_credit, req)
        self._sim.schedule_at(device_arrival, self._finish_read_data, req)

    def _finish_read_credit(self, req: Request) -> None:
        """Completion issued: the non-posted credit is replenished."""
        self._iio.release(req)
        # As in _on_write_posted: demand-blocked (not credit-blocked)
        # senders are not in the waiter queue; re-evaluate explicitly.
        self._pump()

    def _finish_read_data(self, req: Request) -> None:
        now = self._sim.now
        self.reads_completed += 1
        self.workload.on_read_data(req.line_addr, now)
        # Last stop of a DMA read's lifecycle: the credit was released
        # at completion issue and no component still references it.
        release_request(req)
        self._pump()

    # ------------------------------------------------------------------

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window (device + workload)."""
        self.writes_posted = 0
        self.reads_completed = 0
        self.workload.reset_stats(now)
