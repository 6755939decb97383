"""NIC model: the substrate for the RDMA and DCTCP case studies
(§2.3, Appendices C–E).

Receive path (P2M writes): packets arrive from the network at the
ingress rate, queue in the NIC's receive buffer, and drain into host
memory through the DMA engine as IIO credits permit. Two buffer
policies mirror the paper's two transports:

* **PFC (lossless, RoCE)** — when the receive buffer crosses the pause
  threshold the NIC pauses the link; the paused-time fraction is the
  paper's "PFC pause fraction" (Appendix D.1). No packets are lost.
* **Lossy (DCTCP)** — when the buffer is full, arriving packets are
  dropped and counted; the transport reacts (Appendix D.2).

Transmit / remote-read path (P2M reads): the NIC DMA-reads host
memory at the egress rate (``ib_read_bw`` server side).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dram.region import Region
from repro.pcie.device import DmaDevice, DmaWorkload
from repro.sim.engine import Simulator
from repro.sim.records import CACHELINE_BYTES


class NicWorkload(DmaWorkload):
    """Ingress-queue DMA-write demand plus optional egress DMA reads."""

    def __init__(
        self,
        region: Region,
        buffer_bytes: int = 2 << 20,
        pfc_enabled: bool = True,
        egress_enabled: bool = False,
        pause_threshold: float = 0.75,
        resume_threshold: float = 0.25,
    ):
        self.region = region
        self.buffer_lines = max(1, buffer_bytes // CACHELINE_BYTES)
        self.pfc_enabled = pfc_enabled
        self.egress_enabled = egress_enabled
        # Ingress writes are always possible; egress reads only when
        # enabled (the device then skips the read pump entirely).
        self.emits_reads = egress_enabled
        self.pause_hi = max(1, int(self.buffer_lines * pause_threshold))
        self.pause_lo = max(0, int(self.buffer_lines * resume_threshold))
        self._write_pos = 0
        self._read_pos = 0
        self.queued_lines = 0
        self.paused = False
        self.lines_delivered = 0
        self.lines_read = 0
        self.lines_dropped = 0
        self.lines_arrived = 0
        #: CE-marked arrivals (set by congested fabric switch queues;
        #: the DCTCP receiver echoes these back to its sender's rate)
        self.lines_marked = 0
        self._pause_started = 0.0
        self.paused_time = 0.0
        self._window_start = 0.0
        #: PFC propagation hook: called with the new pause state on
        #: every transition, so a modelled fabric can stop the last-hop
        #: switch port's drain while this NIC's buffer is paused (the
        #: standalone host leaves it unset — pause then only gates the
        #: NIC's self-paced ingress, exactly the historical behaviour).
        self.on_pause_change: Optional[Callable[[bool], None]] = None

    # ------------------------- ingress side ----------------------------

    def on_ingress_line(self, now: float, marked: bool = False) -> None:
        """One cacheline worth of packet data arrives from the wire."""
        self.lines_arrived += 1
        if marked:
            self.lines_marked += 1
        if self.queued_lines >= self.buffer_lines:
            # PFC should prevent this; in lossy mode it is a packet drop.
            self.lines_dropped += 1
            return
        self.queued_lines += 1
        self._update_pause(now)

    def _update_pause(self, now: float) -> None:
        if not self.pfc_enabled:
            return
        if not self.paused and self.queued_lines >= self.pause_hi:
            self.paused = True
            self._pause_started = now
            if self.on_pause_change is not None:
                self.on_pause_change(True)
        elif self.paused and self.queued_lines <= self.pause_lo:
            self.paused = False
            self.paused_time += now - self._pause_started
            if self.on_pause_change is not None:
                self.on_pause_change(False)

    def pause_fraction(self, now: float) -> float:
        """Fraction of the window during which PFC paused the link."""
        total = self.paused_time
        if self.paused:
            total += now - self._pause_started
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return total / elapsed

    def loss_rate(self) -> float:
        """Dropped / arrived lines over the window (lossy mode only)."""
        if self.lines_arrived == 0:
            return 0.0
        return self.lines_dropped / self.lines_arrived

    # -------------------------- DMA demand -----------------------------

    def next_write(self, now: float) -> Optional[int]:
        if self.queued_lines == 0:
            return None
        self.queued_lines -= 1
        self._update_pause(now)
        addr = self.region.line(self._write_pos)
        self._write_pos += 1
        if self._write_pos >= self.region.n_lines:
            self._write_pos = 0
        return addr

    def next_read(self, now: float) -> Optional[int]:
        if not self.egress_enabled:
            return None
        addr = self.region.line(self._read_pos)
        self._read_pos += 1
        if self._read_pos >= self.region.n_lines:
            self._read_pos = 0
        return addr

    def on_write_posted(self, line_addr: int, now: float) -> None:
        self.lines_delivered += 1

    def on_read_data(self, line_addr: int, now: float) -> None:
        self.lines_read += 1

    def reset_stats(self, now: float) -> None:
        self.lines_delivered = 0
        self.lines_read = 0
        self.lines_dropped = 0
        self.lines_arrived = 0
        self.lines_marked = 0
        self.paused_time = 0.0
        self._window_start = now
        if self.paused:
            self._pause_started = now


class Nic(DmaDevice):
    """A NIC: ingress process + DMA engine + optional egress reads.

    ``ingress_rate`` (bytes/ns) models the sender's wire rate into the
    receive path; ``egress_read_rate`` paces remote-read demand served
    by DMA reads of host memory. Either can be zero.
    """

    def __init__(
        self,
        sim: Simulator,
        hub,
        iio,
        link,
        mc,
        region: Region,
        ingress_rate: float = 0.0,
        egress_read_rate: float = 0.0,
        buffer_bytes: int = 2 << 20,
        pfc_enabled: bool = True,
        traffic_class: str = "p2m",
    ):
        self.rx = NicWorkload(
            region,
            buffer_bytes=buffer_bytes,
            pfc_enabled=pfc_enabled,
            egress_enabled=egress_read_rate > 0,
        )
        super().__init__(
            sim,
            hub,
            iio,
            link,
            mc,
            self.rx,
            device_rate=egress_read_rate if egress_read_rate > 0 else None,
            traffic_class=traffic_class,
        )
        self.ingress_rate = ingress_rate
        self.egress_read_rate = egress_read_rate
        self._ingress_pending = False

    def start(self) -> None:
        """Start the DMA engine and, if configured, the ingress flow."""
        super().start()
        if self.ingress_rate > 0:
            self._schedule_ingress()

    # --------------------------- ingress --------------------------------

    def set_ingress_rate(self, rate: float) -> None:
        """Adjust the sender rate (used by the DCTCP control loop)."""
        self.ingress_rate = rate
        if rate > 0 and not self._ingress_pending:
            self._schedule_ingress()

    def _schedule_ingress(self) -> None:
        interval = CACHELINE_BYTES / self.ingress_rate
        self._ingress_pending = True
        self._sim.schedule(interval, self._on_ingress)

    def _on_ingress(self) -> None:
        self._ingress_pending = False
        now = self._sim.now
        if not self.rx.paused:
            self.rx.on_ingress_line(now)
            self._pump()
        if self.ingress_rate > 0:
            self._schedule_ingress()

    # --------------------------- fabric ---------------------------------

    def fabric_deliver(self, now: float, marked: bool = False) -> None:
        """Terminal fabric hop: a line arrives from a modelled switch.

        Used instead of the self-paced ingress process when this NIC is
        the receive edge of a :class:`~repro.topology.fabric` flow
        (construct the NIC with ``ingress_rate=0`` then). The CE mark
        set by congested switch queues lands in ``rx.lines_marked``.
        """
        self.rx.on_ingress_line(now, marked=marked)
        self._pump()

    # --------------------------- metrics --------------------------------

    def delivered_bytes(self) -> int:
        """Bytes DMA-delivered into host memory this window."""
        return self.rx.lines_delivered * CACHELINE_BYTES

    def pause_fraction(self) -> float:
        """Fraction of the window with PFC asserted."""
        return self.rx.pause_fraction(self._sim.now)

    def loss_rate(self) -> float:
        """Packet-drop fraction at the (lossy) receive buffer."""
        return self.rx.loss_rate()
