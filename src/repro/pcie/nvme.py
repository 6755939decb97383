"""NVMe SSD model: the substrate for the FIO P2M workloads (§2.1).

Storage semantics invert at the memory level: a storage *read* DMAs
data *into* host memory (P2M writes) and a storage *write* DMAs data
*out of* host memory (P2M reads). The model carves each IO into
cachelines, paces them at the device's media rate, and completes the
IO when its last line finishes — giving IOPS, the FIO metric.

``queue_depth`` controls offered load: depth 1 with 4 KB IOs is the
paper's low-load probe for the P2M-Write domain (§4.2, Fig. 6c);
large sequential IOs at higher depth saturate the device.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.region import Region
from repro.pcie.device import DmaDevice, DmaWorkload
from repro.sim.records import CACHELINE_BYTES, RequestKind


class NvmeWorkload(DmaWorkload):
    """IO-granular sequential DMA demand with bounded queue depth."""

    def __init__(
        self,
        region: Region,
        io_size_bytes: int,
        queue_depth: int,
        kind: RequestKind,
        t_io_gap: float = 0.0,
    ):
        if io_size_bytes % CACHELINE_BYTES != 0:
            raise ValueError("io_size must be a multiple of the cacheline size")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.region = region
        self.lines_per_io = io_size_bytes // CACHELINE_BYTES
        self.queue_depth = queue_depth
        self.kind = kind
        self.emits_writes = kind is RequestKind.WRITE
        self.emits_reads = kind is RequestKind.READ
        self.t_io_gap = t_io_gap
        self._pos = 0
        self._inflight_ios = 0
        self._lines_left_in_io = 0
        # Remaining line completions per in-flight IO, oldest first.
        # Lines of one IO complete (nearly) in order, so decrementing
        # the head attributes completions to the right IO.
        self._completion_q: list[int] = []
        self._next_io_at = 0.0
        self.ios_completed = 0
        self.lines_done = 0

    # -------------------------- demand --------------------------------

    def _next_line(self, now: float) -> Optional[int]:
        if self._lines_left_in_io == 0:
            if self._inflight_ios >= self.queue_depth or now < self._next_io_at:
                return None
            self._inflight_ios += 1
            self._lines_left_in_io = self.lines_per_io
            self._completion_q.append(self.lines_per_io)
        self._lines_left_in_io -= 1
        addr = self.region.line(self._pos)
        self._pos += 1
        if self._pos >= self.region.n_lines:
            self._pos = 0
        return addr

    def next_write(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.WRITE:
            return None
        return self._next_line(now)

    def next_read(self, now: float) -> Optional[int]:
        if self.kind is not RequestKind.READ:
            return None
        return self._next_line(now)

    def wake_time(self, now: float) -> Optional[float]:
        if self._inflight_ios < self.queue_depth and now < self._next_io_at:
            return self._next_io_at
        return None

    # ------------------------ completions ------------------------------

    def _on_line_done(self, now: float) -> None:
        self.lines_done += 1
        if not self._completion_q:
            raise RuntimeError("IO completion without an in-flight IO")
        self._completion_q[0] -= 1
        if self._completion_q[0] == 0:
            self._completion_q.pop(0)
            self._inflight_ios -= 1
            self.ios_completed += 1
            self._next_io_at = now + self.t_io_gap

    def on_write_posted(self, line_addr: int, now: float) -> None:
        self._on_line_done(now)

    def on_read_data(self, line_addr: int, now: float) -> None:
        self._on_line_done(now)

    def reset_stats(self, now: float) -> None:
        self.ios_completed = 0
        self.lines_done = 0


class NvmeDevice(DmaDevice):
    """An NVMe SSD (or an aggregate of several) on a PCIe link."""

    def __init__(
        self,
        sim,
        hub,
        iio,
        link,
        mc,
        region: Region,
        io_size_bytes: int = 8 << 20,
        queue_depth: int = 8,
        kind: RequestKind = RequestKind.WRITE,
        device_rate: Optional[float] = None,
        t_io_gap: float = 0.0,
        traffic_class: str = "p2m",
    ):
        workload = NvmeWorkload(
            region=region,
            io_size_bytes=io_size_bytes,
            queue_depth=queue_depth,
            kind=kind,
            t_io_gap=t_io_gap,
        )
        super().__init__(
            sim,
            hub,
            iio,
            link,
            mc,
            workload,
            device_rate=device_rate,
            traffic_class=traffic_class,
        )

    @property
    def ios_completed(self) -> int:
        """IOs whose last line finished in the current window."""
        return self.workload.ios_completed

    @property
    def lines_done(self) -> int:
        """Cachelines transferred in the current window."""
        return self.workload.lines_done
