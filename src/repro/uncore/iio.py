"""Integrated IO controller (IIO).

The IIO bridges the peripheral interconnect (PCIe) to the processor
interconnect. Its read/write buffers are the credit pools of the P2M
domains (§4.1):

* a peripheral needs a free IIO entry (a PCIe credit) to send a
  request; the entry is allocated when the device *initiates* the DMA;
* for DMA writes the entry is freed when the request is admitted to
  the MC's WPQ (or served by the LLC under DDIO) — the P2M-Write
  domain spans IIO→MC;
* for DMA reads (non-posted PCIe transactions) the entry is freed only
  when data returns from DRAM and the completion is issued — the
  P2M-Read domain spans IIO→DRAM.

Both buffers are :class:`~repro.sim.credit.CreditPool`\\ s; a
credit-blocked device registers a one-shot FIFO waiter on the pool it
needs instead of the historical broadcast-to-every-device list, so
wakeups are O(waiters) and served in registration order.

The paper measures ~92 write-buffer entries and >164 read credits on
its servers; those are the defaults here.

Reference implementation note: with ``REPRO_UNCORE`` on the host
rebinds :meth:`IIO.alloc` / :meth:`IIO.release` to the fused SoA
kernel (:mod:`repro.uncore.kernel`), which inlines the pool traffic
over the same :class:`~repro.sim.credit.CreditPool` objects. Any
semantic change here must land in the kernel too.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.records import Request, RequestKind, RequestSource
from repro.telemetry.counters import CounterHub


class IIO:
    """IIO buffers + hop to the CHA."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        write_entries: int = 92,
        read_entries: int = 200,
        t_iio_to_cha: float = 40.0,
    ):
        self._sim = sim
        self._hub = hub
        self.write_entries = write_entries
        self.read_entries = read_entries
        self.t_iio_to_cha = t_iio_to_cha
        #: the P2M credit pools (shared credit runtime); the occupancy
        #: counters stay registered under their historical names.
        self.write_pool = hub.pool("iio.write", write_entries)
        self.read_pool = hub.pool("iio.read", read_entries)
        self.write_occ = self.write_pool.occ
        self.read_occ = self.read_pool.occ
        # Per-traffic-class domain latency stats, cached so the
        # per-request hot path skips the f-string and registry lookup.
        self._write_latency: dict = {}
        self._read_latency: dict = {}
        # Wired by the host: called by request_admission's target.
        self.cha_admission: Optional[Callable[[Request], None]] = None

    # ------------------------------------------------------------------
    # Credits (PCIe credits == IIO buffer entries)
    # ------------------------------------------------------------------

    @property
    def write_alloc_count(self) -> int:
        """Lifetime write-credit acquisitions (lines)."""
        return self.write_pool.alloc_count

    @property
    def write_release_count(self) -> int:
        """Lifetime write-credit releases (lines)."""
        return self.write_pool.free_count

    @property
    def read_alloc_count(self) -> int:
        """Lifetime read-credit acquisitions (lines)."""
        return self.read_pool.alloc_count

    @property
    def read_release_count(self) -> int:
        """Lifetime read-credit releases (lines)."""
        return self.read_pool.free_count

    def has_credit(self, kind: RequestKind) -> bool:
        """Whether a device may initiate a one-line DMA."""
        if kind is RequestKind.WRITE:
            return self.write_pool.has_room()
        return self.read_pool.has_room()

    def pool_for(self, kind: RequestKind):
        """The credit pool backing one DMA direction (waiter target)."""
        if kind is RequestKind.WRITE:
            return self.write_pool
        return self.read_pool

    def alloc(self, req: Request) -> None:
        """Allocate IIO entries at DMA initiation time (device side)."""
        now = self._sim.now
        req.t_alloc = now
        if req.kind is RequestKind.WRITE:
            self.write_pool.acquire(now)
        else:
            self.read_pool.acquire(now)

    def release(self, req: Request) -> None:
        """Replenish the credit and record the P2M domain latency.

        Waiters registered on the pool fire *after* the per-class stat
        is recorded, so a woken device observes fully-updated state.
        """
        now = self._sim.now
        req.t_free = now
        traffic_class = req.traffic_class
        if req.kind is RequestKind.WRITE:
            stat = self._write_latency.get(traffic_class)
            if stat is None:
                stat = self._hub.latency(f"domain.p2m_write.{traffic_class}")
                self._write_latency[traffic_class] = stat
            stat.record(now - req.t_alloc)
            self.write_pool.release_held(now, req.t_alloc)
        else:
            stat = self._read_latency.get(traffic_class)
            if stat is None:
                stat = self._hub.latency(f"domain.p2m_read.{traffic_class}")
                self._read_latency[traffic_class] = stat
            stat.record(now - req.t_alloc)
            self.read_pool.release_held(now, req.t_alloc)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def on_dma_arrival(self, req: Request) -> None:
        """A DMA request arrives from the PCIe link; forward to the CHA."""
        if req.source is not RequestSource.P2M:
            raise ValueError("IIO only carries peripheral traffic")
        if self.cha_admission is None:
            raise RuntimeError("IIO not wired to a CHA")
        self._sim.schedule(self.t_iio_to_cha, self.cha_admission, req)
