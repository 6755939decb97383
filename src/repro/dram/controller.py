"""Memory controller: per-channel RPQ/WPQ, mode switching, scheduling.

Models the MC behaviour the paper's root-cause analysis rests on (§3,
§5):

* each channel transmits in one direction at a time; the MC operates
  in *read mode* or *write mode* with a turnaround ("switching") delay
  between them;
* reads queue in the Read Pending Queue (RPQ), writes in the Write
  Pending Queue (WPQ), per channel; a full WPQ backpressures the CHA
  (the red-regime trigger of §5.2);
* scheduling is oldest-ready-first: banks precharge/activate in
  parallel, and the channel serves the oldest request whose bank has
  the row open. The paper notes out-of-order scheduling beyond this
  has little impact on its workloads (§6.1);
* write drain uses high/low watermark hysteresis, the standard policy
  whose head-of-line blocking of reads is the dominant term of the
  paper's latency breakdown in quadrant 1 (Fig. 12a).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.dram.address import AddressMapper
from repro.dram.bank import Bank
from repro.dram.kernel import ChannelKernel, kernel_enabled
from repro.dram.regulator import BankRegulator
from repro.dram.timing import DramTiming
from repro.sim.engine import Alarm, Simulator
from repro.sim.records import (
    CACHELINE_BYTES,
    Request,
    RequestKind,
    RequestSource,
    release_request,
)
from repro.telemetry.bankstats import BankLoadSampler
from repro.telemetry.counters import CounterHub


class ChannelStats:
    """Raw per-channel counters consumed by the analytical model."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (start of a measurement window)."""
        self.lines_read = 0
        self.lines_written = 0
        self.switches_wtr = 0  # write -> read transitions
        self.switches_rtw = 0  # read -> write transitions
        self.act_read = 0
        self.act_write = 0
        self.pre_conflict_read = 0
        self.pre_conflict_write = 0
        self.busy_read_time = 0.0
        self.busy_write_time = 0.0
        self.turnaround_time = 0.0
        # Per traffic class: lines moved and row outcomes for reads.
        self.class_lines_read: Dict[str, int] = defaultdict(int)
        self.class_lines_written: Dict[str, int] = defaultdict(int)
        self.class_row_outcomes: Dict[tuple, int] = defaultdict(int)

    @property
    def switches(self) -> int:
        """Total mode transitions in both directions."""
        return self.switches_wtr + self.switches_rtw

    def row_miss_ratio(self, traffic_class: str, kind: RequestKind) -> float:
        """Fraction of requests that missed (ACT needed) in the row buffer."""
        hits = self.class_row_outcomes[(traffic_class, kind.value, "hit")]
        misses = (
            self.class_row_outcomes[(traffic_class, kind.value, "miss")]
            + self.class_row_outcomes[(traffic_class, kind.value, "conflict")]
        )
        total = hits + misses
        if total == 0:
            return 0.0
        return misses / total


class Channel:
    """One memory channel: banks + RPQ/WPQ + mode-switching scheduler."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        channel_id: int,
        timing: DramTiming,
        n_banks: int,
        rpq_size: int,
        wpq_size: int,
        wpq_hi_fraction: float = 0.7,
        wpq_lo_fraction: float = 0.2,
        min_write_drain: int = 10_000,
        min_read_batch: int = 96,
        p2m_write_priority: bool = False,
        bank_sample_every: int = 1000,
        bank_reg: Optional[BankRegulator] = None,
    ):
        timing.validate()
        self._sim = sim
        self.channel_id = channel_id
        self.timing = timing
        #: RPQ/WPQ as shared-runtime credit pools (admission counts
        #: reservations for requests in transit from the CHA); the
        #: occupancy counters keep their historical names, and
        #: ``rpq_size``/``wpq_size`` proxy the pool capacities so
        #: resizing a queue keeps admission and capacity in sync.
        self.rpq_pool = hub.pool(f"mc.ch{channel_id}.rpq", rpq_size)
        self.wpq_pool = hub.pool(f"mc.ch{channel_id}.wpq", wpq_size)
        self.rpq_occ = self.rpq_pool.occ
        self.wpq_occ = self.wpq_pool.occ
        self.wpq_hi = max(1, int(wpq_size * wpq_hi_fraction))
        self.wpq_lo = max(0, int(wpq_size * wpq_lo_fraction))
        self.min_write_drain = min_write_drain
        self.min_read_batch = min_read_batch
        self.p2m_write_priority = p2m_write_priority
        self.banks: List[Bank] = [Bank(sim, self, b, timing) for b in range(n_banks)]
        self.mode: RequestKind = RequestKind.READ
        self._stats = ChannelStats()
        self.bank_sampler = BankLoadSampler(n_banks, bank_sample_every)
        #: per-bank token-bucket regulation (None = unregulated). The
        #: scheduler skips token-blocked banks and re-arms the pump at
        #: the earliest bucket-refill time when nothing else is ready.
        self.bank_reg = bank_reg
        self._reg_retry: Optional[float] = None
        self._busy_until = 0.0
        self._admit_seq = 0
        self._served_in_mode = 0
        self._wpq_full_since = None
        self._wpq_full_time = 0.0
        self._window_start = 0.0
        self._pump_alarm = Alarm(sim, self._pump)
        # Lines sitting in the per-bank FIFOs, maintained incrementally
        # (reference path; the kernel keeps its own pair).
        self._queued_read_lines = 0
        self._queued_write_lines = 0
        # Wired by the host: invoked when queue space frees up.
        self.on_rpq_space: Optional[Callable[[int], None]] = None
        self.on_wpq_space: Optional[Callable[[int], None]] = None
        #: SoA batch scheduler (REPRO_KERNEL, default on). When active
        #: it owns the bank FIFOs and all hot counters; the admission
        #: entry points are rebound to its fused implementations so the
        #: CHA pays zero delegation overhead per request.
        self.kernel: Optional[ChannelKernel] = None
        if kernel_enabled():
            self.kernel = kernel = ChannelKernel(self)
            self.enqueue_read = kernel.enqueue_read
            self.enqueue_write = kernel.enqueue_write

    # ------------------------------------------------------------------
    # Admission (called by the CHA)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Window counters, materialized from the kernel when active.

        The kernel accumulates into flat arrays on the hot path;
        reading this property syncs them into the dict-shaped
        :class:`ChannelStats` (a window-boundary-rate operation).
        """
        kernel = self.kernel
        if kernel is not None:
            kernel.sync_stats(self._stats)
        return self._stats

    @property
    def rpq_size(self) -> int:
        """RPQ capacity in cachelines (the pool's credit count)."""
        return self.rpq_pool.capacity

    @rpq_size.setter
    def rpq_size(self, value: int) -> None:
        self.rpq_pool.capacity = value

    @property
    def wpq_size(self) -> int:
        """WPQ capacity in cachelines (the pool's credit count)."""
        return self.wpq_pool.capacity

    @wpq_size.setter
    def wpq_size(self, value: int) -> None:
        self.wpq_pool.capacity = value

    def can_accept_read(self) -> bool:
        """Whether the RPQ has a slot (counting reservations)."""
        return self.rpq_pool.can_accept()

    def can_accept_write(self) -> bool:
        """Whether the WPQ has a slot (counting reservations)."""
        return self.wpq_pool.can_accept()

    def _track_wpq_full(self) -> None:
        """Accumulate the time the WPQ is effectively full (occupancy
        plus in-transit reservations), which is the fullness the CHA
        observes — Figs. 7(f)/8(e)."""
        now = self._sim.now
        pool = self.wpq_pool
        full = pool.occ.value + pool.reserved >= self.wpq_size
        if full and self._wpq_full_since is None:
            self._wpq_full_since = now
        elif not full and self._wpq_full_since is not None:
            self._wpq_full_time += now - self._wpq_full_since
            self._wpq_full_since = None

    def wpq_full_fraction(self, now: float, window_start: float) -> float:
        """Fraction of [window_start, now] with no WPQ slot free."""
        total = self._wpq_full_time
        if self._wpq_full_since is not None:
            total += now - self._wpq_full_since
        elapsed = now - window_start
        if elapsed <= 0:
            return 0.0
        return total / elapsed

    def reserve_read(self) -> None:
        """Claim an RPQ slot for a read in transit from the CHA."""
        if not self.rpq_pool.can_accept():
            raise RuntimeError("read reservation without RPQ space")
        self.rpq_pool.reserve()

    def reserve_write(self) -> None:
        """Claim a WPQ slot for a write in transit from the CHA."""
        if not self.wpq_pool.can_accept():
            raise RuntimeError("write reservation without WPQ space")
        self.wpq_pool.reserve()
        self._track_wpq_full()

    def enqueue_read(self, req: Request) -> None:
        """Admit a read into the RPQ (reservation made earlier)."""
        now = self._sim.now
        self.rpq_pool.commit(now)
        self._admit_seq += 1
        req.queue_seq = self._admit_seq
        req.t_queue_admit = now
        self._queued_read_lines += 1
        self.banks[req.bank_id].enqueue(req)
        self._pump_alarm.arm(max(now, self._busy_until))

    def enqueue_write(self, req: Request) -> None:
        """Admit a write into the WPQ; the write is now *complete* from
        the requester's point of view (writes are asynchronous, §3)."""
        now = self._sim.now
        self.wpq_pool.commit(now)
        self._track_wpq_full()
        self._admit_seq += 1
        req.queue_seq = self._admit_seq
        req.t_queue_admit = now
        self._queued_write_lines += 1
        self.banks[req.bank_id].enqueue(req)
        if req.on_complete is not None:
            req.on_complete(req)
        self._pump_alarm.arm(max(now, self._busy_until))

    # ------------------------------------------------------------------
    # Stats hooks (called by banks)
    # ------------------------------------------------------------------

    def count_row_outcome(self, req: Request) -> None:
        """Record a request's first row-buffer outcome, per class."""
        key = (req.traffic_class, req.kind.value, req.row_outcome)
        self._stats.class_row_outcomes[key] += 1

    def count_prep_ops(self, req: Request, conflict: bool) -> None:
        """Count an ACT (and PRE on conflict) for the formula inputs."""
        if req.kind is RequestKind.READ:
            self._stats.act_read += 1
            if conflict:
                self._stats.pre_conflict_read += 1
        else:
            self._stats.act_write += 1
            if conflict:
                self._stats.pre_conflict_write += 1

    def notify_bank_ready(self) -> None:
        """A bank finished preparing a head request; try to transmit."""
        self._pump_alarm.arm(max(self._sim.now, self._busy_until))

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        now = self._sim.now
        if now < self._busy_until:
            self._pump_alarm.arm(self._busy_until)
            return
        if self.mode is RequestKind.READ:
            self._pump_read_mode()
        else:
            self._pump_write_mode()

    def _pump_read_mode(self) -> None:
        """Read-major scheduling: reads keep the channel while they have
        work; writes get it only when the WPQ is critically full and a
        minimum read batch has been served, or when there is no read
        work at all. A momentarily-unready read (its bank is still
        precharging/activating, a bounded ~t_proc wait) does *not*
        yield the channel: mode flips are expensive and re-target bank
        preparation."""
        if self.rpq_occ.value == 0:
            if self.wpq_occ.value > 0:
                self._switch_mode(RequestKind.WRITE)
            return
        if (
            self.wpq_occ.value >= self.wpq_hi
            and self._served_in_mode >= self.min_read_batch
        ):
            self._switch_mode(RequestKind.WRITE)
            return
        ready = self._pick_ready(RequestKind.READ)
        if ready is not None:
            self._transmit(ready)
        elif self._reg_retry is not None:
            # Every otherwise-ready bank is token-blocked; re-arm the
            # pump at the earliest bucket refill (busy_until <= now <=
            # retry, so no busy clamp is needed).
            self._pump_alarm.arm(self._reg_retry)
        # else: the head banks are preparing; their completions re-pump.

    def _pump_write_mode(self) -> None:
        """Write drains are bounded batches so a write overload cannot
        monopolize the channel; the overflow backlogs in the WPQ and,
        through it, at the CHA (the red-regime backpressure of §5.2)."""
        if self.wpq_occ.value == 0:
            if self.rpq_occ.value > 0:
                self._switch_mode(RequestKind.READ)
            return
        if self.rpq_occ.value > 0:
            drained_enough = (
                self.wpq_occ.value <= self.wpq_lo
                or self._served_in_mode >= self.min_write_drain
            )
            if drained_enough:
                self._switch_mode(RequestKind.READ)
                return
        ready = self._pick_ready(RequestKind.WRITE)
        if ready is not None:
            self._transmit(ready)
        elif self._reg_retry is not None:
            self._pump_alarm.arm(self._reg_retry)
        # else: bounded wait for the write bank preparation in flight.

    def _switch_mode(self, target: RequestKind) -> None:
        now = self._sim.now
        self.mode = target
        if target is RequestKind.READ:
            turnaround = self.timing.t_wtr
            self._stats.switches_wtr += 1
        else:
            turnaround = self.timing.t_rtw
            self._stats.switches_rtw += 1
        self._stats.turnaround_time += turnaround
        self._busy_until = now + turnaround
        self._served_in_mode = 0
        # Bank preparation overlaps the turnaround.
        for bank in self.banks:
            bank.maybe_start_prep()
        self._pump_alarm.arm(self._busy_until)

    def _pick_ready(self, kind: RequestKind) -> Optional[Request]:
        """Oldest request (by queue-admission order) whose bank is ready.

        With ``p2m_write_priority`` (a §7 future-work MC isolation
        policy, cf. heterogeneous memory scheduling [6, 33, 34]),
        write drains serve ready peripheral writes ahead of core
        writebacks so the P2M-Write domain is insulated from C2M write
        floods.
        """
        now = self._sim.now
        best: Optional[Request] = None
        best_p2m: Optional[Request] = None
        reg = self.bank_reg
        retry: Optional[float] = None
        for bank in self.banks:
            queue = bank.read_q if kind is RequestKind.READ else bank.write_q
            if not queue:
                continue
            head = queue[0]
            if now >= bank.busy_until and bank.open_row == head.row_id:
                if reg is not None and not reg.ready(bank.bank_id, now, 1):
                    t = reg.next_ready(bank.bank_id, now, 1)
                    if retry is None or t < retry:
                        retry = t
                    continue
                if best is None or head.queue_seq < best.queue_seq:
                    best = head
                if head.source is RequestSource.P2M and (
                    best_p2m is None or head.queue_seq < best_p2m.queue_seq
                ):
                    best_p2m = head
        self._reg_retry = retry
        if (
            self.p2m_write_priority
            and kind is RequestKind.WRITE
            and best_p2m is not None
        ):
            return best_p2m
        return best

    def _transmit(self, req: Request) -> None:
        now = self._sim.now
        t_trans = self.timing.t_trans
        self._busy_until = now + t_trans
        if self.bank_reg is not None:
            self.bank_reg.consume(req.bank_id, now, 1)
        bank = self.banks[req.bank_id]
        if req.row_outcome is None:
            # Served with its row already open and no PRE/ACT of its
            # own (e.g. opened by a prep for the other direction's
            # head): a row hit from this request's perspective.
            req.row_outcome = "hit"
            self.count_row_outcome(req)
        bank.pop_head(req)
        stats = self._stats
        if req.kind is RequestKind.READ:
            self._queued_read_lines -= 1
            stats.lines_read += 1
            stats.class_lines_read[req.traffic_class] += 1
            stats.busy_read_time += t_trans
            self.bank_sampler.record(req.bank_id)
        else:
            self._queued_write_lines -= 1
            stats.lines_written += 1
            stats.class_lines_written[req.traffic_class] += 1
            stats.busy_write_time += t_trans
        self._served_in_mode += 1
        self._sim.schedule(t_trans, self._on_transmit_done, req, bank)

    def _on_transmit_done(self, req: Request, bank: Bank) -> None:
        now = self._sim.now
        req.t_service = now
        if req.kind is RequestKind.READ:
            self.rpq_pool.release(now)
            if req.on_serviced is not None:
                req.on_serviced(req)
            if req.on_complete is not None:
                req.on_complete(req)
            if self.on_rpq_space is not None:
                self.on_rpq_space(self.channel_id)
        else:
            self.wpq_pool.release(now)
            self._track_wpq_full()
            if self.on_wpq_space is not None:
                self.on_wpq_space(self.channel_id)
            # A write's lifecycle ends here: its completion fired at
            # WPQ admission, the bank queue dropped it at transmit,
            # and nothing downstream keeps a reference.
            release_request(req)
        bank.maybe_start_prep()
        self._pump_alarm.arm(max(now, self._busy_until))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def rpq_count(self) -> int:
        """Reads currently admitted to the RPQ."""
        return self.rpq_occ.value

    @property
    def wpq_count(self) -> int:
        """Writes currently admitted to the WPQ."""
        return self.wpq_occ.value

    @property
    def rpq_reserved(self) -> int:
        """RPQ slots claimed by reads in transit from the CHA."""
        return self.rpq_pool.reserved

    @property
    def wpq_reserved(self) -> int:
        """WPQ slots claimed by writes in transit from the CHA."""
        return self.wpq_pool.reserved

    def queued_in_banks(self) -> tuple:
        """``(read_lines, write_lines)`` sitting in per-bank queues.

        Every admitted request lives in exactly one bank queue until
        its transmit completes, so these must reconcile with
        ``rpq_count``/``wpq_count`` net of the single request whose
        transmit is in flight — the queue-accounting identity checked
        by :mod:`repro.validate`.

        Incrementally maintained (no per-call container walk); the
        validator cross-checks the cache against
        :meth:`walk_queued_lines`.
        """
        kernel = self.kernel
        if kernel is not None:
            return kernel.queued_read_lines, kernel.queued_write_lines
        return self._queued_read_lines, self._queued_write_lines

    def walk_queued_lines(self) -> tuple:
        """Recount the bank FIFOs directly (validator cross-check)."""
        kernel = self.kernel
        if kernel is not None:
            return kernel.walk_queued_lines()
        reads = sum(len(bank.read_q) for bank in self.banks)
        writes = sum(len(bank.write_q) for bank in self.banks)
        return reads, writes

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window for this channel."""
        self._stats.reset()
        kernel = self.kernel
        if kernel is not None:
            kernel.reset_window()
        self.bank_sampler.reset()
        self._wpq_full_time = 0.0
        self._window_start = now
        if self._wpq_full_since is not None:
            self._wpq_full_since = now


class MemoryController:
    """Routes requests to channels and aggregates their statistics."""

    def __init__(
        self,
        sim: Simulator,
        hub: CounterHub,
        timing: DramTiming,
        n_channels: int,
        n_banks: int,
        lines_per_row: int = 128,
        rpq_size: int = 48,
        wpq_size: int = 48,
        wpq_hi_fraction: float = 0.7,
        wpq_lo_fraction: float = 0.2,
        min_write_drain: int = 10_000,
        min_read_batch: int = 96,
        p2m_write_priority: bool = False,
        xor_bank_hash: bool = True,
        bank_sample_every: int = 1000,
        bank_reg_rate: Optional[float] = None,
        bank_reg_burst_lines: int = 64,
        bank_partition_classes: int = 0,
    ):
        self.mapper = AddressMapper(
            n_channels=n_channels,
            n_banks=n_banks,
            lines_per_row=lines_per_row,
            xor_hash=xor_bank_hash,
        )
        self.timing = timing
        self.channels: List[Channel] = [
            Channel(
                sim,
                hub,
                channel_id=i,
                timing=timing,
                n_banks=n_banks,
                rpq_size=rpq_size,
                wpq_size=wpq_size,
                wpq_hi_fraction=wpq_hi_fraction,
                wpq_lo_fraction=wpq_lo_fraction,
                min_write_drain=min_write_drain,
                min_read_batch=min_read_batch,
                p2m_write_priority=p2m_write_priority,
                bank_sample_every=bank_sample_every,
                bank_reg=(
                    BankRegulator(n_banks, bank_reg_rate, bank_reg_burst_lines)
                    if bank_reg_rate is not None
                    else None
                ),
            )
            for i in range(n_channels)
        ]
        #: bank partitioning by traffic class ("Per-Bank Memory
        #: Bandwidth Regulation", PAPERS.md): with N partitions, each
        #: class (first-seen order, round-robin over partitions) is
        #: confined to a contiguous ``n_banks // N`` bank slice, so
        #: classes can no longer row-conflict with each other.
        self.bank_partitions = min(max(0, bank_partition_classes), n_banks)
        self._part_size = (
            n_banks // self.bank_partitions if self.bank_partitions > 1 else n_banks
        )
        self._class_partitions: Dict[str, int] = {}

    def assign(self, req: Request) -> Channel:
        """Decode the request's address and return its home channel."""
        channel, bank, row = self.mapper.decode(req.line_addr)
        req.channel_id = channel
        if self.bank_partitions > 1:
            pid = self._class_partitions.get(req.traffic_class)
            if pid is None:
                pid = len(self._class_partitions) % self.bank_partitions
                self._class_partitions[req.traffic_class] = pid
            bank = pid * self._part_size + bank % self._part_size
        req.bank_id = bank
        req.row_id = row
        return self.channels[channel]

    @property
    def theoretical_bandwidth(self) -> float:
        """Peak memory bandwidth across channels (bytes/ns == GB/s)."""
        return len(self.channels) * self.timing.channel_bandwidth_bytes_per_ns

    def reset_stats(self, now: float) -> None:
        """Start a fresh measurement window on every channel."""
        for channel in self.channels:
            channel.reset_stats(now)

    # ---------------------------- aggregates --------------------------

    def total(self, attr: str) -> float:
        """Sum a ChannelStats attribute over channels."""
        return sum(getattr(ch.stats, attr) for ch in self.channels)

    def class_lines(self, traffic_class: str, kind: RequestKind) -> int:
        """Cachelines a traffic class moved in one direction."""
        field = "class_lines_read" if kind is RequestKind.READ else "class_lines_written"
        return sum(getattr(ch.stats, field)[traffic_class] for ch in self.channels)

    def bandwidth_bytes_per_ns(self, elapsed_ns: float) -> float:
        """Achieved memory bandwidth over a window (bytes/ns == GB/s)."""
        if elapsed_ns <= 0:
            return 0.0
        lines = self.total("lines_read") + self.total("lines_written")
        return lines * CACHELINE_BYTES / elapsed_ns

    def class_bandwidth_bytes_per_ns(self, traffic_class: str, elapsed_ns: float) -> float:
        """Achieved bandwidth of one traffic class over a window."""
        if elapsed_ns <= 0:
            return 0.0
        lines = self.class_lines(traffic_class, RequestKind.READ) + self.class_lines(
            traffic_class, RequestKind.WRITE
        )
        return lines * CACHELINE_BYTES / elapsed_ns

    def avg_rpq_occupancy(self, now: float) -> float:
        """RPQ occupancy averaged over channels (formula input O_RPQ)."""
        if not self.channels:
            return 0.0
        return sum(ch.rpq_occ.average(now) for ch in self.channels) / len(self.channels)

    def avg_wpq_occupancy(self, now: float) -> float:
        """WPQ occupancy averaged over channels."""
        if not self.channels:
            return 0.0
        return sum(ch.wpq_occ.average(now) for ch in self.channels) / len(self.channels)

    def wpq_full_fraction(self, now: float) -> float:
        """Average fraction of time the WPQ was full (Fig. 7f / 8e).

        "Full" for backpressure purposes means no free slot for a new
        write (occupancy plus in-transit reservations), which is what
        the CHA observes.
        """
        if not self.channels:
            return 0.0
        return sum(
            ch.wpq_full_fraction(now, ch._window_start) for ch in self.channels
        ) / len(self.channels)

    def row_miss_ratio(self, traffic_class: str, kind: RequestKind) -> float:
        """Row-miss (ACT-needed) ratio pooled over channels (Fig. 7c)."""
        hits = 0
        misses = 0
        for channel in self.channels:
            stats = channel.stats
            hits += stats.class_row_outcomes[(traffic_class, kind.value, "hit")]
            misses += stats.class_row_outcomes[(traffic_class, kind.value, "miss")]
            misses += stats.class_row_outcomes[
                (traffic_class, kind.value, "conflict")
            ]
        total = hits + misses
        if total == 0:
            return 0.0
        return misses / total

    def bank_deviations(self) -> list:
        """Bank-deviation samples pooled across channels (Fig. 7d)."""
        samples: list = []
        for channel in self.channels:
            samples.extend(channel.bank_sampler.deviations)
        return samples
