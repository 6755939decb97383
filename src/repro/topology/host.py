"""Host assembly and measurement runs.

:class:`Host` wires the substrates into the architecture of Fig. 4 —
cores (LFB) → CHA (LLC) → MC (banks/channels) plus IIO ← PCIe ←
devices — runs warmup + measurement windows, and returns a
:class:`RunResult` with every metric the paper derives from uncore
counters, plus ground-truth per-request latencies the real hardware
cannot observe.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.domain import Domain, DomainKind
from repro.cpu.core import Core
from repro.cpu.workloads import MemoryWorkload, SequentialStreamWorkload
from repro.dram.controller import MemoryController
from repro.dram.region import ContiguousRegion, PagedRegion, Region
from repro.pcie.device import DmaDevice, SequentialDmaWorkload
from repro.pcie.link import PcieLink
from repro.pcie.nic import Nic
from repro.pcie.nvme import NvmeDevice
from repro.sim import checkpoint, watchdog
from repro.sim.credit import DomainSnapshot, DomainTracker
from repro.sim.engine import SimClock, Simulator
from repro.sim.knobs import KnobSet
from repro.sim.records import CACHELINE_BYTES, RequestKind
from repro.telemetry.counters import CounterHub
from repro.topology.presets import HostConfig
from repro.uncore.cha import CHA
from repro.uncore.iio import IIO
from repro.uncore.kernel import UncoreKernel
from repro.uncore.llc import LastLevelCache
from repro.validate import ValidatingSimulator, Validator


@dataclass
class RunResult:
    """Measurements from one window, keyed the way the paper reports them."""

    config: HostConfig
    elapsed_ns: float
    #: achieved memory bandwidth, bytes/ns (== GB/s), total and per class
    mem_bw_total: float
    mem_bw_by_class: Dict[str, float]
    #: per-class DRAM line counts
    lines_read_by_class: Dict[str, int]
    lines_written_by_class: Dict[str, int]
    #: average domain latencies (direct per-request measurement), by
    #: "<domain>.<traffic class>", e.g. "c2m_read.c2m"
    domain_latency: Dict[str, float]
    #: Little's-law cross-checks and occupancies
    lfb_avg_occupancy: Dict[str, float]
    iio_write_avg_occupancy: float
    iio_read_avg_occupancy: float
    iio_write_max_occupancy: int
    #: CHA metrics
    cha_admission_delay: Dict[str, float]
    cha_write_waiting_avg: float
    cha_pool_avg: float
    cha_inflight_p2m_reads_avg: float
    #: MC metrics (aggregated over channels)
    rpq_avg_occupancy: float
    wpq_avg_occupancy: float
    wpq_full_fraction: float
    lines_read: int
    lines_written: int
    switches_wtr: int
    switches_rtw: int
    act_read: int
    act_write: int
    pre_conflict_read: int
    pre_conflict_write: int
    row_miss_ratio: Dict[str, float]
    bank_deviations: List[float]
    #: app-level metrics
    workload_ops: Dict[str, int]
    device_lines: Dict[str, int]
    device_ios: Dict[str, int]
    extra: Dict[str, float] = field(default_factory=dict)
    #: engine performance over the measurement window (diagnostics;
    #: ``events_per_sec`` is wall-clock simulator throughput)
    events_processed: int = 0
    sim_wall_s: float = 0.0
    events_per_sec: float = 0.0
    #: invariant checks passed by :mod:`repro.validate` over this
    #: window; 0 when validation was off (the default)
    invariant_checks: int = 0
    #: live per-domain (C, occupancy, L, T) snapshots keyed by domain
    #: kind value ("c2m_read", ...), from the shared credit runtime
    domain_snapshots: Dict[str, DomainSnapshot] = field(default_factory=dict)

    # ------------------------- derived helpers -------------------------

    @property
    def mem_bw_utilization(self) -> float:
        """Fraction of the theoretical memory bandwidth in use."""
        return self.mem_bw_total / self.config.theoretical_mem_bandwidth

    def class_bandwidth(self, traffic_class: str) -> float:
        """Memory bandwidth of one traffic class (bytes/ns == GB/s)."""
        return self.mem_bw_by_class.get(traffic_class, 0.0)

    def class_read_rate(self, traffic_class: str) -> float:
        """DRAM read lines per ns for a traffic class."""
        return self.lines_read_by_class.get(traffic_class, 0) / self.elapsed_ns

    def class_write_rate(self, traffic_class: str) -> float:
        """DRAM write lines per ns for a traffic class."""
        return self.lines_written_by_class.get(traffic_class, 0) / self.elapsed_ns

    def latency(self, domain: str, traffic_class: str = "c2m") -> float:
        """Average domain latency, e.g. ``latency("c2m_read")``."""
        return self.domain_latency.get(f"{domain}.{traffic_class}", 0.0)

    def ops_rate(self, workload_name: str) -> float:
        """Completed workload operations per ns."""
        return self.workload_ops.get(workload_name, 0) / self.elapsed_ns

    def device_bandwidth(self, device_name: str) -> float:
        """Device data rate in bytes/ns (== GB/s)."""
        return self.device_lines.get(device_name, 0) * CACHELINE_BYTES / self.elapsed_ns

    def switches(self) -> int:
        """Total read/write mode transitions over the window."""
        return self.switches_wtr + self.switches_rtw

    def domain(self, kind: str) -> Optional[DomainSnapshot]:
        """One domain's live snapshot, e.g. ``domain("c2m_read")``."""
        return self.domain_snapshots.get(kind)

    def domains(self) -> Dict[str, Domain]:
        """Measured :class:`~repro.core.domain.Domain` objects built
        from the live snapshots (credits, latency and occupancy all
        come from the run rather than hand-entered constants). Domains
        that saw no completions this window are omitted — they have no
        measured latency to build on."""
        return {
            kind: Domain.from_snapshot(snapshot)
            for kind, snapshot in self.domain_snapshots.items()
            if snapshot.credits > 0 and snapshot.latency_ns > 0
        }


class Host:
    """A single-socket host built from a :class:`HostConfig`.

    Typical use::

        host = Host(cascade_lake())
        host.add_stream_cores(2, store_fraction=0.0)       # C2M-Read
        host.add_nvme(kind=RequestKind.WRITE)              # P2M-Write
        result = host.run(warmup_ns=20_000, measure_ns=80_000)
    """

    #: generous guard gap between allocated regions (lines)
    _REGION_GUARD = 1 << 20

    def __init__(
        self,
        config: HostConfig,
        seed: int = 1,
        validate: Optional[bool] = None,
        sim: Optional[Simulator] = None,
        namespace: str = "",
        knobs: Optional[KnobSet] = None,
    ):
        self.config = config
        #: the frozen ``REPRO_*`` knob resolution this host was built
        #: under. A :class:`~repro.topology.cluster.Cluster` resolves
        #: one set and passes it to every host, so two hosts on the
        #: same clock cannot observe different knob values.
        self.knobs = KnobSet.resolve() if knobs is None else knobs
        #: runtime invariant checking (repro.validate): ``None``
        #: defers to the ``REPRO_VALIDATE`` environment knob.
        self.validate = self.knobs.validate if validate is None else bool(validate)
        #: counter/pool namespace (empty for a standalone host); a
        #: cluster gives each host a distinct prefix ("h0", "h1", ...)
        #: so every registry name stays globally unique on the shared
        #: engine.
        self.namespace = namespace
        #: the event engine: private by default, injected when several
        #: hosts compose onto one shared clock. An injecting driver
        #: that wants invariant checking must inject a
        #: :class:`~repro.validate.ValidatingSimulator` itself.
        if sim is not None:
            self.sim = sim
        else:
            self.sim = ValidatingSimulator() if self.validate else Simulator()
        self._validator: Optional[Validator] = Validator() if self.validate else None
        self.hub = CounterHub(namespace)
        self._rng = random.Random(seed)
        self._region_cursor = 0
        #: DDIO last mile: ``REPRO_DDIO`` force-overrides the config
        #: (forcing it on models the cache even for ``llc_mode="bypass"``
        #: configs, so any experiment can be re-run with DDIO).
        forced_ddio = self.knobs.ddio
        self.ddio_enabled = (
            config.ddio_enabled if forced_ddio is None else forced_ddio
        )
        #: per-bank regulation: ``REPRO_BANK_REG`` force-overrides.
        forced_reg = self.knobs.bank_reg
        bank_reg_on = (
            config.bank_reg_enabled if forced_reg is None else forced_reg
        )
        self.bank_reg_enabled = bank_reg_on
        self.mc = MemoryController(
            self.sim,
            self.hub,
            timing=config.dram_timing,
            n_channels=config.n_channels,
            n_banks=config.n_banks,
            lines_per_row=config.lines_per_row,
            rpq_size=config.rpq_size,
            wpq_size=config.wpq_size,
            wpq_hi_fraction=config.wpq_hi_fraction,
            wpq_lo_fraction=config.wpq_lo_fraction,
            min_write_drain=config.min_write_drain,
            min_read_batch=config.min_read_batch,
            p2m_write_priority=config.p2m_write_priority,
            xor_bank_hash=config.xor_bank_hash,
            bank_sample_every=config.bank_sample_every,
            bank_reg_rate=(
                config.bank_reg_share / config.dram_timing.t_trans
                if bank_reg_on
                else None
            ),
            bank_reg_burst_lines=config.bank_reg_burst_lines,
            bank_partition_classes=config.bank_partition_classes,
        )
        if config.llc_mode not in ("full", "bypass"):
            raise ValueError(f"unknown llc_mode {config.llc_mode!r}")
        self.llc: Optional[LastLevelCache] = None
        if config.llc_mode == "full" or self.ddio_enabled:
            self.llc = LastLevelCache(
                config.llc_size_bytes, config.llc_ways, config.ddio_ways
            )
        self.cha = CHA(
            self.sim,
            self.hub,
            self.mc,
            write_capacity=config.cha_write_capacity,
            read_capacity=config.cha_read_capacity,
            t_cha_to_mc=config.t_cha_to_mc,
            t_llc_hit=config.t_llc_hit,
            llc=self.llc,
            ddio_enabled=self.ddio_enabled,
        )
        self.iio = IIO(
            self.sim,
            self.hub,
            write_entries=config.iio_write_entries,
            read_entries=config.iio_read_entries,
            t_iio_to_cha=config.t_iio_to_cha,
        )
        #: SoA uncore kernel (REPRO_UNCORE): rebinds the CHA/IIO hot
        #: path onto fused array code. Constructed before any callback
        #: wiring below so every later ``self.cha.request_admission``
        #: reference picks up the kernel's bound method.
        self.uncore_kernel = None
        if self.knobs.uncore:
            self.uncore_kernel = UncoreKernel(self.cha, self.iio)
        self.iio.cha_admission = self.cha.request_admission
        #: the Fig. 5 domain registry over the shared credit runtime;
        #: per-core LFB pools join in :meth:`add_core`, and the
        #: auxiliary pools (CHA stages, RPQ/WPQ) are tracked so the
        #: validator walks every pool through one conservation probe.
        self.domains = DomainTracker(self.hub)
        self.domains.register(DomainKind.P2M_WRITE, self.iio.write_pool)
        self.domains.register(DomainKind.P2M_READ, self.iio.read_pool)
        self.domains.track(self.cha.read_stage)
        self.domains.track(self.cha.write_waiting)
        for channel in self.mc.channels:
            self.domains.track(channel.rpq_pool)
            self.domains.track(channel.wpq_pool)
        #: the fifth domain: each DMA-tagged LLC line holds one
        #: ``llc.ddio`` credit from install to eviction, so C is the
        #: DDIO slice in cachelines and L the DMA-line residency time.
        #: Soft because DDIO hits convert resident core lines beyond
        #: the slice's admission budget. Registered (and the cache
        #: prewarmed into the paper's steady state) *after* the tracker
        #: exists so the prewarm's credit events are accounted.
        self.llc_ddio_pool = None
        if self.llc is not None and self.ddio_enabled:
            pool = self.hub.pool(
                "llc.ddio",
                max(1, self.llc.ddio_capacity_bytes // CACHELINE_BYTES),
                soft=True,
            )
            self.llc_ddio_pool = pool
            self.domains.register(DomainKind.LLC_DDIO, pool)
            self.llc.attach_ddio_pool(
                pool,
                clock=SimClock(self.sim),
                latency=self.hub.latency("domain.llc_ddio.dma"),
            )
            # Steady state: the DDIO ways are already full of dirty
            # DMA lines (see LastLevelCache.prewarm_ddio).
            self.llc.prewarm_ddio(base_line=1 << 40)
        self.link = PcieLink(
            self.sim,
            bandwidth_bytes_per_ns=config.pcie_bandwidth,
            t_prop=config.pcie_t_prop,
        )
        self.cores: List[Core] = []
        self.devices: Dict[str, DmaDevice] = {}
        self._workloads: Dict[str, List[MemoryWorkload]] = {}
        self._started = False
        #: mid-run cursor set by checkpoint restore (see Host.restore)
        self._resume_state: Optional[checkpoint.RunState] = None
        #: open-window cursor (begin_measurement/finalize_measurement)
        self._window_t_start = 0.0
        self._window_events_before = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def alloc_region(self, lines: int) -> Region:
        """Allocate a private buffer (cacheline granularity).

        With ``config.page_scatter`` (the default, matching ordinary
        4 KB paging) the buffer is backed by pseudo-randomly placed
        page frames; otherwise it is physically contiguous with a
        pseudo-random sub-row offset so bank walks still decorrelate.
        """
        if self.config.page_scatter:
            page_lines = self.config.page_size_bytes // CACHELINE_BYTES
            return PagedRegion(
                lines, page_lines=page_lines, seed=self._rng.randrange(1 << 30)
            )
        span = self.config.lines_per_row * self.config.n_banks * self.config.n_channels
        offset = self._rng.randrange(span)
        start = self._region_cursor + offset
        self._region_cursor = start + lines + self._REGION_GUARD
        return ContiguousRegion(start, lines)

    def add_core(
        self,
        workload: MemoryWorkload,
        name: Optional[str] = None,
        lfb_size: Optional[int] = None,
    ) -> Core:
        """Attach one core running ``workload``.

        ``lfb_size`` overrides the per-core in-flight capacity, e.g.
        for sequential kernels whose hardware prefetching effectively
        widens it (the data copy of the DCTCP receive path).
        """
        core = Core(
            self.sim,
            self.hub,
            core_id=len(self.cores),
            mc=self.mc,
            cha_admission=self.cha.request_admission,
            workload=workload,
            lfb_size=lfb_size or self.config.effective_lfb_size,
            t_core_to_cha=self.config.t_core_to_cha,
            t_data_return=self.config.t_data_return,
        )
        self.cores.append(core)
        # The LFB backs both C2M domains: loads hold an entry until
        # data returns (C2M-Read), stores until CHA admission
        # (C2M-Write) — one pool, two Fig. 5 domains.
        self.domains.register(DomainKind.C2M_READ, core.lfb)
        self.domains.register(DomainKind.C2M_WRITE, core.lfb)
        key = name or workload.traffic_class
        self._workloads.setdefault(key, []).append(workload)
        return core

    def add_stream_cores(
        self,
        n_cores: int,
        store_fraction: float = 0.0,
        traffic_class: str = "c2m",
        region_bytes: int = 1 << 30,
    ) -> List[Core]:
        """Attach ``n_cores`` STREAM-style cores (§2.2 C2M workloads)."""
        cores = []
        region_lines = region_bytes // CACHELINE_BYTES
        for _ in range(n_cores):
            workload = SequentialStreamWorkload(
                self.alloc_region(region_lines),
                store_fraction=store_fraction,
                traffic_class=traffic_class,
            )
            cores.append(self.add_core(workload))
        return cores

    def add_nvme(
        self,
        kind: RequestKind = RequestKind.WRITE,
        io_size_bytes: int = 8 << 20,
        queue_depth: int = 8,
        device_rate: Optional[float] = None,
        t_io_gap: float = 0.0,
        region_bytes: int = 4 << 30,
        name: str = "nvme",
        traffic_class: str = "p2m",
    ) -> NvmeDevice:
        """Attach an NVMe device (aggregate of the testbed's SSDs).

        ``kind`` is the *memory-level* direction: WRITE models storage
        reads (FIO read test), READ models storage writes.
        """
        region_lines = region_bytes // CACHELINE_BYTES
        device = NvmeDevice(
            self.sim,
            self.hub,
            self.iio,
            self.link,
            self.mc,
            region=self.alloc_region(region_lines),
            io_size_bytes=io_size_bytes,
            queue_depth=queue_depth,
            kind=kind,
            device_rate=(
                device_rate if device_rate is not None else self.config.device_rate
            ),
            t_io_gap=t_io_gap,
            traffic_class=traffic_class,
        )
        device.t_host_return = self.config.t_iio_to_cha + self.config.t_cha_to_mc
        self.devices[name] = device
        return device

    def add_raw_dma(
        self,
        kind: RequestKind,
        device_rate: Optional[float] = None,
        region_bytes: int = 4 << 30,
        name: str = "dma",
        traffic_class: str = "p2m",
    ) -> DmaDevice:
        """Attach an open-loop sequential DMA generator (§2.2 P2M)."""
        region_lines = region_bytes // CACHELINE_BYTES
        workload = SequentialDmaWorkload(self.alloc_region(region_lines), kind)
        device = DmaDevice(
            self.sim,
            self.hub,
            self.iio,
            self.link,
            self.mc,
            workload,
            device_rate=(
                device_rate if device_rate is not None else self.config.device_rate
            ),
            t_host_return=self.config.t_iio_to_cha + self.config.t_cha_to_mc,
            traffic_class=traffic_class,
        )
        self.devices[name] = device
        return device

    def add_nic(
        self,
        ingress_rate: float = 0.0,
        egress_read_rate: float = 0.0,
        buffer_bytes: int = 2 << 20,
        pfc_enabled: bool = True,
        region_bytes: int = 4 << 30,
        name: str = "nic",
        traffic_class: str = "p2m",
    ) -> Nic:
        """Attach a NIC (RDMA / DCTCP case studies)."""
        region_lines = region_bytes // CACHELINE_BYTES
        nic = Nic(
            self.sim,
            self.hub,
            self.iio,
            self.link,
            self.mc,
            region=self.alloc_region(region_lines),
            ingress_rate=ingress_rate,
            egress_read_rate=egress_read_rate,
            buffer_bytes=buffer_bytes,
            pfc_enabled=pfc_enabled,
            traffic_class=traffic_class,
        )
        nic.t_host_return = self.config.t_iio_to_cha + self.config.t_cha_to_mc
        self.devices[name] = nic
        return nic

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start all cores and devices (idempotent)."""
        if self._started:
            return
        self._started = True
        if self._validator is not None:
            self._validator.install(self)
        for core in self.cores:
            core.start()
        for device in self.devices.values():
            device.start()

    def reset_measurement(self) -> None:
        """Start a fresh measurement window at the current time."""
        now = self.sim.now
        self.hub.reset(now)
        self.domains.begin_window(now)
        self.mc.reset_stats(now)
        for core in self.cores:
            core.reset_stats(now)
        for device in self.devices.values():
            device.reset_stats(now)
        if self.llc is not None:
            self.llc.reset_stats()
        self.link.reset_stats(now)
        if self.uncore_kernel is not None:
            self.uncore_kernel.reset_window()

    def begin_measurement(self) -> None:
        """Open a measurement window at the current simulation time.

        Resets every window counter, begins the validator window, and
        records the window cursor (start time + engine event count).
        Extracted from the run loop so an external driver that owns
        the clock — a :class:`~repro.topology.cluster.Cluster` — can
        open per-host windows itself and advance the shared engine
        between them.
        """
        self.reset_measurement()
        if self._validator is not None:
            self._validator.begin_window(self)
        self._window_t_start = self.sim.now
        self._window_events_before = self.sim.events_processed

    def finalize_measurement(self, wall_s: float = 0.0) -> RunResult:
        """Close the window opened by :meth:`begin_measurement`.

        Collects every metric over the window, fills in the engine
        diagnostics from the recorded cursor, and runs the validator's
        end-of-window probe walk. ``wall_s`` is the wall-clock time an
        external driver spent advancing the engine (0 leaves the
        events/s diagnostic unset).
        """
        result = self.collect(self.sim.now - self._window_t_start)
        result.events_processed = (
            self.sim.events_processed - self._window_events_before
        )
        result.sim_wall_s = wall_s
        result.events_per_sec = (
            result.events_processed / wall_s if wall_s > 0 else 0.0
        )
        if self._validator is not None:
            result.invariant_checks = self._validator.end_window(self)
        return result

    def run(self, warmup_ns: float = 20_000.0, measure_ns: float = 80_000.0) -> RunResult:
        """Warm up, measure, and collect results.

        When a checkpoint plan is active (``REPRO_CKPT`` /
        ``REPRO_CKPT_PATH`` / a supervisor-provided per-task path) the
        windows are driven in event chunks with periodic snapshots,
        SIGTERM checkpoints-and-stops, and an existing checkpoint for
        this exact run resumes instead of recomputing;
        ``REPRO_WATCHDOG`` adds livelock detection. All of it is
        result-invisible: the chunked drive dispatches the identical
        event sequence, so the RunResult stays bit-identical.
        """
        plan = checkpoint.active_plan()
        if plan is not None:
            key = checkpoint.run_key(self, warmup_ns, measure_ns)
            resumed = checkpoint.try_resume(plan.path, key)
            if resumed is not None:
                return resumed._run_phases(resumed._resume_state, plan)
        else:
            key = ""
        self.start()
        state = checkpoint.RunState(
            run_key=key,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            phase="warmup",
            t_end=self.sim.now + warmup_ns,
        )
        return self._run_phases(state, plan)

    @classmethod
    def restore(cls, path) -> "Host":
        """Rebuild a live host from a checkpoint file.

        Verifies the blob (checksum + knob fingerprint), reinstalls
        module-level state (the Request free list) and — when
        ``REPRO_VALIDATE=1`` — runs the structural post-restore
        invariant walk. The returned host carries the interrupted
        run's cursor: finish it with :meth:`resume_run` for a
        RunResult bit-identical to the uninterrupted run.
        """
        payload = checkpoint.load(path)
        return checkpoint.restore_payload(payload)

    def resume_run(self) -> RunResult:
        """Finish an interrupted :meth:`run` after :meth:`restore`."""
        state = self._resume_state
        if state is None:
            raise RuntimeError("nothing to resume: host was not restored mid-run")
        return self._run_phases(state, checkpoint.active_plan())

    def _run_phases(
        self,
        state: "checkpoint.RunState",
        plan: Optional["checkpoint.CheckpointPlan"],
    ) -> RunResult:
        """Drive the warmup/measure windows recorded in ``state``.

        Entered fresh (phase ``warmup``, nothing run yet) or resumed
        (either phase, clock mid-window): the state cursor carries
        everything needed to continue exactly where the interrupted
        run stopped.
        """
        wd = watchdog.from_env()
        # The SIGTERM-to-checkpoint handler covers both windows (and
        # the gap between them); the flag it sets is only acted on at
        # chunk boundaries inside _drive.
        with checkpoint.sigterm_to_checkpoint(enabled=plan is not None):
            if state.phase == "warmup":
                if state.t_end > self.sim.now:
                    self._drive(state.t_end, plan, wd, state)
                self.begin_measurement()
                state.phase = "measure"
                state.t_start = self._window_t_start
                state.events_before = self._window_events_before
                state.t_end = state.t_start + state.measure_ns
            else:
                # Resumed mid-measure: the window cursor lives in the
                # restored state, not on the freshly-rebuilt host.
                self._window_t_start = state.t_start
                self._window_events_before = state.events_before
            wall_before = time.perf_counter()
            self._drive(state.t_end, plan, wd, state)
            wall_s = time.perf_counter() - wall_before
        result = self.finalize_measurement(wall_s)
        if plan is not None:
            plan.discard()
        self._resume_state = None
        return result

    def _drive(
        self,
        t_end: float,
        plan: Optional["checkpoint.CheckpointPlan"],
        wd: Optional["watchdog.Watchdog"],
        state: "checkpoint.RunState",
    ) -> None:
        """Advance the clock to ``t_end``, plain or in event chunks.

        With neither a checkpoint plan nor a watchdog this is exactly
        ``sim.run_until`` — zero overhead on the default path. The
        chunked path dispatches the identical event sequence (the
        engine re-files partially-dispatched buckets in submission
        order), probing for snapshots, preemption and stalls only at
        chunk boundaries.
        """
        sim = self.sim
        if plan is None and wd is None:
            sim.run_until(t_end)
            return
        if not t_end >= sim.now:
            raise ValueError(f"cannot run backwards (t_end={t_end}, now={sim.now})")
        chunk = checkpoint.CHUNK_EVENTS
        if plan is not None:
            plan.arm(sim)
        if wd is not None:
            wd.arm(sim)
        while True:
            executed = sim._drain_limited(t_end, chunk)
            if plan is not None:
                reason = checkpoint.preempt_reason(sim)
                if reason is not None:
                    checkpoint.execute_preempt(self, state, plan, reason)
                if plan.due(sim):
                    plan.advance(sim)
                    state.seq += 1
                    checkpoint.save(self, state, plan.path)
            if wd is not None:
                wd.observe(self)
            if executed < chunk:
                break
        sim.run_until(t_end)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, elapsed_ns: float) -> RunResult:
        """Snapshot every metric of the current window into a RunResult."""
        if self.uncore_kernel is not None:
            self.uncore_kernel.sync_stats()
        now = self.sim.now
        mc = self.mc
        seen = set()
        for channel in mc.channels:
            seen.update(channel.stats.class_lines_read)
            seen.update(channel.stats.class_lines_written)
        # Sorted so the per-class dicts' key order does not depend on
        # the string hash seed (PYTHONHASHSEED).
        classes = sorted(seen)
        mem_bw_by_class = {
            tc: mc.class_bandwidth_bytes_per_ns(tc, elapsed_ns) for tc in classes
        }
        lines_read_by_class = {
            tc: mc.class_lines(tc, RequestKind.READ) for tc in classes
        }
        lines_written_by_class = {
            tc: mc.class_lines(tc, RequestKind.WRITE) for tc in classes
        }

        domain_latency: Dict[str, float] = {}
        cha_admission: Dict[str, float] = {}
        for name, stat in self.hub._latencies.items():
            if stat.count == 0:
                continue
            # Registry keys carry the host namespace; the RunResult
            # keys are host-local (a cluster distinguishes hosts by
            # RunResult position, not by key prefix).
            name = self.hub.local(name)
            if name.startswith("domain."):
                domain_latency[name[len("domain.") :]] = stat.average
            elif name.startswith("lfb.total."):
                domain_latency["lfb_total." + name[len("lfb.total.") :]] = stat.average
            elif name.startswith("cha_to_dram_read."):
                domain_latency[
                    "cha_dram_read." + name[len("cha_to_dram_read.") :]
                ] = stat.average
            elif name.startswith("cha_to_mc_write."):
                domain_latency[
                    "cha_mc_write." + name[len("cha_to_mc_write.") :]
                ] = stat.average
            elif name.startswith("cha.admission_delay."):
                cha_admission[name[len("cha.admission_delay.") :]] = stat.average

        lfb_by_class: Dict[str, float] = {}
        for core in self.cores:
            tc = core.workload.traffic_class
            lfb_by_class[tc] = lfb_by_class.get(tc, 0.0) + core.lfb.average_occupancy(
                now
            )

        row_miss: Dict[str, float] = {}
        for tc in classes:
            for kind in (RequestKind.READ, RequestKind.WRITE):
                ratio = mc.row_miss_ratio(tc, kind)
                row_miss[f"{tc}.{kind.value}"] = ratio

        workload_ops = {
            name: sum(w.ops_completed for w in workloads)
            for name, workloads in self._workloads.items()
        }
        device_lines = {}
        device_ios = {}
        for name, device in self.devices.items():
            workload = device.workload
            lines_done = getattr(workload, "lines_done", None)
            if lines_done is None:
                lines_done = getattr(workload, "lines_delivered", 0) + getattr(
                    workload, "lines_read", 0
                )
            device_lines[name] = lines_done
            ios = getattr(workload, "ios_completed", None)
            if ios is not None:
                device_ios[name] = ios

        extra: Dict[str, float] = {}
        for name, device in self.devices.items():
            if isinstance(device, Nic):
                extra[f"{name}.pause_fraction"] = device.pause_fraction()
                extra[f"{name}.loss_rate"] = device.loss_rate()
        if self.llc is not None:
            extra["llc.miss_ratio"] = self.llc.miss_ratio

        return RunResult(
            config=self.config,
            elapsed_ns=elapsed_ns,
            mem_bw_total=mc.bandwidth_bytes_per_ns(elapsed_ns),
            mem_bw_by_class=mem_bw_by_class,
            lines_read_by_class=lines_read_by_class,
            lines_written_by_class=lines_written_by_class,
            domain_latency=domain_latency,
            lfb_avg_occupancy=lfb_by_class,
            iio_write_avg_occupancy=self.iio.write_occ.average(now),
            iio_read_avg_occupancy=self.iio.read_occ.average(now),
            iio_write_max_occupancy=self.iio.write_occ.max_seen,
            cha_admission_delay=cha_admission,
            cha_write_waiting_avg=self.cha.write_waiting.average(now),
            cha_pool_avg=(
                self.cha.ingress_occ.average(now)
                + self.cha.read_stage.average(now)
                + self.cha.write_waiting.average(now)
            ),
            cha_inflight_p2m_reads_avg=self.hub.occupancy(
                "cha.inflight_reads.p2m"
            ).average(now),
            rpq_avg_occupancy=mc.avg_rpq_occupancy(now),
            wpq_avg_occupancy=mc.avg_wpq_occupancy(now),
            wpq_full_fraction=mc.wpq_full_fraction(now),
            lines_read=int(mc.total("lines_read")),
            lines_written=int(mc.total("lines_written")),
            switches_wtr=int(mc.total("switches_wtr")),
            switches_rtw=int(mc.total("switches_rtw")),
            act_read=int(mc.total("act_read")),
            act_write=int(mc.total("act_write")),
            pre_conflict_read=int(mc.total("pre_conflict_read")),
            pre_conflict_write=int(mc.total("pre_conflict_write")),
            row_miss_ratio=row_miss,
            bank_deviations=mc.bank_deviations(),
            workload_ops=workload_ops,
            device_lines=device_lines,
            device_ios=device_ios,
            extra=extra,
            domain_snapshots=self.domains.snapshot_all(now, elapsed_ns),
        )
