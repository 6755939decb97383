"""The benchmark's workloads: one sweep of host-network windows each.

A sweep builds every window cold (fresh :class:`~repro.Host` or
:class:`~repro.Cluster`), drives it through the public entry points,
and returns per-window timings, the paper-shape checks, the simulated
counts the per-layer ledger reports, and a digest of every simulated
statistic. Windows run serially in this process: no process pool, no
run cache.

Why these workloads (README.md has the layer-to-metric table):

* ``blue_read`` -- Fig 3 quadrant 1 (C2M-Read beside P2M-Write, LLC
  bypassed): read-dominated DRAM and uncore traffic with the LLC and
  fabric idle, so DRAM-kernel, address-map and engine work shows.
* ``red_readwrite`` -- quadrant 3 (store_fraction 1.0): the same layers
  with writes beside reads (WPQ drains, turnarounds, CHA write
  backpressure). A DRAM or uncore change that helps one and costs the
  other shows as a split between the two quadrant workloads.
* ``rack_ddio_incast`` -- 4 hosts on one leaf, LLC-full with DDIO, PFC,
  RDMA writers into host 0 beside 2 STREAM read-write cores: the only
  workload where the fabric, NIC, RDMA flows and LLC/DDIO do work, and
  where LLC prewarm makes set-up time substantial.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import time
from statistics import fmean
from typing import Callable, Dict, List, Optional

from repro import Cluster, Host, RequestKind, cascade_lake
from repro.core.regimes import Regime, RegimePoint, classify_regime
from repro.net.rdma import add_rdma_write_flow

import speed
from ledger import Ledger

#: simulated window per run: long enough that quadrant 3 is red at 6
#: cores on all 20 seeds tried (at 10/30 us, P2M degradation there came
#: within 0.005 of the classifier's 1.10 threshold)
WARMUP_NS = 15_000.0
MEASURE_NS = 45_000.0

CORE_COUNTS = (1, 2, 3, 4, 6)
#: the paper's Fig 3 shading per quadrant and core count
PAPER_REGIME = {
    1: {n: Regime.BLUE for n in CORE_COUNTS},
    3: {n: Regime.BLUE if n <= 2 else Regime.RED for n in CORE_COUNTS},
}

RACK_HOSTS = 4
RACK_LINK_GBPS = 100.0
RACK_SENDER_GBPS = 98.0
RACK_QUEUE_LINES = 512
RACK_MEM_CORES = 2
RACK_SENDER_COUNTS = (1, 3)


def _subseed(seed: int, k: int) -> int:
    """The seed of one sweep point (k: core or sender count, 0 <= k < 8).

    Points get distinct seeds, so one sweep averages the placement
    luck of several seeds instead of repeating one seed's; a cluster
    seeds its hosts ``seed + index``, so the stride of 8 keeps the
    hosts of different points apart too.
    """
    return seed * 64 + 8 * k


#: RunResult fields that are host wall-clock, not simulated statistics
_WALL_FIELDS = frozenset({"sim_wall_s", "events_per_sec"})


@dataclasses.dataclass
class Window:
    """One timed window: the benchmark's unit of work."""

    label: str
    #: wall seconds (less speed probes) in construction/wiring and
    #: inside run()
    setup_s: float = 0.0
    run_s: float = 0.0
    #: machine-speed scale from the probes taken during the window
    scale: float = 1.0
    #: engine events dispatched inside run() (warmup plus measure)
    events: int = 0
    result: object = None
    error: Optional[str] = None


@dataclasses.dataclass
class Sweep:
    """One workload sweep: windows, check failures, counts, digest."""

    windows: List[Window]
    #: label -> reason, for every window that raised or failed its check
    failures: Dict[str, str]
    counts: Dict[str, float]
    digest: str


def _timed(label: str, build: Callable[[], object], ledger: Ledger) -> Window:
    """Build a Host or Cluster, then run it, each inside a span."""
    window = Window(label)
    with speed.SpeedMeter() as meter:
        try:
            with ledger.span():
                t0 = meter.clock()
                node = build()
                window.setup_s = meter.clock() - t0
            events_before = node.sim.events_processed
            with ledger.span():
                t0 = meter.clock()
                window.result = node.run(WARMUP_NS, MEASURE_NS)
                window.run_s = meter.clock() - t0
            window.events = node.sim.events_processed - events_before
        except Exception as exc:  # a window that raises is a failed operation
            window.error = f"{type(exc).__name__}: {exc}"
    window.scale = meter.scale
    return window


# ----------------------------------------------------------------------
# Fig 3 quadrant sweeps
# ----------------------------------------------------------------------


def _quadrant_sweep(quadrant: int, seed: int, ledger: Ledger) -> Sweep:
    store_fraction = 0.0 if quadrant == 1 else 1.0
    config = cascade_lake()

    def host_with(n_cores: int, dma: bool) -> Callable[[], Host]:
        def build() -> Host:
            host = Host(config, seed=_subseed(seed, n_cores))
            if n_cores:
                host.add_stream_cores(n_cores, store_fraction=store_fraction)
            if dma:
                host.add_raw_dma(RequestKind.WRITE, name="dma")
            return host

        return build

    p2m_iso = _timed("p2m_isolated", host_with(0, True), ledger)
    windows = [p2m_iso]
    failures: Dict[str, str] = {}
    mismatches = 0
    p2m_deg_max = 0.0
    for n in CORE_COUNTS:
        c2m_iso = _timed(f"n{n}.c2m_isolated", host_with(n, False), ledger)
        colocated = _timed(f"n{n}.colocated", host_with(n, True), ledger)
        windows += [c2m_iso, colocated]
        if colocated.error or c2m_iso.error or p2m_iso.error:
            continue
        c2m_deg = c2m_iso.result.class_bandwidth("c2m") / max(
            1e-12, colocated.result.class_bandwidth("c2m")
        )
        p2m_deg = p2m_iso.result.device_bandwidth("dma") / max(
            1e-12, colocated.result.device_bandwidth("dma")
        )
        p2m_deg_max = max(p2m_deg_max, p2m_deg)
        regime = classify_regime(
            RegimePoint(
                c2m_degradation=c2m_deg,
                p2m_degradation=p2m_deg,
                mem_bw_utilization=min(1.5, colocated.result.mem_bw_utilization),
            )
        )
        if regime is not PAPER_REGIME[quadrant][n]:
            mismatches += 1
        reason = _quadrant_check(quadrant, n, c2m_deg, p2m_deg, regime)
        if reason:
            failures[colocated.label] = reason
    for w in windows:
        if w.error:
            failures[w.label] = w.error
    counts = _host_counts(windows)
    counts["fidelity.regime_mismatch"] = mismatches
    counts["fidelity.p2m_degradation_max"] = p2m_deg_max
    return Sweep(windows, failures, counts, _digest(windows))


def _quadrant_check(
    quadrant: int, n: int, c2m_deg: float, p2m_deg: float, regime: Regime
) -> str:
    """The paper-shape check of one colocated point ("" when it holds).

    Quadrant 1 is blue: C2M degrades from 2 cores and P2M degrades less
    than C2M (the classifier's definition of blue, which does not hold
    P2M to an absolute bound). Quadrant 3 is red at 6 cores.
    """
    if quadrant == 1:
        if n >= 2 and c2m_deg < 1.10:
            return f"C2M degradation {c2m_deg:.3f} < 1.10"
        if p2m_deg >= c2m_deg:
            return f"P2M degradation {p2m_deg:.3f} >= C2M {c2m_deg:.3f}"
    elif n == 6 and regime is not Regime.RED:
        return f"regime {regime.value}, paper has red"
    return ""


def blue_read(seed: int, ledger: Ledger) -> Sweep:
    """Fig 3 quadrant 1: STREAM C2M-Read beside raw-DMA P2M-Write."""
    return _quadrant_sweep(1, seed, ledger)


def red_readwrite(seed: int, ledger: Ledger) -> Sweep:
    """Fig 3 quadrant 3: STREAM C2M-ReadWrite beside raw-DMA P2M-Write."""
    return _quadrant_sweep(3, seed, ledger)


# ----------------------------------------------------------------------
# Rack DDIO incast
# ----------------------------------------------------------------------


def rack_ddio_incast(seed: int, ledger: Ledger) -> Sweep:
    """RDMA writers into host 0 of a DDIO rack: 1 sender, then 3."""
    config = cascade_lake(llc_mode="full", ddio_enabled=True)
    link_rate = RACK_LINK_GBPS / 8.0  # bytes/ns

    def rack(n_senders: int) -> Callable[[], Cluster]:
        def build() -> Cluster:
            cluster = Cluster(
                config,
                n_hosts=RACK_HOSTS,
                seed=_subseed(seed, n_senders),
                n_leaves=1,
                link_gbps=RACK_LINK_GBPS,
                queue_capacity_lines=RACK_QUEUE_LINES,
                pfc_enabled=True,
            )
            cluster.hosts[0].add_stream_cores(RACK_MEM_CORES, store_fraction=1.0)
            for src in range(1, n_senders + 1):
                add_rdma_write_flow(
                    cluster, src=src, dst=0, rate_gbps=RACK_SENDER_GBPS
                )
            return cluster

        return build

    windows = []
    failures: Dict[str, str] = {}
    pause = []
    goodput_frac = []
    for n_senders in RACK_SENDER_COUNTS:
        label = f"senders{n_senders}"
        window = _timed(label, rack(n_senders), ledger)
        windows.append(window)
        if window.error:
            failures[label] = window.error
            continue
        result = window.result
        total = sum(result.flow_goodput)
        goodput_frac.append(total / link_rate)
        edge = result.fabric.ports.get("leaf0.down.h0")
        pause.append(edge.pause_fraction if edge else 0.0)
        reason = _rack_check(result, total, link_rate)
        if reason:
            failures[label] = reason
    counts = _host_counts(windows)
    fabric = [w.result.fabric for w in windows if w.error is None]
    counts["topology.fabric.lines_forwarded"] = sum(f.lines_forwarded for f in fabric)
    counts["topology.fabric.lines_dropped"] = sum(f.lines_dropped for f in fabric)
    # the incast window's pause: the 1-sender window never pauses
    counts["topology.fabric.edge_pause_frac"] = max(pause, default=0.0)
    counts["net.rdma.goodput_frac"] = _mean(goodput_frac)
    return Sweep(windows, failures, counts, _digest(windows))


def _rack_check(result, total_goodput: float, link_rate: float) -> str:
    """Zero drops under PFC, goodput within line rate, fair shares."""
    if result.fabric.lines_dropped:
        return f"{result.fabric.lines_dropped} lines dropped under PFC"
    if total_goodput > link_rate * 1.01:
        return f"goodput {total_goodput * 8:.2f} Gb/s above line rate"
    if len(result.flow_goodput) > 1:
        share = min(result.flow_goodput) / max(1e-12, max(result.flow_goodput))
        if share < 0.9:
            return f"min/max flow share {share:.3f} < 0.9"
    if result.fabric_checks <= 0:
        return "no fabric conservation check ran"
    return ""


WORKLOADS = {
    "blue_read": blue_read,
    "red_readwrite": red_readwrite,
    "rack_ddio_incast": rack_ddio_incast,
}


# ----------------------------------------------------------------------
# Simulated counts and the determinism digest
# ----------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return fmean(values) if values else 0.0


def _host_results(window: Window) -> list:
    result = window.result
    return list(result.hosts) if hasattr(result, "hosts") else [result]


def _host_counts(windows: List[Window]) -> Dict[str, float]:
    """Per-layer simulated counts summed (or averaged) over a sweep.

    Ratios are taken over sums; occupancies and latencies are means
    over the host windows where the component carried traffic.
    """
    ok = [w for w in windows if w.error is None]
    hosts = [r for w in ok for r in _host_results(w)]
    lines = sum(r.lines_read + r.lines_written for r in hosts)
    acts = sum(r.act_read + r.act_write for r in hosts)
    # a cluster's hosts share one engine, so count its events once
    measured_events = sum(_host_results(w)[0].events_processed for w in ok)
    busy = [r for r in hosts if r.lines_read + r.lines_written]
    row_lines = row_misses = 0
    for r in hosts:
        for key, ratio in r.row_miss_ratio.items():
            tc, kind = key.rsplit(".", 1)
            by_class = r.lines_read_by_class if kind == "read" else r.lines_written_by_class
            n = by_class.get(tc, 0)
            row_lines += n
            row_misses += ratio * n
    with_dma = [r for r in hosts if sum(r.device_lines.values())]
    with_cores = [r for r in hosts if "c2m" in r.lfb_avg_occupancy]
    return {
        "sim.events": sum(w.events for w in ok),
        "sim.events_per_line": measured_events / lines if lines else 0.0,
        "dram.lines": lines,
        "dram.acts_per_line": acts / lines if lines else 0.0,
        "dram.row_miss_ratio": row_misses / row_lines if row_lines else 0.0,
        "dram.turnarounds": sum(r.switches() for r in hosts),
        "dram.wpq_full_frac": _mean(r.wpq_full_fraction for r in busy),
        "dram.bw_util": _mean(r.mem_bw_utilization for r in busy),
        "uncore.cha.admission_delay_ns": _mean(
            _mean(r.cha_admission_delay.values())
            for r in busy
            if r.cha_admission_delay
        ),
        "uncore.cha.write_waiting": _mean(r.cha_write_waiting_avg for r in busy),
        "uncore.iio.write_occ": _mean(r.iio_write_avg_occupancy for r in with_dma),
        "uncore.llc.miss_ratio": _mean(
            r.extra["llc.miss_ratio"] for r in hosts if "llc.miss_ratio" in r.extra
        ),
        "pcie.device_lines": sum(sum(r.device_lines.values()) for r in hosts),
        "pcie.p2m_write_latency_ns": _mean(
            r.latency("p2m_write", "p2m") for r in with_dma if r.latency("p2m_write", "p2m")
        ),
        "cpu.c2m_read_latency_ns": _mean(r.latency("c2m_read") for r in with_cores),
        "cpu.lfb_occ": _mean(r.lfb_avg_occupancy["c2m"] for r in with_cores),
        # filled in by the one workload that exercises them; every
        # workload reports every count
        "topology.fabric.lines_forwarded": 0,
        "topology.fabric.lines_dropped": 0,
        "topology.fabric.edge_pause_frac": 0.0,
        "net.rdma.goodput_frac": 0.0,
        "fidelity.regime_mismatch": 0,
        "fidelity.p2m_degradation_max": 0.0,
    }


def _canonical(value):
    """A JSON-like, order-stable form of a simulated result."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _WALL_FIELDS
        }
    if isinstance(value, dict):
        return sorted((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(windows: List[Window]) -> str:
    """SHA-256 over every simulated statistic of every window."""
    h = hashlib.sha256()
    for w in windows:
        h.update(repr((w.label, w.error, w.events, _canonical(w.result))).encode())
    return h.hexdigest()[:16]
