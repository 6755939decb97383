"""Tests for RunResult's derived metrics and the DDIO CHA paths."""

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.dram.controller import MemoryController
from repro.dram.timing import DDR4_2933
from repro.sim.engine import Simulator
from repro.sim.records import Request, RequestSource
from repro.telemetry.counters import CounterHub
from repro.uncore.cha import CHA
from repro.uncore.llc import LastLevelCache
from tests.pyrun import run_python

WARMUP = 8_000.0
MEASURE = 20_000.0


@pytest.fixture(scope="module")
def mixed_run():
    host = Host(cascade_lake())
    host.add_stream_cores(2, store_fraction=0.5)
    host.add_raw_dma(RequestKind.WRITE, name="dma")
    return host.run(WARMUP, MEASURE)


class TestHashSeedIndependence:
    def test_per_class_key_order_ignores_hash_seed(self):
        """The per-class dicts are keyed in sorted order, so a result
        is the same object under any ``PYTHONHASHSEED``."""
        script = (
            "from repro import Host, RequestKind, cascade_lake\n"
            "host = Host(cascade_lake(), seed=3)\n"
            "host.add_stream_cores(2, store_fraction=0.5)\n"
            "host.add_raw_dma(RequestKind.WRITE, name='dma')\n"
            "r = host.run(1_000.0, 3_000.0)\n"
            "print([list(d) for d in (r.mem_bw_by_class, r.lines_read_by_class,"
            " r.lines_written_by_class, r.row_miss_ratio)])\n"
        )
        keys = [
            run_python(script, env={"PYTHONHASHSEED": seed})
            for seed in ("1", "3")
        ]
        assert keys[0] == keys[1]
        assert "['c2m', 'p2m']" in keys[0]


class TestRunResultHelpers:
    def test_latency_missing_key_is_zero(self, mixed_run):
        assert mixed_run.latency("c2m_read", "nonexistent") == 0.0

    def test_class_bandwidth_missing_is_zero(self, mixed_run):
        assert mixed_run.class_bandwidth("ghost") == 0.0

    def test_class_rates_consistent_with_lines(self, mixed_run):
        rate = mixed_run.class_read_rate("c2m")
        lines = mixed_run.lines_read_by_class["c2m"]
        assert rate == pytest.approx(lines / mixed_run.elapsed_ns)

    def test_ops_rate(self, mixed_run):
        assert mixed_run.ops_rate("c2m") > 0
        assert mixed_run.ops_rate("ghost") == 0.0

    def test_switches_sum(self, mixed_run):
        assert mixed_run.switches() == (
            mixed_run.switches_wtr + mixed_run.switches_rtw
        )

    def test_mixed_stream_ratio(self, mixed_run):
        """store_fraction=0.5 -> reads : writes = 2 : 1 at the MC
        (every op reads; half also write back)."""
        reads = mixed_run.lines_read_by_class["c2m"]
        writes = mixed_run.lines_written_by_class["c2m"]
        assert reads / writes == pytest.approx(2.0, rel=0.1)

    def test_row_miss_keys_present(self, mixed_run):
        assert "c2m.read" in mixed_run.row_miss_ratio
        assert "p2m.write" in mixed_run.row_miss_ratio

    def test_bank_deviations_collected(self, mixed_run):
        assert len(mixed_run.bank_deviations) > 0
        assert all(d >= 1.0 for d in mixed_run.bank_deviations)

    def test_device_ios_only_for_io_devices(self, mixed_run):
        # A raw DMA stream has no IO concept.
        assert "dma" not in mixed_run.device_ios


def make_ddio_cha(region_lines=1 << 14):
    sim = Simulator()
    hub = CounterHub()
    mc = MemoryController(sim, hub, DDR4_2933, n_channels=1, n_banks=8)
    llc = LastLevelCache(64 * 1024, ways=4, ddio_ways=2)
    cha = CHA(sim, hub, mc, llc=llc, ddio_enabled=True)
    return sim, hub, mc, llc, cha


class TestChaDdioPaths:
    def test_absorbed_write_frees_credit_without_memory_write(self):
        sim, hub, mc, llc, cha = make_ddio_cha()
        # Pre-install the line so the DMA write hits.
        llc.write_allocate_ddio(5)
        done = []
        req = Request(RequestSource.P2M, RequestKind.WRITE, 5, traffic_class="p2m")
        req.t_alloc = 0.0
        mc.assign(req)
        req.on_complete = lambda r: done.append(sim.now)
        cha.request_admission(req)
        sim.run_until(1_000.0)
        assert done  # completed at the LLC
        assert mc.total("lines_written") == 0

    def test_thrash_write_carries_eviction_to_memory(self):
        sim, hub, mc, llc, cha = make_ddio_cha()
        llc.prewarm_ddio(base_line=1 << 30)
        req = Request(RequestSource.P2M, RequestKind.WRITE, 7, traffic_class="p2m")
        req.t_alloc = 0.0
        mc.assign(req)
        done = []
        req.on_complete = lambda r: done.append(sim.now)
        cha.request_admission(req)
        sim.run_until(2_000.0)
        assert done  # the DMA write completed at the LLC...
        assert mc.total("lines_written") == 1  # ...and one eviction hit DRAM

    def test_c2m_reads_check_llc(self):
        sim, hub, mc, llc, cha = make_ddio_cha()
        req = Request(RequestSource.C2M, RequestKind.READ, 9)
        mc.assign(req)
        req.t_alloc = 0.0
        cha.request_admission(req)
        sim.run_until(1_000.0)
        assert llc.misses == 1
        # Second read hits the LLC: no extra DRAM read.
        req2 = Request(RequestSource.C2M, RequestKind.READ, 9)
        mc.assign(req2)
        req2.t_alloc = sim.now
        done = []
        req2.on_complete = lambda r: done.append(sim.now)
        cha.request_admission(req2)
        sim.run_until(2_000.0)
        assert done
        assert mc.total("lines_read") == 1


class TestDdioSecondOrderEffect:
    def test_ddio_on_not_better_for_thrashing_p2m(self):
        """Fig. 2's setup: for a buffer that thrashes the DDIO ways the
        memory write volume is the same with DDIO on or off."""
        volumes = {}
        for ddio in (True, False):
            host = Host(cascade_lake(llc_mode="full", ddio_enabled=ddio))
            host.add_raw_dma(RequestKind.WRITE, name="dma", region_bytes=1 << 30)
            run = host.run(WARMUP, MEASURE)
            volumes[ddio] = run.lines_written_by_class["p2m"]
        assert volumes[True] == pytest.approx(volumes[False], rel=0.1)

    def test_ddio_on_releases_iio_credits_earlier_under_load(self):
        """With DDIO the P2M-Write domain ends at the LLC instead of at
        WPQ admission, so under write backpressure its latency is lower
        than with DDIO off (unloaded, the two differ by only a few ns)."""
        latencies = {}
        for ddio in (True, False):
            host = Host(cascade_lake(llc_mode="full", ddio_enabled=ddio))
            host.add_stream_cores(5, store_fraction=1.0)
            host.add_raw_dma(RequestKind.WRITE, name="dma", region_bytes=1 << 30)
            run = host.run(30_000.0, 60_000.0)
            latencies[ddio] = run.latency("p2m_write", "p2m")
        assert latencies[True] < latencies[False]
