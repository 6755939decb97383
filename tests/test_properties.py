"""Property-based tests (hypothesis) on core data structures and
invariants: event ordering, counter algebra, address-mapping
bijectivity, LLC invariants, formula monotonicity, and domain bounds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domain import credits_needed, throughput_bound
from repro.dram.address import AddressMapper
from repro.dram.region import PagedRegion
from repro.dram.timing import DDR4_2933
from repro.model.inputs import FormulaInputs
from repro.model.read_latency import read_queueing_delay
from repro.model.write_latency import write_admission_delay
from repro.sim.engine import Simulator
from repro.telemetry.counters import OccupancyCounter
from repro.telemetry.littleslaw import littles_law_latency, littles_law_occupancy
from repro.uncore.llc import LastLevelCache
from tests.llc_reference import store_contents


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_run_until_partitions_cleanly(self, delays):
        """Running in two windows fires exactly the same events as one."""
        boundary = 5e5

        def collect(windows):
            sim = Simulator()
            fired = []
            for delay in delays:
                sim.schedule(delay, lambda: fired.append(round(sim.now, 9)))
            for t_end in windows:
                sim.run_until(t_end)
            return fired

        assert collect([boundary, 1e6 + 1]) == collect([1e6 + 1])


class TestCounterProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=100.0),  # dt
                st.integers(min_value=-3, max_value=3),  # delta
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_occupancy_average_bounded_by_peak(self, steps):
        counter = OccupancyCounter()
        now = 0.0
        value = 0
        peak = 0
        for dt, delta in steps:
            now += dt
            if value + delta < 0:
                delta = -value
            counter.update(now, delta)
            value += delta
            peak = max(peak, value)
        average = counter.average(now + 1.0)
        assert 0.0 <= average <= peak + 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_littles_law_round_trip(self, occupancy, rate):
        latency = littles_law_latency(occupancy, rate)
        assert littles_law_occupancy(latency, rate) == pytest.approx(
            occupancy, rel=1e-9, abs=1e-9
        )


class TestAddressProperties:
    @given(
        st.integers(min_value=0, max_value=1 << 34),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([8, 16, 32]),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_mapping_is_invertible(self, line, channels, banks, xor):
        """(channel, bank, row, column) uniquely identifies the line."""
        mapper = AddressMapper(channels, banks, lines_per_row=128, xor_hash=xor)
        m = mapper.map(line)
        # Reconstruct: undo the XOR permutation, then re-pack the bits.
        bank = m.bank ^ (m.row & (banks - 1)) if xor else m.bank
        rest = ((m.row * banks) + bank) * 128 + m.column
        reconstructed = rest * channels + m.channel
        assert reconstructed == line

    @given(st.integers(min_value=0, max_value=1 << 20), st.integers(0, 1 << 30))
    @settings(max_examples=100)
    def test_paged_region_offsets_preserved_within_page(self, index, seed):
        region = PagedRegion(n_lines=1 << 21, page_lines=64, seed=seed)
        addr = region.line(index)
        assert addr % 64 == index % 64

    @given(st.integers(min_value=0, max_value=(1 << 21) - 1), st.integers(0, 1 << 30))
    @settings(max_examples=50)
    def test_paged_region_stable(self, index, seed):
        region = PagedRegion(n_lines=1 << 21, page_lines=64, seed=seed)
        assert region.line(index) == region.line(index)


class TestLlcProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_set_size_never_exceeds_ways(self, addresses):
        llc = LastLevelCache(32 * 1024, ways=4, ddio_ways=2)
        for i, addr in enumerate(addresses):
            if i % 3 == 0:
                llc.write_allocate_ddio(addr)
            else:
                llc.lookup_read(addr)
        llc.verify_tags()  # the valid ways of a set fit its associativity

    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_dma_lines_never_exceed_ddio_budget(self, addresses):
        llc = LastLevelCache(32 * 1024, ways=4, ddio_ways=2)
        for addr in addresses:
            llc.write_allocate_ddio(addr)
        for lines in store_contents(llc):
            assert sum(1 for line in lines if line[2]) <= llc.ddio_ways

    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_immediate_re_read_always_hits(self, addresses):
        llc = LastLevelCache(64 * 1024, ways=8, ddio_ways=2)
        for addr in addresses:
            llc.lookup_read(addr)
            hit, _ = llc.lookup_read(addr)
            assert hit


class TestDomainBoundProperties:
    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_bound_credits_inverse(self, credits, latency):
        bound = throughput_bound(credits, latency)
        assert credits_needed(bound, latency) == pytest.approx(credits, rel=1e-9)

    @given(
        st.floats(min_value=1.0, max_value=1000.0),
        st.floats(min_value=1.0, max_value=10_000.0),
        st.floats(min_value=1.01, max_value=10.0),
    )
    def test_bound_decreases_with_latency(self, credits, latency, factor):
        assert throughput_bound(credits, latency * factor) < throughput_bound(
            credits, latency
        )


def make_inputs(o_rpq=1.0, n_waiting=0.0, p_fill=0.0, lines_read=1000,
                lines_written=100, switches=10):
    return FormulaInputs(
        p_fill_wpq=p_fill,
        n_waiting=n_waiting,
        switches_wtr=switches,
        switches_rtw=switches,
        lines_read=lines_read,
        lines_written=lines_written,
        o_rpq=o_rpq,
        act_read=50,
        act_write=20,
        pre_conflict_read=25,
        pre_conflict_write=10,
    )


class TestFormulaProperties:
    @given(
        st.floats(min_value=0.0, max_value=48.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=60)
    def test_read_delay_monotone_in_rpq_occupancy(self, lo, delta):
        a = read_queueing_delay(make_inputs(o_rpq=lo), DDR4_2933).total
        b = read_queueing_delay(make_inputs(o_rpq=lo + delta), DDR4_2933).total
        assert b >= a - 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=60)
    def test_write_delay_monotone_in_fill_and_waiting(self, p_fill, n_waiting):
        base = write_admission_delay(
            make_inputs(p_fill=p_fill, n_waiting=n_waiting), DDR4_2933
        ).total
        more_full = write_admission_delay(
            make_inputs(p_fill=min(1.0, p_fill + 0.1), n_waiting=n_waiting),
            DDR4_2933,
        ).total
        more_waiting = write_admission_delay(
            make_inputs(p_fill=p_fill, n_waiting=n_waiting + 10), DDR4_2933
        ).total
        assert more_full >= base - 1e-9
        assert more_waiting >= base - 1e-9

    @given(st.floats(min_value=0.0, max_value=48.0))
    @settings(max_examples=40)
    def test_read_components_non_negative(self, o_rpq):
        breakdown = read_queueing_delay(make_inputs(o_rpq=o_rpq), DDR4_2933)
        assert breakdown.switching >= 0
        assert breakdown.write_hol >= 0
        assert breakdown.read_hol >= 0
        assert breakdown.top_of_queue >= 0


class TestEndToEndDeterminismProperty:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_short_runs_reproducible(self, n_cores, seed):
        from repro import Host, cascade_lake

        def run():
            host = Host(cascade_lake(), seed=seed)
            host.add_stream_cores(n_cores, store_fraction=0.5)
            return host.run(2_000.0, 6_000.0)

        a, b = run(), run()
        assert a.lines_read == b.lines_read
        assert a.lines_written == b.lines_written
