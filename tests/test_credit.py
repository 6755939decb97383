"""The unified credit runtime: CreditPool semantics, credit
conservation across all four Fig. 5 pools, live DomainSnapshots
and the ``T <= C * 64 / L`` bound, Domain.from_snapshot, and the fig03
bit-exactness fingerprint."""

from pathlib import Path

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.core.domain import Domain, DomainKind
from repro.model.inputs import domain_credits
from repro.model.validation import (
    calibrate_read_constant,
    estimate_c2m_throughput,
)
from repro.sim import records
from repro.sim.credit import CreditPool, DomainSnapshot
from repro.sim.records import CACHELINE_BYTES
from repro.telemetry.counters import OccupancyCounter
from repro.validate import DEFAULT_TOLERANCE
from repro.validate.harness import assert_fig03_matches

FINGERPRINT = Path(__file__).parent / "data" / "fig03_fingerprint.json"

WARMUP = 2_000.0
MEASURE = 8_000.0


def make_pool(capacity=8, soft=False, name="test.pool"):
    # Mirrors CounterHub.pool: soft pools get an uncapped occupancy
    # counter (their occupancy may overshoot the admission threshold).
    occ = OccupancyCounter(None if soft else capacity)
    return CreditPool(name, occ, capacity=capacity, soft=soft)


def colocated_host(**kwargs):
    """All four domains active: C2M-ReadWrite cores + DMA write + read."""
    host = Host(cascade_lake(), seed=1, **kwargs)
    host.add_stream_cores(2, store_fraction=1.0)
    host.add_raw_dma(RequestKind.WRITE, name="dma_write")
    host.add_raw_dma(RequestKind.READ, name="dma_read")
    return host


class TestCreditPool:
    def test_acquire_release_move_counters_and_occupancy(self):
        pool = make_pool(capacity=4)
        pool.acquire(1.0, 2)
        assert pool.in_use == 2
        assert pool.alloc_count == 2 and pool.free_count == 0
        assert pool.free_credits == 2
        pool.release(3.0, 2)
        assert pool.in_use == 0
        assert pool.free_count == 2

    def test_weighted_moves_count_lines_not_calls(self):
        pool = make_pool(capacity=64)
        pool.acquire(0.0, 16)
        pool.acquire(0.0, 16)
        assert pool.alloc_count == 32
        assert pool.in_use == 32

    def test_has_room_and_can_accept_track_reservations(self):
        pool = make_pool(capacity=4)
        pool.acquire(0.0, 2)
        assert pool.has_room(2)
        assert not pool.has_room(3)
        pool.reserve(2)
        # has_room ignores reservations; can_accept counts them.
        assert pool.has_room(2)
        assert not pool.can_accept(1)
        pool.commit(1.0, 2)
        assert pool.reserved == 0
        assert pool.in_use == 4
        assert not pool.has_room(1)

    def test_commit_counts_alloc_reserve_does_not(self):
        pool = make_pool(capacity=4)
        pool.reserve(3)
        assert pool.alloc_count == 0
        pool.commit(0.5, 3)
        assert pool.alloc_count == 3

    def test_release_held_accumulates_domain_latency(self):
        pool = make_pool(capacity=8)
        pool.acquire(10.0, 4)
        pool.release_held(110.0, 10.0, 4)
        # 4 lines each held 100 ns -> lines-weighted mean is 100.
        assert pool.latency.count == 4
        assert pool.latency.average == pytest.approx(100.0)
        assert pool.in_use == 0 and pool.free_count == 4

    def test_occupancy_integral_time_weighted(self):
        pool = make_pool(capacity=8)
        pool.acquire(0.0, 4)  # 4 held over [0, 10)
        pool.release(10.0, 2)  # 2 held over [10, 20)
        assert pool.average(20.0) == pytest.approx(3.0)

    def test_soft_pool_admission_vs_occupancy(self):
        pool = make_pool(capacity=2, soft=True)
        pool.acquire(0.0, 5)  # overshoot is legal (DDIO writebacks)
        assert pool.in_use == 5
        assert not pool.has_room(1)  # but admission is still gated

    def test_unbounded_pool(self):
        pool = CreditPool("unbounded", OccupancyCounter())
        assert pool.capacity is None
        assert pool.has_room(10**9)
        assert pool.can_accept(10**9)
        assert pool.free_credits == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            make_pool(capacity=0)


class TestWaiters:
    """FIFO one-shot waiter semantics (the IIO broadcast replacement)."""

    def test_fired_in_registration_order_exactly_once(self):
        pool = make_pool(capacity=2)
        pool.acquire(0.0, 2)
        fired = []
        for i in range(4):
            pool.add_waiter(lambda i=i: fired.append(i))
        pool.release(1.0, 1)
        assert fired == [0, 1, 2, 3]
        assert pool.waiter_count == 0
        pool.acquire(2.0, 1)
        pool.release(3.0, 1)  # nobody registered: no re-fire
        assert fired == [0, 1, 2, 3]

    def test_reregistration_from_callback_waits_for_next_release(self):
        pool = make_pool(capacity=1)
        pool.acquire(0.0, 1)
        fires = []

        def still_blocked():
            fires.append(len(fires))
            pool.add_waiter(still_blocked)

        pool.add_waiter(still_blocked)
        pool.release(1.0, 1)
        # One fire per release — the re-registration must not be
        # drained by the release that triggered it.
        assert fires == [0]
        assert pool.waiter_count == 1
        pool.acquire(2.0, 1)
        pool.release(3.0, 1)
        assert fires == [0, 1]


class TestInlinedFastPaths:
    """Pin the hand-inlined CreditPool/BankLoadSampler copies to the
    canonical methods.

    The hot paths in ``uncore/cha.py`` (``_deliver_read`` /
    ``_deliver_write``), ``uncore/kernel.py`` (the fused CHA/IIO
    admission chain: stage acquires, IIO alloc/release-held) and
    ``dram/kernel.py`` (``enqueue_read`` / ``enqueue_write`` /
    ``_on_transmit_done_*`` / ``_transmit_read``) inline
    ``CreditPool.acquire``, ``CreditPool.release``,
    ``CreditPool.release_held``, ``CreditPool.commit`` and
    ``BankLoadSampler.record`` statement-for-statement. These tests
    replay the *exact inlined statement sequences* next to the
    canonical method calls and assert identical observable state — so
    any future change to the canonical semantics (say, ``release``
    growing latency recording the way ``release_held`` has it) fails
    here and points at the inline sites that must be updated in
    lockstep.
    """

    @staticmethod
    def _pool_state(pool):
        return (
            pool.occ.value,
            pool.occ.average(99.0),
            pool.free_count,
            pool.alloc_count,
            pool.reserved,
            pool.waiter_count,
        )

    def test_inlined_release_matches_canonical(self):
        canonical, inlined = make_pool(), make_pool()
        fired = []
        for tag, pool in (("canonical", canonical), ("inlined", inlined)):
            pool.acquire(0.0, 3)
            pool.add_waiter(lambda tag=tag: fired.append(tag))
        canonical.release(1.0)
        # The inlined recipe, verbatim from cha._deliver_read/_deliver_write
        # and kernel._on_transmit_done_read/_on_transmit_done_write:
        pool = inlined
        pool.free_count += 1
        pool._occ_update(1.0, -1)
        if pool._waiters:
            pool._drain_waiters()
        assert self._pool_state(inlined) == self._pool_state(canonical)
        assert fired == ["canonical", "inlined"]

    def test_inlined_commit_matches_canonical(self):
        canonical, inlined = make_pool(), make_pool()
        for pool in (canonical, inlined):
            pool.reserve(2)
        canonical.commit(1.0)
        # The inlined recipe, verbatim from kernel.enqueue_read/enqueue_write:
        pool = inlined
        pool.reserved -= 1
        pool.alloc_count += 1
        pool._occ_update(1.0, 1)
        assert self._pool_state(inlined) == self._pool_state(canonical)

    def test_inlined_acquire_matches_canonical_soft(self):
        # The inlined recipe, verbatim from the uncore kernel's
        # _admit_read/_admit_write stage acquires (soft pool: occupancy
        # counter is uncapped, so no full-time/capacity branches).
        canonical, inlined = make_pool(soft=True), make_pool(soft=True)
        canonical.acquire(2.0)
        pool = inlined
        pool.alloc_count += 1
        occ = pool.occ
        dt = 2.0 - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = 2.0
        value = occ.value + 1
        occ.value = value
        if value > occ.max_seen:
            occ.max_seen = value
        assert self._pool_state(inlined) == self._pool_state(canonical)
        assert inlined.occ._integral == canonical.occ._integral
        assert inlined.occ.max_seen == canonical.occ.max_seen

    def test_inlined_acquire_matches_canonical_hard(self):
        # The inlined recipe, verbatim from the uncore kernel's
        # iio_alloc (hard pool: full-time tracking + capacity guard).
        canonical, inlined = make_pool(capacity=8), make_pool(capacity=8)
        for pool in (canonical, inlined):
            pool.acquire(0.0, 8)  # sit at capacity so full-time accrues
            pool.release(3.0, 2)
        canonical.acquire(5.0)
        pool = inlined
        pool.alloc_count += 1
        occ = pool.occ
        value = occ.value
        capacity = occ.capacity
        dt = 5.0 - occ._last_t
        if dt > 0:
            occ._integral += value * dt
            if value >= capacity:
                occ._full_time += dt
            occ._last_t = 5.0
        value += 1
        occ.value = value
        if value > capacity:
            raise ValueError(f"occupancy {value} exceeds capacity {capacity}")
        if value > occ.max_seen:
            occ.max_seen = value
        assert self._pool_state(inlined) == self._pool_state(canonical)
        assert inlined.occ._integral == canonical.occ._integral
        assert inlined.occ._full_time == canonical.occ._full_time

    def test_inlined_release_held_matches_canonical(self):
        # The inlined recipe, verbatim from the uncore kernel's
        # iio_release: hold-time stat record, then the release tail
        # (hard pool), waiters after stats.
        canonical, inlined = make_pool(capacity=8), make_pool(capacity=8)
        fired = []
        for tag, pool in (("canonical", canonical), ("inlined", inlined)):
            pool.acquire(0.0, 8)
            pool.add_waiter(lambda tag=tag: fired.append(tag))
        canonical.release_held(6.0, 2.0)
        t_alloc = 2.0
        pool = inlined
        latency = 6.0 - t_alloc
        held = pool.latency
        held.total += latency
        held.count += 1
        if latency > held.max_seen:
            held.max_seen = latency
        pool.free_count += 1
        occ = pool.occ
        value = occ.value
        dt = 6.0 - occ._last_t
        if dt > 0:
            occ._integral += value * dt
            if value >= occ.capacity:
                occ._full_time += dt
            occ._last_t = 6.0
        occ.value = value - 1
        if pool._waiters:
            pool._drain_waiters()
        assert self._pool_state(inlined) == self._pool_state(canonical)
        assert inlined.occ._integral == canonical.occ._integral
        assert inlined.occ._full_time == canonical.occ._full_time
        assert (
            inlined.latency.total,
            inlined.latency.count,
            inlined.latency.max_seen,
        ) == (
            canonical.latency.total,
            canonical.latency.count,
            canonical.latency.max_seen,
        )
        assert fired == ["canonical", "inlined"]

    def test_inlined_sampler_record_matches_canonical(self):
        from repro.telemetry.bankstats import BankLoadSampler

        canonical = BankLoadSampler(n_banks=4, sample_every=3)
        inlined = BankLoadSampler(n_banks=4, sample_every=3)
        samp_counts = inlined.counts  # kernel holds a direct reference
        samp_every = inlined.sample_every
        for b in (0, 0, 1, 2, 2, 2, 3):
            canonical.record(b)
            # The inlined recipe, verbatim from kernel._transmit_read:
            sampler = inlined
            samp_counts[b] += 1
            seen = sampler.seen + 1
            if seen >= samp_every:
                sampler._flush()
            else:
                sampler.seen = seen
        assert inlined.counts == canonical.counts
        assert inlined.seen == canonical.seen
        assert inlined.deviations == canonical.deviations


class TestConservation:
    """Conservation must hold line-for-line across all four pool
    families, with runtime validation on and the request free-list
    pool disabled."""

    def test_all_pools_conserve(self, monkeypatch):
        monkeypatch.setattr(records, "_POOL", [])
        monkeypatch.setattr(records, "_POOL_ENABLED", False)
        host = colocated_host(validate=True)  # REPRO_VALIDATE=1
        result = host.run(WARMUP, MEASURE)
        assert result.invariant_checks > 0

        pools = host.domains.pools()
        families = {pool.name.split(".")[0] for pool in pools}
        # LFB (cores), IIO buffers, CHA stages, memory-controller queues.
        assert {"core0", "iio", "cha", "mc"} <= families
        for pool in pools:
            drift = pool.alloc_count - pool.free_count
            assert drift == pool.in_use, (
                f"{pool.name}: allocs({pool.alloc_count}) - "
                f"frees({pool.free_count}) != occupancy({pool.in_use})"
            )
            assert pool.reserved >= 0
            if pool.capacity is not None and not pool.soft:
                assert 0 <= pool.in_use <= pool.capacity


class TestDomainSnapshots:
    @pytest.fixture(scope="class")
    def result(self):
        return colocated_host(validate=True).run(WARMUP, MEASURE)

    def test_all_four_domains_snapshotted(self, result):
        assert set(result.domain_snapshots) == {
            "c2m_read",
            "c2m_write",
            "p2m_read",
            "p2m_write",
        }

    def test_bound_holds_live(self, result):
        """Every measured domain satisfies T <= C * 64 / L within the
        validator tolerance (the §4.1 bound, checked on live data)."""
        for snapshot in result.domain_snapshots.values():
            if snapshot.completions == 0:
                continue
            assert snapshot.bound_utilization <= 1.0 + DEFAULT_TOLERANCE, (
                f"{snapshot.kind}: T*L/(C*64) = {snapshot.bound_utilization}"
            )
            assert (
                snapshot.throughput_bytes_per_ns
                <= snapshot.bound_bytes_per_ns * (1.0 + DEFAULT_TOLERANCE)
            )

    def test_throughput_is_completions_over_window(self, result):
        elapsed = MEASURE
        for snapshot in result.domain_snapshots.values():
            assert snapshot.throughput_bytes_per_ns == pytest.approx(
                snapshot.completions * CACHELINE_BYTES / elapsed
            )

    def test_occupancy_within_credits(self, result):
        for snapshot in result.domain_snapshots.values():
            # The integral accumulates float dt terms, so a fully
            # saturated pool can land an ulp above its capacity.
            assert 0.0 <= snapshot.credits_in_use
            assert snapshot.credits_in_use <= snapshot.credits * (1 + 1e-9)

    def test_lfb_shared_between_c2m_domains(self, result):
        """One LFB pool backs both C2M domains, so they report the
        same credits and the same (shared) alloc/free counts."""
        read = result.domain_snapshots["c2m_read"]
        write = result.domain_snapshots["c2m_write"]
        assert read.credits == write.credits
        assert (read.allocs, read.frees) == (write.allocs, write.frees)

    def test_run_result_domains_builds_domain_objects(self, result):
        domains = result.domains()
        assert "c2m_read" in domains
        for kind_value, domain in domains.items():
            snapshot = result.domain_snapshots[kind_value]
            assert domain.kind is DomainKind(kind_value)
            assert domain.credits == snapshot.credits
            assert domain.latency == snapshot.latency_ns
        single = result.domain("p2m_write")
        assert single is result.domain_snapshots["p2m_write"]


class TestDomainFromSnapshot:
    def snapshot(self, **overrides):
        values = dict(
            kind="p2m_write",
            credits=92.0,
            credits_in_use=60.0,
            occupancy_now=58,
            allocs=1000,
            frees=990,
            latency_ns=400.0,
            completions=990,
            throughput_bytes_per_ns=9.0,
        )
        values.update(overrides)
        return DomainSnapshot(**values)

    def test_maps_measured_fields(self):
        domain = Domain.from_snapshot(self.snapshot(), unloaded_latency_ns=300.0)
        assert domain.kind is DomainKind.P2M_WRITE
        assert domain.credits == 92.0
        assert domain.credits_in_use == 60.0
        assert domain.latency == 400.0  # loaded = measured
        assert domain.unloaded_latency_ns == 300.0
        assert domain.latency_inflation == pytest.approx(400.0 / 300.0)

    def test_unloaded_defaults_to_measured(self):
        domain = Domain.from_snapshot(self.snapshot())
        assert domain.unloaded_latency_ns == 400.0
        assert domain.latency_inflation == pytest.approx(1.0)

    def test_rejects_unmeasured_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Domain.from_snapshot(self.snapshot(latency_ns=0.0))

    def test_saturation_threshold_parameterized(self):
        snapshot = self.snapshot(credits_in_use=80.0)  # 87% of 92
        default = Domain.from_snapshot(snapshot)
        assert not default.credits_saturated  # 0.95 threshold
        strict = Domain.from_snapshot(snapshot, saturation_threshold=0.80)
        assert strict.credits_saturated

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2])
    def test_rejects_bad_threshold(self, bad):
        with pytest.raises(ValueError, match="saturation threshold"):
            Domain.from_snapshot(self.snapshot(), saturation_threshold=bad)


class TestModelFromSnapshots:
    def test_snapshot_credits_match_config_for_homogeneous_cores(self):
        """domain_credits(result, 'c2m_read') is the live sum of LFB
        capacities — for homogeneous cores exactly the model's
        ``n_cores * effective_lfb_size``, so the estimator fed from
        snapshots reproduces the config-fed estimate (and its error
        bound) bit-for-bit."""
        n_cores = 2
        config = cascade_lake()
        host = Host(config, seed=1)
        host.add_stream_cores(1, store_fraction=0.0)
        c_read = calibrate_read_constant(
            host.run(10_000.0, 30_000.0), config.dram_timing
        )
        host = Host(config, seed=1)
        host.add_stream_cores(n_cores, store_fraction=0.0)
        host.add_raw_dma(RequestKind.WRITE)
        run = host.run(10_000.0, 30_000.0)

        live = domain_credits(run, "c2m_read")
        assert live == n_cores * config.effective_lfb_size

        from_config = estimate_c2m_throughput(run, c_read, n_cores)
        from_snapshot = estimate_c2m_throughput(
            run, c_read, n_cores, credits=live
        )
        assert from_snapshot.estimated == from_config.estimated
        assert abs(from_snapshot.error) <= abs(from_config.error) + 1e-12

    def test_domain_credits_missing_kind_is_none(self):
        host = Host(cascade_lake(), seed=1)
        host.add_stream_cores(1, store_fraction=0.0)
        run = host.run(WARMUP, MEASURE)
        assert domain_credits(run, "p2m_write") is None or (
            domain_credits(run, "p2m_write") > 0
        )
        assert domain_credits(run, "no_such_domain") is None


class TestFig03Fingerprint:
    def test_bit_identical_to_committed_baseline(self):
        """The refactor contract: fig03 RunResults are float-identical
        to the committed pre-refactor fingerprint."""
        assert assert_fig03_matches(str(FINGERPRINT)) == 9
