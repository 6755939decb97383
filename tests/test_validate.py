"""Runtime invariant checking (REPRO_VALIDATE): probes, engine checks,
differential parity, and violation reporting."""

import dataclasses
import functools
import heapq
import math
import random

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.sim.engine import Alarm, Simulator
from repro.validate import (
    InvariantViolation,
    ValidatingSimulator,
    Validator,
    dispatch_equivalence_selftest,
    enabled,
    tolerance,
    verify_heap,
)
from repro.validate.harness import (
    assert_results_identical,
    differential_point,
    result_payload,
)

WARMUP = 1_000.0
MEASURE = 3_000.0


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE_TOL", raising=False)


def _small_host(validate=None):
    host = Host(cascade_lake(), validate=validate)
    host.add_stream_cores(2, store_fraction=0.0)
    host.add_raw_dma(RequestKind.WRITE, name="dma")
    return host


class TestEnableKnobs:
    def test_off_by_default(self):
        assert not enabled()
        result = _small_host().run(WARMUP, MEASURE)
        assert result.invariant_checks == 0

    @pytest.mark.parametrize("value", ["1", "on", "yes", "true", "TRUE"])
    def test_env_values_enable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no", "false"])
    def test_env_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not enabled()

    def test_env_knob_builds_validating_host(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        host = _small_host()
        assert isinstance(host.sim, ValidatingSimulator)
        assert host.run(WARMUP, MEASURE).invariant_checks > 0

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        host = _small_host(validate=False)
        assert not isinstance(host.sim, ValidatingSimulator)
        assert host.run(WARMUP, MEASURE).invariant_checks == 0

    def test_tolerance_default(self):
        assert tolerance() == 0.25

    def test_tolerance_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_TOL", "0.5")
        assert tolerance() == 0.5

    @pytest.mark.parametrize("bad", ["zero", "-0.1", "0"])
    def test_tolerance_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_VALIDATE_TOL", bad)
        with pytest.raises(ValueError, match="REPRO_VALIDATE_TOL"):
            tolerance()


class TestValidatedRuns:
    def test_validated_run_passes_checks(self):
        result = _small_host(validate=True).run(WARMUP, MEASURE)
        assert result.invariant_checks > 0

    def test_validated_run_is_float_identical(self):
        """Validation observes; it must never perturb the simulation."""
        validated = _small_host(validate=True).run(WARMUP, MEASURE)
        plain = _small_host(validate=False).run(WARMUP, MEASURE)
        assert_results_identical(validated, plain, "validated vs plain")
        assert validated.events_processed == plain.events_processed

    def test_store_heavy_quadrant_validates(self):
        host = Host(cascade_lake(), validate=True)
        host.add_stream_cores(2, store_fraction=1.0)
        host.add_raw_dma(RequestKind.WRITE, name="dma")
        assert host.run(WARMUP, MEASURE).invariant_checks > 0

    def test_p2m_read_workload_validates(self):
        host = Host(cascade_lake(), validate=True)
        host.add_nvme(kind=RequestKind.READ)
        assert host.run(WARMUP, MEASURE).invariant_checks > 0


class TestSeededCorruption:
    """Tampered state must surface as a structured violation."""

    def _run_validated(self):
        host = _small_host(validate=True)
        host.run(WARMUP, MEASURE)
        return host

    def test_queue_count_tamper_detected(self):
        host = self._run_validated()
        host.mc.channels[0].rpq_pool.occ.value += 1
        with pytest.raises(InvariantViolation) as excinfo:
            host._validator.end_window(host)
        assert "mc.ch0" in str(excinfo.value)

    def test_second_in_flight_transmit_detected(self):
        """The channel serializes transmissions, so at most one request
        may have left its bank FIFO while still holding a queue slot."""
        host = self._run_validated()
        channel = host.mc.channels[0]
        reads, writes = channel.queued_in_banks()
        in_flight = channel.rpq_count - reads + channel.wpq_count - writes
        assert in_flight in (0, 1)
        channel.rpq_pool.occ.value += 2 - in_flight
        with pytest.raises(InvariantViolation, match="bank-fifo-accounting"):
            host._validator.check_channels(host)

    def test_credit_leak_detected(self):
        host = self._run_validated()
        host.cores[0].lfb.alloc_count += 1  # phantom acquisition
        with pytest.raises(InvariantViolation, match="credit-conservation"):
            host._validator.end_window(host)

    def test_cha_counter_tamper_detected(self):
        host = self._run_validated()
        host.cha.ingress_occ.value += 1
        with pytest.raises(InvariantViolation, match="cha.ingress"):
            host._validator.end_window(host)

    def test_littles_law_disagreement_detected(self):
        checker = Validator(tolerance=0.25, min_samples=1)
        with pytest.raises(InvariantViolation, match="littles-law"):
            # Occupancy says L = 50/10 = 5 ns; timestamps say 1 ns.
            checker._check_littles_law_pool(
                "pool", 50.0, 100.0, 1000, 1.0, 100.0
            )

    def test_throughput_bound_violation_detected(self):
        checker = Validator(tolerance=0.25, min_samples=1)
        with pytest.raises(InvariantViolation, match="throughput-bound"):
            # R * L = 10 credits in flight against a capacity of 5.
            checker._check_littles_law_pool(
                "pool", 10.0, 5.0, 1000, 1.0, 100.0
            )

    def test_statistical_checks_skip_thin_samples(self):
        checker = Validator(tolerance=0.25, min_samples=200)
        checker._check_littles_law_pool("pool", 50.0, 100.0, 10, 1.0, 100.0)
        assert checker.checks_passed == 0


class TestValidatingSimulator:
    def test_matches_base_simulator_exactly(self):
        delays = [5.0, 1.0, 1.0, 3.0, 0.0, 9.0, 3.0]
        base, checking = Simulator(), ValidatingSimulator()
        base_order, checking_order = [], []
        for i, d in enumerate(delays):
            base.schedule(d, base_order.append, i)
            checking.schedule(d, checking_order.append, i)
        base.run_until(100.0)
        checking.run_until(100.0)
        assert base_order == checking_order
        assert base.events_processed == checking.events_processed
        assert base.now == checking.now

    def test_run_until_backwards_raises(self):
        sim = ValidatingSimulator()
        sim.run_until(10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_malformed_heap_entry_detected(self):
        sim = ValidatingSimulator()
        sim._buckets[1.0] = ("not-callable", ())
        heapq.heappush(sim._heap, 1.0)
        with pytest.raises(InvariantViolation, match="heap-entry-shape"):
            sim.run_until(10.0)

    def test_time_travelling_entry_detected(self):
        sim = ValidatingSimulator()
        sim.run_until(10.0)
        # t < now, bypassing schedule()
        sim._buckets[1.0] = (print, ())
        sim._heap.append(1.0)
        with pytest.raises(InvariantViolation, match="clock-monotonicity"):
            sim.run(max_events=10)

    def test_desynchronised_bucket_detected(self):
        sim = ValidatingSimulator()
        heapq.heappush(sim._heap, 1.0)  # pending instant with no bucket
        with pytest.raises(InvariantViolation, match="heap-bucket-sync"):
            sim.run_until(10.0)
        sim = ValidatingSimulator()
        sim.schedule(1.0, lambda: None)
        sim._heap.clear()  # bucket with no pending instant
        with pytest.raises(InvariantViolation, match="heap-bucket-sync"):
            verify_heap(sim)

    def test_run_drains_cancelled_residue_at_max_events(self):
        sim = ValidatingSimulator()
        fired = []
        for i in range(3):
            sim.schedule(float(i + 1), fired.append, i)
        sim.schedule_cancellable(50.0, fired.append, "never").cancel()
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_verify_heap_counts_entries(self):
        sim = ValidatingSimulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.verify_heap() == 5

    def test_verify_heap_detects_corruption(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), lambda: None)
        # Break the heap property behind heapq's back.
        sim._heap[0], sim._heap[-1] = sim._heap[-1], sim._heap[0]
        with pytest.raises(InvariantViolation, match="heap-order"):
            verify_heap(sim)

    def test_dispatch_equivalence_selftest_passes(self):
        dispatch_equivalence_selftest()

    @staticmethod
    def _drive_mixed(sim):
        """Randomized workload over every dispatch path: rescheduling
        callbacks, cancellations, ``schedule_many`` trains, lone
        :class:`Alarm` firings re-armed earlier, equal and later,
        budgeted drains that stop mid-bucket, and ``run_until``
        windows."""
        rng = random.Random(11)
        order = []
        handles = []
        alarms = []

        def ring(k):
            order.append((sim.now, "alarm", k))
            if rng.random() < 0.5:
                alarms[k].arm(sim.now + rng.choice([0.37, 1.1, 7.7, 77.0]))

        def rearm():
            # Odd offsets keep most firings alone in their bucket; a
            # negative one may land before ``now`` (filed at ``now``).
            alarm = rng.choice(alarms)
            base = alarm.time if alarm.time < math.inf else sim.now + 3.1
            alarm.arm(base + rng.choice([-2.9, -0.45, 0.0, 0.0, 4.3]))

        def cb(i):
            order.append((sim.now, i))
            if rng.random() < 0.3:
                sim.schedule(
                    rng.choice([0.0, 0.63, 15.0, 33.0, 1500.0]), cb, 10_000 + i
                )
            if rng.random() < 0.1 and handles:
                handles.pop(rng.randrange(len(handles))).cancel()
            if rng.random() < 0.25:
                rearm()

        for k in range(4):
            alarms.append(Alarm(sim, functools.partial(ring, k)))
            alarms[k].arm(rng.choice([0.37, 2.9, 41.3, 333.3]))
        for i in range(400):
            d = rng.choice([0.0, 0.2, 0.63, 1.0, 10.0, 33.0, 250.0, 5000.0])
            if i % 7 == 0:
                handles.append(sim.schedule_cancellable(d, cb, i))
            elif i % 11 == 0:
                sim.schedule_many(d, cb, [(i,), (i + 1,), (i + 2,)])
            else:
                sim.schedule(d, cb, i)
        # Small budgets keep expiring mid-bucket (the t=0 bucket alone
        # holds ~50 entries) while callbacks file onto the same instant.
        while sim._drain_limited(40.0, rng.randrange(1, 16)):
            pass
        sim.run_until(40.0)
        sim._drain_limited(200.0, 97)
        sim.run_until(600.0)
        sim.run()
        return order, sim.events_processed, sim.now

    def test_randomized_dispatch_matches_base(self):
        """The checked dispatch cores mirror the base ones: dispatch
        order, the processed counter and the clock trajectory must be
        bit-identical on a workload that exercises every path."""
        assert self._drive_mixed(Simulator()) == self._drive_mixed(
            ValidatingSimulator()
        )

    def test_dispatch_identical_with_between_window_filing(self):
        """Randomized differential over interleaved schedule/run_until
        windows: events filed after a window closes, at instants the
        previous window stopped just short of."""

        def drive(sim):
            rng = random.Random(7)
            order = []

            def cb(i):
                order.append((sim.now, i))

            k = 0
            for _ in range(60):
                for _ in range(rng.randrange(4)):
                    d = rng.choice([0.0, 0.4, 3.0, 40.0, 700.0, 3000.0])
                    sim.schedule(d, cb, k)
                    k += 1
                sim.run_until(sim.now + rng.choice([0.3, 2.0, 25.0, 400.0]))
            sim.run()
            return order, sim.events_processed, sim.now

        assert drive(Simulator()) == drive(ValidatingSimulator())


class TestDifferentialHarness:
    def test_differential_point_quadrant(self):
        from repro.experiments.quadrants import QUADRANTS, quadrant_experiment

        modes = differential_point(
            quadrant_experiment(QUADRANTS[1]), 1, WARMUP, MEASURE
        )
        assert set(modes) == {"serial", "parallel", "cached", "validated"}
        assert modes["validated"][0].colocated.invariant_checks > 0
        assert modes["serial"][0].colocated.invariant_checks == 0

    def test_assert_identical_ignores_diagnostics(self):
        result = _small_host(validate=True).run(WARMUP, MEASURE)
        twin = dataclasses.replace(
            result, sim_wall_s=999.0, events_per_sec=1.0, invariant_checks=0
        )
        assert_results_identical(result, twin)

    def test_assert_identical_names_differing_field(self):
        result = _small_host(validate=False).run(WARMUP, MEASURE)
        twin = dataclasses.replace(
            result, events_processed=result.events_processed + 1
        )
        with pytest.raises(AssertionError, match="events_processed"):
            assert_results_identical(result, twin, "twin")

    def test_result_payload_strips_diagnostics(self):
        result = _small_host(validate=False).run(WARMUP, MEASURE)
        payload = result_payload(result)
        assert "sim_wall_s" not in payload
        assert "events_per_sec" not in payload
        assert "invariant_checks" not in payload
        assert "events_processed" in payload


class TestInvariantViolation:
    def test_message_carries_structure(self):
        violation = InvariantViolation(
            "mc.ch0.wpq",
            "occupancy-bounds",
            "WPQ count 99 outside [0, 64]",
            window=(1000.0, 4000.0),
            details={"count": 99},
        )
        text = str(violation)
        assert "[mc.ch0.wpq]" in text
        assert "occupancy-bounds" in text
        assert "1000.0..4000.0" in text
        assert "count=99" in text
        assert violation.component == "mc.ch0.wpq"
        assert violation.identity == "occupancy-bounds"
        assert isinstance(violation, AssertionError)

    def test_validator_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            Validator(tolerance=0.0)
