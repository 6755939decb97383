"""SoA uncore-kernel tests: knob parsing, hot-path rebinding, the
host-level reference-vs-kernel differential matrix and the kernel's
introspection hooks.

The kernel (``repro.uncore.kernel``) claims to be an *exact*
reimplementation of the CHA/IIO object-at-a-time path, so the
differential tests demand bit-identical RunResults — every latency
accumulator, occupancy integral, domain snapshot and throughput equal
with ``==`` — across the REPRO_DDIO x REPRO_VALIDATE matrix, plus checkpoint-interrupt resume with the kernel on.
"""

import itertools

import pytest

from repro.sim.records import RequestKind
from repro.topology.host import Host
from repro.topology.presets import cascade_lake
from repro.uncore.kernel import UncoreKernel, uncore_enabled
from repro.validate.harness import (
    _environment,
    assert_results_identical,
    result_fingerprint,
    resume_differential,
)

WARMUP = 1_500.0
MEASURE = 4_500.0


def build_host(store_fraction=0.5):
    """All four domains active: stream cores + DMA write + DMA read."""
    host = Host(cascade_lake(), seed=3)
    host.add_stream_cores(2, store_fraction=store_fraction)
    host.add_raw_dma(RequestKind.WRITE, name="dma_write")
    host.add_raw_dma(RequestKind.READ, name="dma_read")
    return host


def run_point(uncore, ddio=None, validate=None):
    with _environment(
        REPRO_UNCORE=uncore,
        REPRO_DDIO=ddio,
        REPRO_VALIDATE=validate,
    ):
        return build_host().run(WARMUP, MEASURE)


class TestUncoreKnob:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_UNCORE", raising=False)
        assert uncore_enabled() is True

    @pytest.mark.parametrize("raw", ["on", "1", "yes", "true", ""])
    def test_enabled_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_UNCORE", raw)
        assert uncore_enabled() is True

    @pytest.mark.parametrize("raw", ["off", "0", "no", "false", " OFF "])
    def test_disabled_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_UNCORE", raw)
        assert uncore_enabled() is False

    def test_invalid_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_UNCORE", "sometimes")
        with pytest.raises(ValueError, match="REPRO_UNCORE"):
            uncore_enabled()

    def test_host_binds_kernel_methods(self):
        with _environment(REPRO_UNCORE="on"):
            host = build_host()
        kernel = host.uncore_kernel
        assert kernel is not None and host.cha.kernel is kernel
        assert host.cha.request_admission == kernel.request_admission
        assert host.cha._pump_ingress == kernel._pump_ingress
        assert host.iio.alloc == kernel.iio_alloc
        assert host.iio.release == kernel.iio_release
        # Late wiring picked up the rebound entry point.
        assert host.iio.cha_admission == kernel.request_admission
        for channel in host.mc.channels:
            assert channel.on_rpq_space == kernel._on_rpq_space
            assert channel.on_wpq_space == kernel._on_wpq_space

    def test_off_retains_reference_path(self):
        with _environment(REPRO_UNCORE="off"):
            host = build_host()
        assert host.uncore_kernel is None
        assert host.cha.kernel is None
        # No instance-dict shadowing: the class methods run.
        assert "request_admission" not in vars(host.cha)
        assert "alloc" not in vars(host.iio)


class TestDifferential:
    """The reference path and the kernel must agree bit-exactly."""

    @pytest.mark.parametrize(
        "ddio,validate",
        list(itertools.product((None, "1"), (None, "1"))),
    )
    def test_reference_vs_kernel_matrix(self, ddio, validate):
        ref = run_point("off", ddio=ddio, validate=validate)
        ker = run_point("on", ddio=ddio, validate=validate)
        context = f"ddio={ddio} validate={validate}"
        assert_results_identical(ref, ker, context=context)
        assert result_fingerprint(ref) == result_fingerprint(ker)

    @pytest.mark.parametrize("store_fraction", [0.0, 1.0])
    def test_reference_vs_kernel_store_mix(self, store_fraction):
        def point(uncore):
            with _environment(REPRO_UNCORE=uncore, REPRO_DDIO=None,
                              REPRO_VALIDATE=None):
                return build_host(store_fraction).run(WARMUP, MEASURE)

        assert_results_identical(
            point("off"), point("on"),
            context=f"store_fraction={store_fraction}",
        )

    def test_checkpoint_interrupt_resume(self):
        """Kill-and-resume with the kernel on must be bit-identical to
        straight-through, and both to the reference path (the kernel
        arrays ride inside the host pickle)."""
        with _environment(REPRO_UNCORE="on", REPRO_DDIO=None,
                          REPRO_VALIDATE=None, REPRO_CKPT=None):
            baseline, fingerprints = resume_differential(
                build_host, WARMUP, MEASURE,
                at_events=(2_000, 15_000),
                context="uncore kernel",
            )
        assert len(fingerprints) == 2
        ref = run_point("off")
        assert_results_identical(
            ref, baseline, context="reference vs checkpointed kernel"
        )


class TestKernelIntrospection:
    def _running_host(self):
        with _environment(REPRO_UNCORE="on", REPRO_DDIO=None,
                          REPRO_VALIDATE=None):
            host = build_host()
            return host, host.uncore_kernel

    def test_consistency_mid_flight(self):
        """verify_consistency must hold at arbitrary instants while
        traffic is in flight, not only at quiescence."""
        host, kernel = self._running_host()
        checked = []
        for t in (400.0, 1_300.0, 2_700.0, 5_100.0):
            host.sim.schedule_at(
                t, lambda: checked.append(kernel.verify_consistency())
            )
        host.run(WARMUP, MEASURE)
        checked.append(kernel.verify_consistency())
        assert len(checked) == 5 and all(n >= 11 for n in checked)

    def test_occ_pulse_inline_matches_reference(self):
        """The fast-path ingress occupancy pulse (+n then -n at one
        instant) must leave the counter exactly as two canonical
        update calls would."""
        from repro.telemetry.counters import OccupancyCounter

        canonical, inlined = OccupancyCounter(), OccupancyCounter()
        for occ in (canonical, inlined):
            occ.update(0.0, 2)
        canonical.update(5.0, 3)
        canonical.update(5.0, -3)
        # The inlined recipe, verbatim from kernel.request_admission:
        now, lines = 5.0, 3
        occ = inlined
        dt = now - occ._last_t
        if dt > 0:
            occ._integral += occ.value * dt
            occ._last_t = now
        value = occ.value + lines
        if value > occ.max_seen:
            occ.max_seen = value
        assert (
            inlined.value, inlined.max_seen,
            inlined._integral, inlined._last_t,
        ) == (
            canonical.value, canonical.max_seen,
            canonical._integral, canonical._last_t,
        )

    def test_sync_stats_is_idempotent(self):
        host, kernel = self._running_host()
        host.run(WARMUP, MEASURE)
        kernel.sync_stats()
        snapshot = {
            name: (stat.total, stat.count, stat.max_seen)
            for name, stat in host.cha._admission_delay.items()
        }
        completions = {
            name: counter.count
            for name, counter in host.cha._completion_rates.items()
        }
        kernel.sync_stats()
        assert snapshot == {
            name: (stat.total, stat.count, stat.max_seen)
            for name, stat in host.cha._admission_delay.items()
        }
        assert completions == {
            name: counter.count
            for name, counter in host.cha._completion_rates.items()
        }
        assert snapshot  # traffic actually flowed

    def test_interning_stable_across_windows(self):
        host, kernel = self._running_host()
        host.run(WARMUP, MEASURE)
        ids_before = dict(kernel.cls_ids)
        assert ids_before
        host.reset_measurement()
        assert kernel.cls_ids == ids_before  # interning survives windows
        assert all(count == 0 for count in kernel.adm_count)
        assert all(count == 0 for count in kernel.comp_lines)

    def test_manual_construction_rebinds(self):
        """UncoreKernel attaches to an existing CHA/IIO pair (the host
        path, but also direct harnesses like tests/test_cha_hol.py)."""
        with _environment(REPRO_UNCORE="off"):
            host = build_host()
        assert host.cha.kernel is None
        kernel = UncoreKernel(host.cha, host.iio)
        assert host.cha.kernel is kernel
        assert host.cha.request_admission == kernel.request_admission
