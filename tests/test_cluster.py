"""Cluster coupling tests: the shared-clock composition contract.

The load-bearing guarantee is differential: a 1-host cluster running a
fig03 workload must be **bit-identical** to the bare-host run, so the
multi-host refactor (engine injection, counter namespacing, extracted
measurement windows) provably changed nothing for every existing
experiment. On top of that, the 2-host tests pin the new physics: PFC
pauses and ECN marks must originate in modelled switch queues.
"""

import pytest

from repro import Cluster, Host, cascade_lake
from repro.experiments.quadrants import RawDmaP2MBuilder, StreamC2MBuilder
from repro.net.dctcp import add_dctcp_flow
from repro.net.rdma import add_rdma_write_flow
from repro.sim.checkpoint import CheckpointError
from repro.sim.records import RequestKind
from repro.validate.harness import (
    FIG03_FINGERPRINT_WINDOWS,
    assert_results_identical,
)

WARMUP, MEASURE = FIG03_FINGERPRINT_WINDOWS


def build_fig03_workload(host: Host) -> None:
    """The fig03 q1.n1 colocated workload (C2M-Read + DMA writes)."""
    StreamC2MBuilder(store_fraction=0.0)(host, 1)
    RawDmaP2MBuilder(RequestKind.WRITE)(host)


class TestOneHostDifferential:
    def test_fig03_point_bit_identical_to_bare_host(self):
        bare_host = Host(cascade_lake(), seed=1)
        build_fig03_workload(bare_host)
        bare = bare_host.run(WARMUP, MEASURE)

        cluster = Cluster(cascade_lake(), n_hosts=1, seed=1)
        build_fig03_workload(cluster.hosts[0])
        clustered = cluster.run(WARMUP, MEASURE)

        assert_results_identical(
            bare, clustered.host(0), context="bare vs 1-host cluster"
        )
        assert clustered.fabric_checks == 0  # no flows, no ports
        assert clustered.elapsed_ns == pytest.approx(MEASURE)

    def test_shared_engine_and_namespaces(self):
        cluster = Cluster(cascade_lake(), n_hosts=2)
        h0, h1 = cluster.hosts
        assert h0.sim is h1.sim is cluster.sim
        assert h0.hub is not h1.hub
        assert h0.hub.scoped("iio.wr") == "h0.iio.wr"
        assert h1.hub.scoped("iio.wr") == "h1.iio.wr"
        assert h0.hub.local("h0.iio.wr") == "iio.wr"
        # A bare host keeps the historical (unprefixed) names.
        assert Host(cascade_lake()).hub.scoped("iio.wr") == "iio.wr"

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError):
            Cluster(cascade_lake(), n_hosts=0)


class TestRdmaCoupling:
    def test_two_host_flow_reaches_line_rate(self):
        cluster = Cluster(cascade_lake(), n_hosts=2)
        add_rdma_write_flow(cluster, src=1, dst=0, rate_gbps=98.0)
        result = cluster.run(warmup_ns=10_000.0, measure_ns=30_000.0)
        goodput = result.flow_goodput[0]
        assert 11.0 < goodput <= 12.5  # ~98 Gb/s in bytes/ns
        # Receive side: DMA writes into host 0's memory.
        assert result.host(0).class_bandwidth("p2m") > 10.0
        # Transmit side: the tx NIC DMA-reads the payload on host 1 —
        # the sender-side host network the single-host model omitted.
        assert result.host(1).class_bandwidth("p2m") > 10.0
        assert result.fabric.lines_dropped == 0
        assert result.fabric_checks >= 1

    def test_incast_pfc_originates_in_switch_queue(self):
        cluster = Cluster(
            cascade_lake(),
            n_hosts=3,
            n_leaves=1,
            queue_capacity_lines=512,
            pfc_enabled=True,
        )
        for src in (1, 2):
            add_rdma_write_flow(cluster, src=src, dst=0, rate_gbps=98.0)
        result = cluster.run(warmup_ns=10_000.0, measure_ns=30_000.0)
        # 2 x 98 Gb/s offered into one 100 Gb/s edge link: the switch
        # queue (not the hosts) is the bottleneck. PFC keeps it
        # lossless and pauses both senders to their fair share.
        assert result.fabric.lines_dropped == 0
        edge = result.fabric.ports["leaf0.down.h0"]
        assert edge.pause_fraction > 0.1
        now = cluster.sim.now
        for sender in cluster.fabric.senders:
            assert sender.pause_fraction(now) > 0.1
        a, b = result.flow_goodput
        assert abs(a - b) / max(a, b) < 0.1  # fair sharing
        assert sum(result.flow_goodput) <= 12.5 + 0.5
        assert result.fabric_checks == 1  # same-leaf: edge port only


class TestDctcpCoupling:
    def test_ecn_marks_originate_in_switch_queue(self):
        cluster = Cluster(
            cascade_lake(),
            n_hosts=3,
            n_leaves=1,
            ecn_threshold_lines=64,
            pfc_enabled=False,
        )
        receivers = [
            add_dctcp_flow(cluster, src=src, dst=0) for src in (1, 2)
        ]
        # Short warmup: both senders still pace near line rate when the
        # window opens, so the shared queue's congestion transient (and
        # its CE marks) lands inside the measurement.
        result = cluster.run(warmup_ns=5_000.0, measure_ns=40_000.0)
        # Two 100 Gb/s flows share the edge queue: it congests past the
        # ECN threshold, CE marks arrive at the receivers, and each
        # control loop cuts its *remote* sender below line rate.
        assert result.fabric.lines_marked > 0
        for receiver in receivers:
            assert receiver.mark_fraction() > 0.0
            assert receiver.rate < receiver.max_rate
            assert receiver.sender is not None
            assert receiver.sender.rate == receiver.rate
        assert result.fabric.lines_dropped == 0
        goodputs = [r.goodput(result.elapsed_ns) for r in receivers]
        assert all(g > 2.0 for g in goodputs)
        assert sum(goodputs) <= 12.5 + 0.5


class TestClusterCheckpoint:
    def test_roundtrip_resumes_mid_run(self, tmp_path):
        cluster = Cluster(cascade_lake(), n_hosts=2)
        add_rdma_write_flow(cluster, src=1, dst=0)
        cluster.start()
        cluster.sim.run_until(5_000.0)
        path = tmp_path / "rack.ckpt"
        cluster.save(path)

        restored = Cluster.restore(path)
        assert restored.sim.now == pytest.approx(5_000.0)
        assert restored.n_hosts == 2
        result = restored.run(warmup_ns=5_000.0, measure_ns=20_000.0)
        assert result.flow_goodput[0] > 10.0
        assert result.fabric.lines_dropped == 0

    def test_knob_gate_refuses_mismatch(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DDIO", raising=False)
        cluster = Cluster(cascade_lake(), n_hosts=2)
        path = tmp_path / "rack.ckpt"
        cluster.save(path)
        monkeypatch.setenv("REPRO_DDIO", "1")
        with pytest.raises(CheckpointError, match="knobs changed"):
            Cluster.restore(path)

    def test_rejects_non_cluster_blob(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            Cluster.restore(path)


class TestFlowWiring:
    def test_add_flow_rejects_non_nic_device(self):
        cluster = Cluster(cascade_lake(), n_hosts=2)
        cluster.hosts[0].add_raw_dma(RequestKind.WRITE, name="dma")
        with pytest.raises(ValueError, match="not a NIC"):
            cluster.add_flow(1, 0, 98.0, nic_name="dma")

    def test_flows_to_one_host_share_the_receive_nic(self):
        cluster = Cluster(cascade_lake(), n_hosts=3)
        first = cluster.add_flow(1, 0, 50.0)
        second = cluster.add_flow(2, 0, 50.0)
        assert first.nic is second.nic  # incast: shared buffer + edge

    def test_flow_added_after_start_begins_pacing(self):
        cluster = Cluster(cascade_lake(), n_hosts=2)
        cluster.start()
        flow = cluster.add_flow(1, 0, 98.0)
        cluster.sim.run_until(2_000.0)
        assert flow.sender.total_sent > 0
