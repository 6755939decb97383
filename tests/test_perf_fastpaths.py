"""Fast-path guarantees: scheduler lane ordering and the Request
free-list pool."""

import heapq
import random

import pytest

from repro import Host, RequestKind, cascade_lake
from repro.sim import records
from repro.sim.engine import Simulator
from repro.sim.records import (
    RequestSource,
    acquire_request,
    release_request,
)
from repro.validate.harness import assert_results_identical

WARMUP = 1_000.0
MEASURE = 4_000.0


@pytest.fixture(autouse=True)
def clean_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)


def _host():
    host = Host(cascade_lake())
    host.add_stream_cores(2, store_fraction=0.5)
    host.add_raw_dma(RequestKind.WRITE, name="dma")
    return host


class TestFastLaneOrdering:
    """The bucketed FIFO lanes are an optimization of a (time, seq)
    heap, never a semantic fork: a randomized mix of the three
    scheduling APIs must dispatch in exactly the reference order."""

    def test_matches_reference_heap_scheduler(self):
        rng = random.Random(1234)
        sim = Simulator()
        got = []
        ref_heap = []
        seq = 0
        cancelled = set()
        i = 0
        while i < 300:
            delay = rng.choice((0.0, 1.0, 1.0, 2.0, 2.5, 3.0, 7.0))
            roll = rng.random()
            if roll < 0.2:  # a schedule_many train of four members
                members = [i, i + 1, i + 2, i + 3]
                sim.schedule_many(delay, got.append, [(m,) for m in members])
                for m in members:
                    heapq.heappush(ref_heap, (delay, seq, m))
                    seq += 1
                i += 4
            elif roll < 0.4:  # cancellable, sometimes cancelled
                event = sim.schedule_cancellable(delay, got.append, i)
                heapq.heappush(ref_heap, (delay, seq, i))
                seq += 1
                if rng.random() < 0.3:
                    event.cancel()
                    cancelled.add(i)
                i += 1
            else:  # plain fast path
                sim.schedule(delay, got.append, i)
                heapq.heappush(ref_heap, (delay, seq, i))
                seq += 1
                i += 1
        sim.run_until(100.0)
        expected = []
        while ref_heap:
            _, _, member = heapq.heappop(ref_heap)
            if member not in cancelled:
                expected.append(member)
        assert got == expected

    def test_same_timestamp_interleave_across_apis(self):
        """Submission order is the tiebreak at one instant, regardless
        of which API filed each entry."""
        sim = Simulator()
        got = []
        sim.schedule(4.0, got.append, "fast1")
        sim.schedule_many(4.0, got.append, [("train1",), ("train2",)])
        sim.schedule_cancellable(4.0, got.append, "cancellable")
        sim.schedule(4.0, got.append, "fast2")
        sim.run_until(10.0)
        assert got == ["fast1", "train1", "train2", "cancellable", "fast2"]


class TestRequestPool:
    def test_release_then_acquire_recycles_reinitialised(self, monkeypatch):
        monkeypatch.setattr(records, "_POOL", [])
        req = acquire_request(RequestSource.C2M, RequestKind.READ, 0x40)
        req.t_alloc = 5.0
        req.t_free = 9.0
        req.channel_id = 3
        req.queue_seq = 4
        req.tag = object()
        req.on_complete = print
        release_request(req)
        again = acquire_request(
            RequestSource.P2M, RequestKind.WRITE, 0x80, traffic_class="p2m"
        )
        assert again is req  # recycled, not reallocated
        assert again.source is RequestSource.P2M
        assert again.kind is RequestKind.WRITE
        assert again.line_addr == 0x80
        assert again.traffic_class == "p2m"
        assert again.t_alloc is None and again.t_free is None
        assert again.channel_id == -1
        assert again.queue_seq == 0
        assert again.tag is None and again.on_complete is None

    def test_pool_never_aliases_a_live_request(self, monkeypatch):
        monkeypatch.setattr(records, "_POOL", [])
        live = [
            acquire_request(RequestSource.C2M, RequestKind.READ, 64 * i)
            for i in range(32)
        ]
        assert len({id(r) for r in live}) == 32
        release_request(live.pop(7))
        live_ids = {id(r) for r in live}
        # One recycled object is available; everything past it must be
        # freshly constructed, never a live request.
        fresh = [
            acquire_request(RequestSource.P2M, RequestKind.WRITE, 64 * i)
            for i in range(8)
        ]
        assert all(id(r) not in live_ids for r in fresh)
        assert len({id(r) for r in fresh}) == 8

    def test_pool_off_never_recycles(self, monkeypatch):
        monkeypatch.setattr(records, "_POOL", [])
        monkeypatch.setattr(records, "_POOL_ENABLED", False)
        req = acquire_request(RequestSource.C2M, RequestKind.READ, 0x40)
        release_request(req)
        assert records._POOL == []

    def test_pool_is_capped(self, monkeypatch):
        monkeypatch.setattr(records, "_POOL", [])
        monkeypatch.setattr(records, "_POOL_CAP", 4)
        for i in range(8):
            release_request(
                acquire_request(RequestSource.C2M, RequestKind.READ, 64 * i)
            )
        assert len(records._POOL) <= 4

    def test_pooled_run_float_identical_to_unpooled(self, monkeypatch):
        pooled = _host().run(WARMUP, MEASURE)
        monkeypatch.setattr(records, "_POOL", [])
        monkeypatch.setattr(records, "_POOL_ENABLED", False)
        plain = _host().run(WARMUP, MEASURE)
        assert_results_identical(pooled, plain, "pooled vs unpooled")
        assert pooled.events_processed == plain.events_processed
