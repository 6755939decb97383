"""Unit tests for the LLC with DDIO way restriction."""

import random

import pytest

from repro.telemetry.counters import CounterHub
from repro.uncore.llc import LastLevelCache
from tests.llc_reference import ReferenceLLC, store_contents


def make(size_kb=64, ways=4, ddio_ways=2):
    return LastLevelCache(size_kb * 1024, ways, ddio_ways)


class TestBasics:
    def test_geometry(self):
        llc = make(size_kb=64, ways=4)
        assert llc.size_bytes == 64 * 1024
        assert llc.n_sets == 64 * 1024 // (4 * 64)

    def test_ddio_capacity(self):
        llc = make(size_kb=64, ways=4, ddio_ways=2)
        assert llc.ddio_capacity_bytes == llc.size_bytes // 2

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            LastLevelCache(0, 4)
        with pytest.raises(ValueError):
            LastLevelCache(1024, 4, ddio_ways=5)


class TestReads:
    def test_miss_then_hit(self):
        llc = make()
        hit, _ = llc.lookup_read(42)
        assert not hit
        hit, _ = llc.lookup_read(42)
        assert hit

    def test_no_allocate_leaves_cache_unchanged(self):
        llc = make()
        llc.lookup_read(42, allocate=False)
        hit, _ = llc.lookup_read(42)
        assert not hit

    def test_lru_eviction(self):
        llc = make(size_kb=1, ways=2)  # 8 sets
        n_sets = llc.n_sets
        a, b, c = 0, n_sets, 2 * n_sets  # same set
        llc.lookup_read(a)
        llc.lookup_read(b)
        llc.lookup_read(c)  # evicts a (LRU)
        assert not llc.lookup_read(a)[0]
        # b was made MRU... then a's re-install evicted it? touch order:
        # after c: set = [c, b]; a misses and evicts b.

    def test_clean_eviction_returns_none(self):
        llc = make(size_kb=1, ways=1, ddio_ways=1)
        _, evicted = llc.lookup_read(0)
        _, evicted = llc.lookup_read(llc.n_sets)  # evicts line 0, clean
        assert evicted is None

    def test_miss_ratio(self):
        llc = make()
        llc.lookup_read(1)
        llc.lookup_read(1)
        assert llc.miss_ratio == pytest.approx(0.5)

    def test_reset_stats(self):
        llc = make()
        llc.lookup_read(1)
        llc.reset_stats()
        assert llc.hits == 0 and llc.misses == 0


class TestDdioWrites:
    def test_alloc_then_hit(self):
        llc = make()
        outcome, evicted = llc.write_allocate_ddio(7)
        assert outcome == "alloc" and evicted is None
        outcome, _ = llc.write_allocate_ddio(7)
        assert outcome == "hit"

    def test_ddio_way_budget_evicts_dma_lines(self):
        llc = make(size_kb=1, ways=4, ddio_ways=2)
        n_sets = llc.n_sets
        lines = [i * n_sets for i in range(3)]  # same set
        llc.write_allocate_ddio(lines[0])
        llc.write_allocate_ddio(lines[1])
        _, evicted = llc.write_allocate_ddio(lines[2])
        # Third DMA line exceeds the 2-way budget: the LRU DMA line
        # (lines[0]) is evicted dirty even though plain ways are free.
        assert evicted == lines[0]

    def test_core_lines_not_victimized_by_ddio_budget(self):
        llc = make(size_kb=1, ways=4, ddio_ways=2)
        n_sets = llc.n_sets
        core_line = 5 * n_sets
        llc.lookup_read(core_line)
        llc.write_allocate_ddio(0)
        llc.write_allocate_ddio(n_sets)
        _, evicted = llc.write_allocate_ddio(2 * n_sets)
        assert evicted != core_line
        assert llc.lookup_read(core_line)[0]

    def test_thrash_generates_one_eviction_per_write(self):
        """Steady state for buffers larger than the DDIO slice: every
        DMA write evicts a dirty DMA line (same memory write volume as
        DDIO-off, §2.1)."""
        llc = make(size_kb=1, ways=4, ddio_ways=1)
        n_sets = llc.n_sets
        evictions = 0
        for i in range(1, 50):
            _, evicted = llc.write_allocate_ddio(i * n_sets)
            if evicted is not None:
                evictions += 1
        assert evictions == 48  # all but the first

    def test_small_buffer_fully_absorbed(self):
        """A buffer within the DDIO slice hits after the first pass."""
        llc = make(size_kb=64, ways=4, ddio_ways=2)
        lines = range(0, 100)
        for line in lines:
            llc.write_allocate_ddio(line)
        outcomes = [llc.write_allocate_ddio(line)[0] for line in lines]
        assert all(o == "hit" for o in outcomes)


class TestInstallDmaEdgeCases:
    def test_budget_victim_with_free_ways(self):
        """dma_count at budget but the set is not full: the victim must
        still come from the DMA slice — free ways don't grow it."""
        llc = make(size_kb=1, ways=8, ddio_ways=2)
        n_sets = llc.n_sets
        core = 10 * n_sets
        llc.lookup_read(core)
        llc.write_allocate_ddio(0)
        llc.write_allocate_ddio(n_sets)
        # 4 of 8 ways used; budget full. Next DMA alloc evicts DMA LRU.
        _, evicted = llc.write_allocate_ddio(2 * n_sets)
        assert evicted == 0
        assert len(store_contents(llc)[0]) == 3  # swap within the slice, no growth
        assert llc.lookup_read(core)[0]

    def test_plain_lru_branch_returns_dirty_core_victim(self):
        """Set full but DMA budget free: plain LRU runs, and a dirty
        *core* victim's address is surfaced for the writeback."""
        llc = make(size_kb=1, ways=2, ddio_ways=2)
        n_sets = llc.n_sets
        dirty_core, clean_core = 5 * n_sets, 6 * n_sets
        llc.lookup_read(dirty_core)
        llc.writeback_update(dirty_core)
        llc.lookup_read(clean_core)  # MRU; dirty_core now LRU
        _, evicted = llc.write_allocate_ddio(0)
        assert evicted == dirty_core


class TestPrewarm:
    def test_prewarm_fills_every_set_with_dirty_dma_lines(self):
        """Regression: prewarming a cache whose sets are already full
        of core lines must still leave ``ddio_ways`` dirty DMA lines in
        every set (the old code trimmed the tail *after* installing,
        deleting the lines it had just added)."""
        llc = make(size_kb=4, ways=4, ddio_ways=2)
        n_sets = llc.n_sets
        for s in range(n_sets):  # fill every way of every set
            for w in range(llc.ways):
                llc.lookup_read(s + w * n_sets)
        llc.prewarm_ddio(base_line=1 << 20)
        for s, lines in enumerate(store_contents(llc)):
            dma = [ln for ln in lines if ln[2]]  # (addr, dirty, is_dma, t)
            assert len(lines) <= llc.ways
            assert len(dma) == llc.ddio_ways, f"set {s}: {len(dma)} DMA lines"
            assert all(ln[1] for ln in dma)

    def test_prewarm_addresses_are_set_congruent(self):
        """Regression: synthetic prewarm addresses must map to the set
        they are installed in (the old sequential ``addr += 1`` walk
        put almost every line in a foreign set)."""
        llc = make(size_kb=4, ways=4, ddio_ways=2)
        llc.prewarm_ddio(base_line=(1 << 20) + 13)  # non-aligned base
        assert llc.verify_tags() == llc.n_sets * llc.ddio_ways

    def test_prewarm_is_idempotent(self):
        llc = make(size_kb=4, ways=4, ddio_ways=2)
        llc.prewarm_ddio(base_line=1 << 20)
        first = llc.dma_lines()
        llc.prewarm_ddio(base_line=1 << 20)
        assert llc.dma_lines() == first == llc.n_sets * llc.ddio_ways
        llc.verify_tags()

    def test_prewarm_evicts_core_lru_not_mru(self):
        llc = make(size_kb=1, ways=2, ddio_ways=1)
        n_sets = llc.n_sets
        lru, mru = 3 * n_sets, 4 * n_sets
        llc.lookup_read(lru)
        llc.lookup_read(mru)
        llc.prewarm_ddio(base_line=1 << 20)
        assert llc.lookup_read(mru)[0]  # survivor
        assert not llc.lookup_read(lru)[0]


class TestVerifyTags:
    def test_clean_cache_passes(self):
        llc = make()
        llc.lookup_read(17)
        llc.write_allocate_ddio(23)
        assert llc.verify_tags() == 2

    def test_foreign_set_line_raises(self):
        llc = make(size_kb=1, ways=2)
        llc.lookup_read(0)
        # corrupt: move set 0's MRU line into set 1's MRU way
        llc._tags[llc.ways] = llc._tags[0]
        llc._tags[0] = -1
        with pytest.raises(AssertionError, match=r"\[0\] map to other sets"):
            llc.verify_tags()

    def test_duplicate_tag_raises(self):
        llc = make(size_kb=1, ways=2)
        llc.lookup_read(0)
        llc._tags[1] = llc._tags[0]  # corrupt: second way, same tag
        with pytest.raises(AssertionError, match="duplicate tag"):
            llc.verify_tags()

    def test_invalid_way_inside_prefix_raises(self):
        llc = make(size_kb=1, ways=2)
        llc.lookup_read(0)
        llc.lookup_read(llc.n_sets)
        llc._tags[0] = -1  # corrupt: the MRU way invalid, the LRU valid
        with pytest.raises(AssertionError, match="MRU prefix"):
            llc.verify_tags()

    def test_clean_dma_state_raises(self):
        llc = make(size_kb=1, ways=2)
        llc.write_allocate_ddio(0)
        llc._state[0] = 2  # corrupt: DMA bit without the dirty bit
        with pytest.raises(AssertionError, match="bad line state"):
            llc.verify_tags()


class TestWritebackUpdate:
    def test_resident_line_marked_dirty(self):
        llc = make(size_kb=1, ways=1, ddio_ways=1)
        llc.lookup_read(3)
        assert llc.writeback_update(3)
        _, evicted = llc.lookup_read(3 + llc.n_sets)
        assert evicted == 3  # dirty eviction

    def test_absent_line_returns_false(self):
        llc = make()
        assert not llc.writeback_update(99)


class TestZeroDdioBudget:
    def test_dma_write_into_full_set_keeps_associativity(self):
        """With no DDIO ways and no DMA line to evict, a DMA install
        into a full set evicts the plain-LRU line (the object store
        used to grow the set past its ways)."""
        llc = LastLevelCache(1024, ways=2, ddio_ways=0)
        n_sets = llc.n_sets
        llc.lookup_read(0)
        llc.lookup_read(n_sets)
        llc.writeback_update(0)  # MRU, dirty; n_sets is now LRU
        llc.lookup_read(n_sets)  # MRU again; dirty line 0 is LRU
        outcome, evicted = llc.write_allocate_ddio(2 * n_sets)
        assert (outcome, evicted) == ("alloc", 0)
        assert llc.verify_tags() == 2


class _Clock:
    """Settable sim clock shared by both caches of a differential pair."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


#: (size_bytes, ways, ddio_ways): 4 to 16 sets, so random addresses
#: collide and every set sees evictions.
GEOMETRIES = [
    (1024, 4, 2),
    (2048, 4, 4),  # ddio_ways == ways
    (1024, 2, 0),  # no DDIO ways
    (512, 1, 1),  # direct-mapped
    (3072, 3, 1),
    (4096, 8, 2),
]


class TestDifferential:
    """The flat-column store against the object-per-line reference
    (``tests/llc_reference.py``): same return values, MRU order, line
    states, DMA hold starts and credit accounting on random traffic."""

    @staticmethod
    def _pair(geometry, with_pool):
        store, ref = LastLevelCache(*geometry), ReferenceLLC(*geometry)
        clock = _Clock()
        books = []
        if with_pool:
            for cache in (store, ref):
                hub = CounterHub()
                pool = hub.pool(
                    "llc.ddio", max(1, cache.n_sets * cache.ddio_ways), soft=True
                )
                latency = hub.latency("domain.llc_ddio.dma")
                cache.attach_ddio_pool(pool, clock=clock, latency=latency)
                books.append((pool, latency))
        return store, ref, clock, books

    @staticmethod
    def _assert_same(store, ref, books):
        assert store_contents(store) == ref.contents()
        assert store.dma_lines() == ref.dma_lines()
        assert store.verify_tags() == ref.verify_tags()
        assert (store.hits, store.misses) == (ref.hits, ref.misses)
        if books:
            (pool, latency), (ref_pool, ref_latency) = books
            held = pool.alloc_count - pool.free_count
            assert pool.occ.value == held == store.dma_lines()

            def book(p, lat):
                return (
                    p.occ.value, p.alloc_count, p.free_count,
                    p.occ._integral, p.occ.max_seen,
                    p.latency.total, p.latency.count, p.latency.max_seen,
                    lat.total, lat.count, lat.max_seen,
                )

            assert book(pool, latency) == book(ref_pool, ref_latency)

    @pytest.mark.parametrize("cold_prewarm", [False, True])
    @pytest.mark.parametrize("with_pool", [False, True])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_random_traffic_matches_reference(self, geometry, with_pool, cold_prewarm):
        for seed in range(6):
            rng = random.Random(seed)
            store, ref, clock, books = self._pair(geometry, with_pool)
            span = store.n_sets * (store.ways + 3)
            # Prewarm bases: one clear of the traffic, one overlapping
            # it (so re-prewarm converts and re-dirties resident lines).
            bases = [1 << 20, rng.randrange(span)]
            if cold_prewarm:
                store.prewarm_ddio(bases[0])
                ref.prewarm_ddio(bases[0])
                self._assert_same(store, ref, books)
            for step in range(400):
                clock.now += rng.choice((0.0, 0.5, 3.0))
                addr = rng.randrange(span)
                op = rng.random()
                if op < 0.3:
                    got = store.lookup_read(addr), ref.lookup_read(addr)
                elif op < 0.4:
                    got = (
                        store.lookup_read(addr, allocate=False),
                        ref.lookup_read(addr, allocate=False),
                    )
                elif op < 0.75:
                    got = (
                        store.write_allocate_ddio(addr),
                        ref.write_allocate_ddio(addr),
                    )
                elif op < 0.98:
                    got = store.writeback_update(addr), ref.writeback_update(addr)
                else:
                    base = rng.choice(bases)
                    got = store.prewarm_ddio(base), ref.prewarm_ddio(base)
                assert got[0] == got[1], f"seed {seed} step {step}"
                if step % 50 == 49:
                    self._assert_same(store, ref, books)
            self._assert_same(store, ref, books)

    def test_cold_prewarm_is_one_bulk_acquire(self):
        """The host geometry: a cold prewarm acquires every slice
        credit in one call, with the unit acquires' exact accounting."""
        geometry = (1 << 20, 12, 2)
        store, ref, clock, books = self._pair(geometry, with_pool=True)
        clock.now = 5.0
        store.prewarm_ddio(1 << 40)
        ref.prewarm_ddio(1 << 40)
        self._assert_same(store, ref, books)
        assert books[0][0].alloc_count == store.n_sets * store.ddio_ways
