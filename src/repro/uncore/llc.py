"""Last-level cache with Intel DDIO's restricted allocation ways.

DDIO lets DMA writes allocate directly into the LLC instead of going
to memory — but only into a small number of ways (2 on the paper's
servers, ref. [18]). The paper's P2M workload uses buffers larger than
that slice, so in steady state every DMA write misses, allocates, and
evicts a dirty DMA line — memory write bandwidth is unchanged versus
DDIO-off (§2.1). Smaller buffers fit and are absorbed entirely.

The model is a set-associative tag store with per-line dirty and
is-DMA bits, held in flat columns rather than one object per line (see
:class:`LastLevelCache`). DMA allocations respect the DDIO way budget
by evicting the LRU *DMA-tagged* line of the set once the budget is
exceeded; core fills use plain LRU over all ways.

The DDIO slice doubles as the fifth contention domain ("From RDMA to
RDCA", PAPERS.md): a :class:`~repro.sim.credit.CreditPool` attached via
:meth:`LastLevelCache.attach_ddio_pool` treats each DMA-tagged line as
a held credit — acquired when a DMA line is installed (or a resident
core line is converted by a DDIO hit), released when the line is
evicted — so the slice surfaces the same (C, L, T) snapshot as the
four Fig. 5 domains, with L the DMA-line residency time.

``REPRO_DDIO`` (see :func:`ddio_forced`) force-enables or -disables
DDIO regardless of the :class:`~repro.topology.presets.HostConfig`,
so any existing experiment can be re-run with the cache last mile on.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.sim.records import CACHELINE_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.credit import CreditPool
    from repro.telemetry.counters import LatencyStat

#: tag of an invalid way (line addresses are non-negative).
_EMPTY = -1
#: line-state bytes. A DMA line is always dirty (it is installed dirty
#: or converted by a write, and nothing cleans a line), so the state is
#: one of three values and ``bytearray.count``/``rfind`` find the DMA
#: lines of a set without a Python loop.
_CLEAN = 0
_DIRTY = 1
_DMA = 3


def ddio_forced() -> Optional[bool]:
    """The ``REPRO_DDIO`` override: True/False to force DDIO on/off,
    ``None`` (unset or ``config``) to defer to the host config.

    Invalid values raise so typos don't silently change which P2M
    write path runs.
    """
    raw = os.environ.get("REPRO_DDIO", "").strip().lower()
    if raw in ("", "config"):
        return None
    if raw in ("1", "on", "yes", "true"):
        return True
    if raw in ("0", "off", "no", "false"):
        return False
    raise ValueError(f"REPRO_DDIO must be 0/1 (or unset), got {raw!r}")


def _zero_clock() -> float:
    """Default clock before :meth:`LastLevelCache.attach_ddio_pool`."""
    return 0.0


class LastLevelCache:
    """Set-associative LLC model with a DDIO way budget.

    Args:
        size_bytes: total capacity.
        ways: associativity.
        ddio_ways: maximum ways per set that DMA lines may occupy.

    The tag store keeps no object per line. Way ``p`` of set ``s`` is
    slot ``s * ways + p`` of three flat columns: ``_tags`` (the line
    address, ``_EMPTY`` for an invalid way), ``_state`` (clean, dirty
    or DMA) and ``_t_dma`` (when the line last became DMA-tagged: the
    credit-hold start; 0.0 for core lines). A set's ways are kept in
    MRU-first order with the valid lines as a prefix, so promoting a
    line to MRU is one slice shift per column, the LRU line is the last
    way, and the LRU DMA line is the set's last DMA state byte.
    """

    def __init__(self, size_bytes: int, ways: int, ddio_ways: int = 2):
        if size_bytes <= 0 or ways <= 0:
            raise ValueError("size and ways must be positive")
        if ddio_ways < 0 or ddio_ways > ways:
            raise ValueError("ddio_ways must be within [0, ways]")
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.n_sets = max(1, size_bytes // (ways * CACHELINE_BYTES))
        slots = self.n_sets * ways
        self._tags = array("q", [_EMPTY]) * slots
        self._state = bytearray(slots)
        self._t_dma = array("d", [0.0]) * slots
        self.hits = 0
        self.misses = 0
        # Optional credit-domain tracking (attach_ddio_pool): every
        # DMA-tagged line holds one llc.ddio credit while resident.
        self._ddio_pool: Optional["CreditPool"] = None
        self._ddio_latency: Optional["LatencyStat"] = None
        # Module-level function, not a lambda: the LLC must survive
        # checkpoint pickling (sim/checkpoint.py).
        self._clock: Callable[[], float] = _zero_clock

    @property
    def size_bytes(self) -> int:
        """Effective capacity after set rounding."""
        return self.n_sets * self.ways * CACHELINE_BYTES

    @property
    def ddio_capacity_bytes(self) -> int:
        """Capacity of the slice DDIO is allowed to use."""
        return self.n_sets * self.ddio_ways * CACHELINE_BYTES

    def attach_ddio_pool(
        self,
        pool: "CreditPool",
        clock: Callable[[], float],
        latency: Optional["LatencyStat"] = None,
    ) -> None:
        """Track DMA-line residency on a credit pool (the fifth domain).

        ``pool`` must be ``soft``: a DDIO hit on a resident core line
        converts it to DMA without evicting, so occupancy may exceed
        the ``ddio_capacity_bytes / 64`` admission budget. ``latency``
        is the hub stat the :class:`~repro.sim.credit.DomainTracker`
        aggregates (``domain.llc_ddio.*``); residency times are
        recorded there *and* on the pool's own hold-time stat.
        """
        self._ddio_pool = pool
        self._ddio_latency = latency
        self._clock = clock

    # ------------------------------------------------------------------
    # Tag-store primitives
    # ------------------------------------------------------------------

    def _find(self, base: int, addr: int) -> int:
        """Way of ``addr`` in the set starting at slot ``base``, or -1."""
        tags = self._tags[base:base + self.ways]
        if addr in tags:
            return tags.index(addr)
        return -1

    def _put_mru(
        self, base: int, way: int, addr: int, state: int, t_dma: float
    ) -> None:
        """Write a line at MRU, shifting ways ``[0, way)`` down one.

        Way ``way`` is overwritten: it holds the line being promoted,
        the victim just evicted, or the invalid way an install fills.
        """
        if way:
            end = base + way
            tags = self._tags
            tags[base + 1:end + 1] = tags[base:end]
            states = self._state
            states[base + 1:end + 1] = states[base:end]
            times = self._t_dma
            times[base + 1:end + 1] = times[base:end]
        self._tags[base] = addr
        self._state[base] = state
        self._t_dma[base] = t_dma

    def _evict(self, slot: int) -> Optional[int]:
        """Account for the line leaving ``slot`` (nothing for an invalid
        way); returns its address if dirty, for the caller's writeback."""
        addr = self._tags[slot]
        if addr == _EMPTY:
            return None
        state = self._state[slot]
        if state == _DMA and self._ddio_pool is not None:
            self._dma_evicted(self._t_dma[slot], self._clock())
        return addr if state else None

    def _promote_dma(self, base: int, way: int, addr: int) -> None:
        """Move a resident line to MRU as a dirty DMA line.

        A core line converted this way starts holding a slice credit
        now (beyond the way budget — the reason the llc.ddio pool is
        soft); a DMA line keeps its hold start.
        """
        slot = base + way
        t_dma = self._t_dma[slot]
        if self._state[slot] != _DMA:
            pool = self._ddio_pool
            if pool is not None:
                t_dma = self._clock()
                pool.acquire(t_dma, 1)
        self._put_mru(base, way, addr, _DMA, t_dma)

    def _dma_evicted(self, t_dma: float, now: float) -> None:
        if self._ddio_latency is not None:
            self._ddio_latency.record(now - t_dma, 1)
        self._ddio_pool.release_held(now, t_dma, 1)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup_read(self, line_addr: int, allocate: bool = True) -> Tuple[bool, Optional[int]]:
        """Read lookup. Returns ``(hit, evicted_dirty_addr)``.

        On a miss with ``allocate``, the fetched line is installed
        clean via LRU; if the victim is dirty its address is returned
        so the caller can issue the writeback.
        """
        base = (line_addr % self.n_sets) * self.ways
        way = self._find(base, line_addr)
        if way >= 0:
            self.hits += 1
            if way:
                slot = base + way
                self._put_mru(
                    base, way, line_addr, self._state[slot], self._t_dma[slot]
                )
            return True, None
        self.misses += 1
        if not allocate:
            return False, None
        last = self.ways - 1
        evicted = self._evict(base + last)
        self._put_mru(base, last, line_addr, _CLEAN, 0.0)
        return False, evicted

    def write_allocate_ddio(self, line_addr: int) -> Tuple[str, Optional[int]]:
        """DDIO DMA write. Returns ``(outcome, evicted_dirty_addr)``.

        Outcomes: ``"hit"`` (updated in place), ``"alloc"`` (installed
        dirty, possibly evicting — the steady-state thrash path for
        large buffers).
        """
        base = (line_addr % self.n_sets) * self.ways
        way = self._find(base, line_addr)
        if way >= 0:
            self.hits += 1
            self._promote_dma(base, way, line_addr)
            return "hit", None
        self.misses += 1
        # Victim: the LRU DMA line once the DDIO way budget is used,
        # else plain LRU (an invalid way while the set is not full).
        # With a zero budget and no DMA line resident, plain LRU too.
        end = base + self.ways
        way = self.ways - 1
        states = self._state
        if states.count(_DMA, base, end) >= self.ddio_ways:
            victim = states.rfind(_DMA, base, end)
            if victim >= 0:
                way = victim - base
        evicted = self._evict(base + way)
        pool = self._ddio_pool
        now = self._clock() if pool is not None else 0.0
        self._put_mru(base, way, line_addr, _DMA, now)
        if pool is not None:
            pool.acquire(now, 1)
        return "alloc", evicted

    def writeback_update(self, line_addr: int) -> bool:
        """Mark a resident line dirty (core writeback). Returns hit."""
        base = (line_addr % self.n_sets) * self.ways
        way = self._find(base, line_addr)
        if way < 0:
            return False
        slot = base + way
        self._put_mru(
            base, way, line_addr, self._state[slot] | _DIRTY, self._t_dma[slot]
        )
        return True

    # ------------------------------------------------------------------
    # Prewarm
    # ------------------------------------------------------------------

    def prewarm_ddio(self, base_line: int) -> None:
        """Fill every set's DDIO way budget with dirty DMA lines.

        The paper measures *steady-state* behaviour, where the DDIO
        ways have long been full of in-flight DMA data and every new
        DMA allocation evicts a dirty line. Reaching that state
        organically takes hundreds of microseconds of simulated DMA;
        prewarming jumps straight to it. ``base_line`` should point at
        an address range no workload uses; it is rounded down to a
        multiple of ``n_sets`` so every synthetic address is
        set-congruent (``addr % n_sets`` names the set holding it —
        the :meth:`verify_tags` invariant).

        Set by set, line ``k`` of the budget is ``base + set + k *
        n_sets``, installed in order ``k = 0, 1, ...`` at MRU. A cold
        cache takes that state in bulk. Otherwise each install walks
        its set: a resident synthetic line is re-dirtied in place
        (idempotent re-prewarm, no duplicate tags), and a full set
        evicts its LRU core line first, its LRU DMA line only when
        every way is DMA-tagged — exactly as organic DMA traffic would.
        """
        ddio_ways = self.ddio_ways
        if not ddio_ways:
            return
        n_sets = self.n_sets
        ways = self.ways
        base = base_line - base_line % n_sets
        pool = self._ddio_pool
        now = self._clock() if pool is not None else 0.0
        tags = self._tags
        if tags[::ways].count(_EMPTY) == n_sets:
            # Cold: every MRU way is invalid, so every set is empty and
            # no install evicts. Line k ends at way ddio_ways-1-k of its
            # set; fill each way column across all sets at once.
            for way in range(ddio_ways):
                first = base + (ddio_ways - 1 - way) * n_sets
                tags[way::ways] = array("q", range(first, first + n_sets))
                self._state[way::ways] = bytes((_DMA,)) * n_sets
                self._t_dma[way::ways] = array("d", [now]) * n_sets
            if pool is not None:
                # The unit acquires this replaces all happen at `now`:
                # after the first, dt == 0, so one acquire of every
                # credit gives the same occupancy integral and peak.
                pool.acquire(now, n_sets * ddio_ways)
            return
        states = self._state
        for set_index in range(n_sets):
            start = set_index * ways
            end = start + ways
            for k in range(ddio_ways):
                addr = base + set_index + k * n_sets
                way = self._find(start, addr)
                if way >= 0:
                    self._promote_dma(start, way, addr)
                    continue
                way = ways - 1
                if tags[end - 1] != _EMPTY:
                    core = max(
                        states.rfind(_CLEAN, start, end),
                        states.rfind(_DIRTY, start, end),
                    )
                    if core >= 0:
                        way = core - start
                    self._evict(start + way)
                self._put_mru(start, way, addr, _DMA, now)
                if pool is not None:
                    pool.acquire(now, 1)

    # ------------------------------------------------------------------
    # Invariants / introspection
    # ------------------------------------------------------------------

    def dma_lines(self) -> int:
        """Resident DMA-tagged lines (the llc.ddio credits held)."""
        return self._state.count(_DMA)

    def verify_tags(self) -> int:
        """Tag-store structural invariants (REPRO_VALIDATE probe walk).

        Every line's address must map to the set holding it, tags must
        be unique within a set, the valid ways must be a prefix of the
        set, and every state byte must be clean, dirty or DMA. Returns
        the number of lines checked; raises ``AssertionError`` on any
        violation (wrapped into an ``InvariantViolation`` by the
        validator probe).
        """
        states = self._state
        assert (
            states.count(_CLEAN) + states.count(_DIRTY) + states.count(_DMA)
            == len(states)
        ), "bad line state: not clean, dirty or DMA"
        n_sets = self.n_sets
        ways = self.ways
        tags = self._tags.tolist()
        homes = [addr % n_sets for addr in tags]
        checked = 0
        for set_index in range(n_sets):
            start = set_index * ways
            lines = tags[start:start + ways]
            n = ways - lines.count(_EMPTY)
            live = lines[:n]
            assert _EMPTY not in live, (
                f"set {set_index}: invalid way inside the MRU prefix"
            )
            assert homes[start:start + n].count(set_index) == n, (
                f"set {set_index}: line addrs "
                f"{[a for a in live if a % n_sets != set_index]} map to "
                f"other sets"
            )
            assert len(set(live)) == n, (
                f"set {set_index}: duplicate tag in {live}"
            )
            checked += n
        return checked

    @property
    def miss_ratio(self) -> float:
        """Misses / lookups since the last stats reset."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total

    def reset_stats(self) -> None:
        """Zero hit/miss counters (tag state is kept)."""
        self.hits = 0
        self.misses = 0
