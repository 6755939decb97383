"""Object-per-line LLC reference for the differential tests.

This is the tag store :class:`repro.uncore.llc.LastLevelCache` used to
be: one ``_Line`` object per resident line, each set an MRU-first
list. It is kept as the oracle the flat-column store is compared
against (``tests/test_llc.py::TestDifferential``). Its one departure
from the historical code: with a zero DDIO way budget and no DMA line
in a full set, a DMA install now evicts the plain-LRU line instead of
growing the set past its associativity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class _Line:
    __slots__ = ("addr", "dirty", "is_dma", "t_install")

    def __init__(self, addr: int, dirty: bool, is_dma: bool):
        self.addr = addr
        self.dirty = dirty
        self.is_dma = is_dma
        self.t_install = 0.0


class ReferenceLLC:
    """Same geometry, API and credit hooks as ``LastLevelCache``."""

    def __init__(self, size_bytes: int, ways: int, ddio_ways: int = 2):
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.n_sets = max(1, size_bytes // (ways * 64))
        self.sets: List[List[_Line]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self._pool = None
        self._latency = None
        self._clock = lambda: 0.0

    def attach_ddio_pool(self, pool, clock, latency=None) -> None:
        self._pool = pool
        self._latency = latency
        self._clock = clock

    def _installed(self, line: _Line, now: float) -> None:
        line.t_install = now
        self._pool.acquire(now, 1)

    def _evicted(self, line: _Line, now: float) -> None:
        if self._latency is not None:
            self._latency.record(now - line.t_install, 1)
        self._pool.release_held(now, line.t_install, 1)

    def _find(self, lines: List[_Line], addr: int) -> Optional[int]:
        for i, line in enumerate(lines):
            if line.addr == addr:
                return i
        return None

    def _to_dma(self, line: _Line, now: float) -> None:
        line.dirty = True
        if not line.is_dma:
            line.is_dma = True
            if self._pool is not None:
                self._installed(line, now)

    def _drop(self, lines: List[_Line], i: int, now: float) -> Optional[int]:
        victim = lines.pop(i)
        if victim.is_dma and self._pool is not None:
            self._evicted(victim, now)
        return victim.addr if victim.dirty else None

    def lookup_read(self, addr: int, allocate: bool = True) -> Tuple[bool, Optional[int]]:
        lines = self.sets[addr % self.n_sets]
        idx = self._find(lines, addr)
        if idx is not None:
            self.hits += 1
            lines.insert(0, lines.pop(idx))
            return True, None
        self.misses += 1
        evicted = None
        if allocate:
            if len(lines) >= self.ways:
                evicted = self._drop(lines, len(lines) - 1, self._clock())
            lines.insert(0, _Line(addr, dirty=False, is_dma=False))
        return False, evicted

    def write_allocate_ddio(self, addr: int) -> Tuple[str, Optional[int]]:
        lines = self.sets[addr % self.n_sets]
        idx = self._find(lines, addr)
        if idx is not None:
            self.hits += 1
            line = lines.pop(idx)
            self._to_dma(line, self._clock())
            lines.insert(0, line)
            return "hit", None
        self.misses += 1
        now = self._clock() if self._pool is not None else 0.0
        evicted = None
        dma = [i for i, line in enumerate(lines) if line.is_dma]
        if dma and len(dma) >= self.ddio_ways:
            evicted = self._drop(lines, dma[-1], now)
        elif len(lines) >= self.ways:
            evicted = self._drop(lines, len(lines) - 1, now)
        new = _Line(addr, dirty=True, is_dma=True)
        if self._pool is not None:
            self._installed(new, now)
        lines.insert(0, new)
        return "alloc", evicted

    def writeback_update(self, addr: int) -> bool:
        lines = self.sets[addr % self.n_sets]
        idx = self._find(lines, addr)
        if idx is None:
            return False
        line = lines.pop(idx)
        line.dirty = True
        lines.insert(0, line)
        return True

    def prewarm_ddio(self, base_line: int) -> None:
        base = base_line - base_line % self.n_sets
        now = self._clock() if self._pool is not None else 0.0
        for set_index, lines in enumerate(self.sets):
            for k in range(self.ddio_ways):
                addr = base + set_index + k * self.n_sets
                idx = self._find(lines, addr)
                if idx is not None:
                    line = lines.pop(idx)
                    self._to_dma(line, now)
                    lines.insert(0, line)
                    continue
                if len(lines) >= self.ways:
                    core = [i for i, ln in enumerate(lines) if not ln.is_dma]
                    self._drop(lines, core[-1] if core else len(lines) - 1, now)
                new = _Line(addr, dirty=True, is_dma=True)
                if self._pool is not None:
                    self._installed(new, now)
                lines.insert(0, new)

    def dma_lines(self) -> int:
        return sum(1 for lines in self.sets for line in lines if line.is_dma)

    def verify_tags(self) -> int:
        checked = 0
        for set_index, lines in enumerate(self.sets):
            assert len(lines) <= self.ways
            addrs = [line.addr for line in lines]
            assert len(set(addrs)) == len(addrs)
            assert all(a % self.n_sets == set_index for a in addrs)
            checked += len(lines)
        return checked

    def contents(self) -> List[List[Tuple[int, bool, bool, float]]]:
        """Per set, MRU first: ``(addr, dirty, is_dma, t_install)``."""
        return [
            [(ln.addr, ln.dirty, ln.is_dma, ln.t_install) for ln in lines]
            for lines in self.sets
        ]


def store_contents(llc) -> List[List[Tuple[int, bool, bool, float]]]:
    """Decode a ``LastLevelCache``'s flat columns into the reference's
    :meth:`ReferenceLLC.contents` form (state 1 = dirty, 3 = DMA)."""
    out = []
    for set_index in range(llc.n_sets):
        start = set_index * llc.ways
        lines = []
        for slot in range(start, start + llc.ways):
            addr = llc._tags[slot]
            if addr == -1:
                break
            state = llc._state[slot]
            lines.append((addr, state != 0, state == 3, llc._t_dma[slot]))
        out.append(lines)
    return out
