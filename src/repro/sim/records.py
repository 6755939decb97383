"""Request records that flow through the simulated host network.

A :class:`Request` represents a single cacheline (64 B) transfer. Its
timestamp fields are filled in as it traverses the host network and are
the raw material for all domain-latency measurements (§4.2 of the
paper): every latency the paper derives from uncore counters via
Little's law can be cross-checked here against direct per-request
timestamps.
"""

from __future__ import annotations

import enum
from typing import List, Optional

CACHELINE_BYTES = 64


class RequestSource(enum.Enum):
    """Who generated the request: a core (C2M) or a peripheral (P2M)."""

    C2M = "c2m"
    P2M = "p2m"


class RequestKind(enum.Enum):
    """Memory-level direction of the request.

    ``READ`` moves data from DRAM toward the requester; ``WRITE``
    moves data toward DRAM. Note the inversion for storage/network
    workloads: a storage *read* generates memory *writes* (DMA into
    host memory) and vice versa (§2.2).
    """

    READ = "read"
    WRITE = "write"


class Request:
    """A single cacheline request traversing the host network.

    One request is one cacheline on every layer: each credit, queue
    slot and counter update it makes moves exactly one line (the §4
    per-cacheline credit loop).

    Attributes:
        source: C2M (from a core) or P2M (from a peripheral device).
        kind: READ or WRITE at the memory level.
        line_addr: cacheline-granularity physical address (integer).
        requester_id: index of the issuing core or device.
        traffic_class: free-form label used by telemetry to group
            requests (e.g. ``"c2m"``, ``"p2m"``, ``"copy"``).

    Timestamps (ns, ``None`` until reached):
        t_alloc: domain credit allocated (LFB entry / IIO entry).
        t_cha_admit: admitted into the CHA.
        t_queue_admit: admitted into the MC RPQ/WPQ.
        t_service: data transferred on the memory channel.
        t_free: domain credit replenished (end of domain latency).
    """

    __slots__ = (
        "source",
        "kind",
        "line_addr",
        "requester_id",
        "traffic_class",
        "t_alloc",
        "t_cha_admit",
        "t_queue_admit",
        "t_service",
        "t_free",
        "channel_id",
        "bank_id",
        "row_id",
        "row_outcome",
        "on_complete",
        "on_serviced",
        "on_cha_admit",
        "tag",
        "queue_seq",
        "cls_id",
        "ucls_id",
    )

    def __init__(
        self,
        source: RequestSource,
        kind: RequestKind,
        line_addr: int,
        requester_id: int = 0,
        traffic_class: Optional[str] = None,
    ):
        self.source = source
        self.kind = kind
        self.line_addr = line_addr
        self.requester_id = requester_id
        self.traffic_class = traffic_class or source.value
        self.t_alloc: Optional[float] = None
        self.t_cha_admit: Optional[float] = None
        self.t_queue_admit: Optional[float] = None
        self.t_service: Optional[float] = None
        self.t_free: Optional[float] = None
        # Filled in by the DRAM address mapper / banks.
        self.channel_id: int = -1
        self.bank_id: int = -1
        self.row_id: int = -1
        self.row_outcome: Optional[str] = None  # "hit" | "miss" | "conflict"
        # Optional completion callback (set by the endpoint that issued it):
        # invoked at data transmission for reads, at WPQ admission for writes.
        self.on_complete = None
        # Optional service hook (set by the CHA): invoked when a read's data
        # leaves the memory channel, used for in-flight tracking.
        self.on_serviced = None
        # Optional admission hook: invoked when the CHA admits the request.
        # Cores use it to end the C2M-Write domain (LFB -> CHA).
        self.on_cha_admit = None
        # Free-form payload for the issuing endpoint (e.g. the RFO read
        # a writeback belongs to). Never inspected by the fabric.
        self.tag = None
        # Monotonic admission order within the MC queue (scheduler age).
        self.queue_seq = 0
        # Interned traffic-class id, assigned by the SoA channel kernel
        # at MC admission (dram/kernel.py). -1 = not yet interned.
        self.cls_id = -1
        # Uncore-kernel class id, assigned at CHA admission
        # (uncore/kernel.py) — distinct interning table from cls_id.
        self.ucls_id = -1

    @property
    def is_read(self) -> bool:
        """True for memory-level reads."""
        return self.kind is RequestKind.READ

    @property
    def is_write(self) -> bool:
        """True for memory-level writes."""
        return self.kind is RequestKind.WRITE

    @property
    def domain_latency(self) -> Optional[float]:
        """Credit hold time: allocation to replenishment (ns)."""
        if self.t_alloc is None or self.t_free is None:
            return None
        return self.t_free - self.t_alloc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request({self.source.value}-{self.kind.value}, "
            f"line={self.line_addr:#x}, cls={self.traffic_class})"
        )


# ----------------------------------------------------------------------
# Request free-list pool
#
# Every cacheline costs a Request allocation; on the hot paths that is
# a measurable slice of per-event time (object + five None timestamp
# stores + GC pressure). Endpoints that *retire* a request hand it
# back via release_request(); issue sites acquire via
# acquire_request(), which reinitialises every slot a fresh Request
# would have, so recycling is observationally identical to
# construction. Tests flip _POOL_ENABLED off to check that (any
# behavioural difference with the pool on is a lifetime bug).

_POOL: List[Request] = []
_POOL_CAP = 4096
_POOL_ENABLED = True


def acquire_request(
    source: RequestSource,
    kind: RequestKind,
    line_addr: int,
    requester_id: int = 0,
    traffic_class: Optional[str] = None,
) -> Request:
    """A fresh-looking :class:`Request`, recycled when the pool has one."""
    pool = _POOL
    if not pool:
        return Request(source, kind, line_addr, requester_id, traffic_class)
    req = pool.pop()
    req.source = source
    req.kind = kind
    req.line_addr = line_addr
    req.requester_id = requester_id
    req.traffic_class = traffic_class or source.value
    req.t_alloc = None
    req.t_cha_admit = None
    req.t_queue_admit = None
    req.t_service = None
    req.t_free = None
    req.channel_id = -1
    req.bank_id = -1
    req.row_id = -1
    req.row_outcome = None
    req.queue_seq = 0
    # Callbacks and tag were already cleared at release time.
    return req


def release_request(req: Request) -> None:
    """Retire ``req`` into the free list (caller must hold the last ref).

    Only endpoints that end a request's lifecycle may call this: after
    release no heap entry, queue, stage set or callback may still
    reference the object. Callback/tag slots are cleared eagerly so
    recycled requests never pin issuer state for the GC.
    """
    req.on_complete = None
    req.on_serviced = None
    req.on_cha_admit = None
    req.tag = None
    if _POOL_ENABLED and len(_POOL) < _POOL_CAP:
        _POOL.append(req)


def snapshot_pool() -> List[Request]:
    """The free list, in order, for checkpointing.

    The pool is module state, invisible to a Host pickle, yet it
    steers which object ``acquire_request`` hands out next — a resumed
    run must replay the exact acquire sequence, so the checkpoint
    captures the list (a shallow copy; the Requests themselves ride
    along in the same pickle as the host graph, preserving identity).
    """
    return list(_POOL)


def restore_pool(entries: List[Request]) -> None:
    """Reinstall a checkpointed free list (see :func:`snapshot_pool`)."""
    _POOL.clear()
    _POOL.extend(entries)
