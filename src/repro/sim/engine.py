"""Bucketed-heap discrete-event simulator.

Time is measured in nanoseconds (floats). The engine guarantees that
events scheduled for the same instant fire in scheduling order, which
keeps component interactions deterministic run-to-run.

The pending set is a two-level structure — the scheduler's *fast
lanes*:

* ``_heap`` is a binary heap of **bare float timestamps**, one per
  distinct pending instant. Heap pushes/pops compare plain floats, and
  the heap only grows when a *new* instant appears.
* ``_buckets`` maps each pending instant to its FIFO bucket of
  entries. Scheduling onto an instant that is already pending is a
  dict hit plus a list append — no heap operation at all, which is
  the common case for event trains (many components acting at the
  same timestamp, self-rescheduling sources with few distinct
  delays).

A bucket holds either a single entry (the overwhelmingly common
singleton case pays no list allocation) or a list of entries in
scheduling order. Entries come in three shapes, recognised by class:

* ``(fn, args)`` tuples — the non-cancellable fast path used by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`;
* :class:`Event` wrappers — cancellable handles from
  :meth:`Simulator.schedule_cancellable`, lazily deleted;
* :class:`_Chain` payloads — a whole same-instant train from
  :meth:`Simulator.schedule_many`, stored as one entry.

Dispatch order is exactly what a ``(time, submission ordinal)`` total
order produces: all entries for an instant live in its bucket from
first schedule until the bucket is dispatched, appends preserve
submission order, and distinct instants are ordered by the heap.
Entries scheduled *for the current instant while it is being
dispatched* open a fresh bucket at the same timestamp, which the drain
loop picks up before the clock moves — again matching submission
order, since every live entry of the old bucket has already fired.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Sequence

_INF = float("inf")


class Event:
    """A cancellable scheduled callback.

    Events are returned by :meth:`Simulator.schedule_cancellable` so
    callers can cancel them. A cancelled event stays in its bucket but
    is skipped when it surfaces (lazy deletion, the standard idiom).
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Owning simulator while the event is pending; cleared at
        # dispatch and at cancellation so the live-pending counter is
        # decremented exactly once per scheduled event.
        self._sim = None

    def cancel(self) -> None:
        """Prevent this event from firing. Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, {self.fn.__qualname__}, {state})"


class _Chain:
    """A same-instant event train stored as one bucket entry.

    Members fire in list order, exactly as the equivalent sequence of
    per-member :meth:`Simulator.schedule` calls would (the train is
    submitted atomically, so nothing can interleave inside it).
    ``idx`` is the dispatch cursor: when a budgeted run expires
    mid-train the anchor stays in its bucket with the cursor advanced
    past the dispatched members.
    """

    __slots__ = ("fn", "argslist", "idx")

    def __init__(self, fn: Callable[..., None], argslist: Sequence[tuple]):
        self.fn = fn
        self.argslist = argslist
        self.idx = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"_Chain({self.fn.__qualname__}, "
            f"{len(self.argslist) - self.idx} of {len(self.argslist)} left)"
        )


class Simulator:
    """A minimal discrete-event simulation kernel.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, callback, arg1, arg2)
        sim.run_until(1_000.0)

    The clock never moves backwards; scheduling an event in the past
    (or at a non-finite time) raises ``ValueError`` to surface
    modelling bugs early.
    """

    __slots__ = ("now", "_heap", "_buckets", "_events_processed", "_cancelled")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: distinct pending instants (bare floats, heap-ordered)
        self._heap: list = []
        #: instant -> entry | list of entries, in scheduling order
        self._buckets: dict = {}
        self._events_processed: int = 0
        # Cancelled (lazily-deleted) events still filed in a bucket:
        # incremented by Event.cancel(), decremented when the dead
        # entry surfaces at dispatch. Keeping the *cancelled* count —
        # rather than a live count bumped on every schedule — keeps
        # the hot scheduling paths counter-free; ``pending_live``
        # derives the live count on demand.
        self._cancelled: int = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled).

        O(pending) — this walks the buckets; it is a diagnostic, not a
        hot-path counter.
        """
        count = 0
        for _, entry in self.pending_entries():
            if entry.__class__ is _Chain:
                count += len(entry.argslist) - entry.idx
            else:
                count += 1
        return count

    def pending_entries(self) -> "Iterator[tuple]":
        """Yield every pending ``(instant, entry)`` pair.

        The canonical observer of scheduler state: entries surface in
        bucket (submission) order within an instant, though instants
        themselves come out in dict order, not time order. Entries
        keep their raw shapes — ``(fn, args)`` tuples, :class:`Event`
        handles (cancelled ones included) and :class:`_Chain` anchors
        (whose live size is ``len(argslist) - idx``). Read-only:
        mutating the schedule while iterating is undefined.
        """
        for time, bucket in self._buckets.items():
            if bucket.__class__ is list:
                for entry in bucket:
                    yield time, entry
            else:
                yield time, bucket

    def pending_instants(self) -> list:
        """Every distinct pending instant registered in the index.

        A copy of the heap. Unordered; an instant appears exactly once
        per index registration, so the validation layer can
        cross-check the index against the buckets.
        """
        return list(self._heap)

    @property
    def pending_live(self) -> int:
        """Number of scheduled events that will actually fire.

        Unlike :attr:`pending` this excludes lazily-deleted (cancelled)
        entries: it drops by one the moment :meth:`Event.cancel`
        happens, not when the dead entry surfaces. The validation
        layer cross-checks the cancellation bookkeeping against a
        bucket walk. O(pending), like :attr:`pending`.
        """
        return self.pending - self._cancelled

    def _file(self, time: float, entry) -> None:
        """Append ``entry`` to the bucket for ``time`` (creating it,
        and registering the instant in the heap, if new)."""
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = entry
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append(entry)
        else:
            buckets[time] = [bucket, entry]

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        Fast path: the entry cannot be cancelled and nothing is
        allocated beyond an ``(fn, args)`` pair. Use
        :meth:`schedule_cancellable` when a handle is needed.
        """
        time = self.now + delay
        # One guard for negatives, NaN (fails both compares) and inf.
        if not (delay >= 0.0 and time < _INF):
            self._reject(delay, time)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (fn, args)
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append((fn, args))
        else:
            buckets[time] = [bucket, (fn, args)]

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute time ``time`` ns."""
        if not (time >= self.now and time < _INF):
            self._reject_at(time)
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = (fn, args)
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append((fn, args))
        else:
            buckets[time] = [bucket, (fn, args)]

    def schedule_many(
        self, delay: float, fn: Callable[..., None], argslist: Iterable[tuple]
    ) -> int:
        """Schedule ``fn(*args)`` for every ``args`` tuple in ``argslist``.

        All members fire ``delay`` ns from now, in list order, exactly
        as the equivalent sequence of :meth:`schedule` calls would —
        but the whole train costs a single bucket entry (and at most
        one heap push). Returns the number of events scheduled (0 is a
        no-op).
        """
        time = self.now + delay
        if not (delay >= 0.0 and time < _INF):
            self._reject(delay, time)
        if not isinstance(argslist, (list, tuple)):
            argslist = list(argslist)
        n = len(argslist)
        if n == 0:
            return 0
        if n == 1:
            self._file(time, (fn, argslist[0]))
        else:
            self._file(time, _Chain(fn, argslist))
        return n

    def schedule_cancellable(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at_cancellable(self.now + delay, fn, *args)

    def schedule_at_cancellable(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> Event:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if not (time >= self.now and time < _INF):
            self._reject_at(time)
        event = Event(time, fn, args)
        event._sim = self
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = event
            heappush(self._heap, time)
        elif bucket.__class__ is list:
            bucket.append(event)
        else:
            buckets[time] = [bucket, event]
        return event

    def _reject(self, delay: float, time: float) -> None:
        """Raise the precise ValueError for a bad relative delay."""
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        raise ValueError(f"cannot schedule at non-finite time (delay={delay})")

    def _reject_at(self, time: float) -> None:
        """Raise the precise ValueError for a bad absolute time."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        raise ValueError(f"cannot schedule at non-finite time (time={time})")

    def _drain(self, t_end: float) -> int:
        """The unbudgeted dispatch core behind :meth:`run_until`.

        Executes every event with ``timestamp < t_end``, coalescing
        each instant's bucket under one clock update. Returns the
        number executed. The clock is left at the last executed
        timestamp; callers adjust it afterwards.
        """
        heap = self._heap
        pop = heappop
        take = self._buckets.pop
        processed = self._events_processed
        start = processed
        while heap and heap[0] < t_end:
            time = pop(heap)
            self.now = time
            bucket = take(time)
            cls = bucket.__class__
            if cls is tuple:  # singleton fast entry — the common case
                processed += 1
                args = bucket[1]
                if args:
                    bucket[0](*args)
                else:
                    bucket[0]()
                continue
            if cls is Event:  # lone cancellable entry (pumps, wakeups)
                if bucket.cancelled:
                    self._cancelled -= 1
                    continue
                bucket._sim = None
                processed += 1
                bucket.fn(*bucket.args)
                continue
            if cls is not list:
                bucket = (bucket,)
            for entry in bucket:
                cls = entry.__class__
                if cls is tuple:
                    processed += 1
                    args = entry[1]
                    if args:
                        entry[0](*args)
                    else:
                        entry[0]()
                elif cls is Event:
                    if entry.cancelled:
                        self._cancelled -= 1
                        continue
                    entry._sim = None
                    processed += 1
                    entry.fn(*entry.args)
                else:  # a _Chain: dispatch the (rest of the) train
                    chain_fn = entry.fn
                    argslist = entry.argslist
                    i = entry.idx
                    n = len(argslist)
                    while i < n:
                        args = argslist[i]
                        i += 1
                        processed += 1
                        chain_fn(*args)
                    entry.idx = n
        self._events_processed = processed
        return processed - start

    def _drain_limited(self, t_end: float, limit: int) -> int:
        """Budgeted dispatch (behind :meth:`run`): like :meth:`_drain`
        but stops after ``limit`` events, re-filing the unconsumed
        suffix of a partially-dispatched bucket so a later drain
        resumes in the exact same order."""
        heap = self._heap
        buckets = self._buckets
        processed = self._events_processed
        start = processed
        limit += processed
        while heap and heap[0] < t_end and processed < limit:
            time = heappop(heap)
            self.now = time
            bucket = buckets.pop(time)
            if bucket.__class__ is not list:
                bucket = [bucket]
            i = 0
            n_entries = len(bucket)
            while i < n_entries:
                if processed >= limit:
                    break
                entry = bucket[i]
                cls = entry.__class__
                if cls is tuple:
                    i += 1
                    processed += 1
                    entry[0](*entry[1])
                elif cls is Event:
                    i += 1
                    if entry.cancelled:
                        self._cancelled -= 1
                        continue
                    entry._sim = None
                    processed += 1
                    entry.fn(*entry.args)
                else:
                    chain_fn = entry.fn
                    argslist = entry.argslist
                    j = entry.idx
                    n = len(argslist)
                    while j < n and processed < limit:
                        args = argslist[j]
                        j += 1
                        processed += 1
                        chain_fn(*args)
                    entry.idx = j
                    if j < n:
                        break  # budget expired mid-train: keep anchor
                    i += 1
            if i < n_entries:
                # Budget expired mid-bucket. Re-file the unconsumed
                # suffix *ahead of* anything scheduled at this instant
                # during the partial dispatch — those entries carry
                # later submission order.
                rest = bucket[i:]
                tail = buckets.get(time)
                if tail is None:
                    heappush(heap, time)
                elif tail.__class__ is list:
                    rest.extend(tail)
                else:
                    rest.append(tail)
                buckets[time] = rest
                break
        self._events_processed = processed
        return processed - start

    def run_until(self, t_end: float) -> None:
        """Execute events in timestamp order until the clock reaches ``t_end``.

        Events scheduled exactly at ``t_end`` are *not* executed; the
        clock is left at ``t_end`` so back-to-back windows compose.
        The clock never moves backwards: ``t_end < now`` (or NaN)
        raises ``ValueError``, mirroring the schedulers.
        """
        if not t_end >= self.now:  # catches rewinds and NaN in one test
            raise ValueError(
                f"cannot run backwards (t_end={t_end}, now={self.now})"
            )
        self._drain(t_end)
        self.now = t_end

    def run(self, max_events: int = 100_000_000) -> None:
        """Execute all pending events (bounded by ``max_events``)."""
        executed = self._drain_limited(_INF, max_events)
        if executed >= max_events:
            if self.pending_live:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            # Only lazily-deleted (cancelled) entries remain — not
            # pending work, so a run of exactly ``max_events`` live
            # events with cancelled residue completes cleanly.
            self._heap.clear()
            self._buckets.clear()
            self._cancelled = 0


class Alarm:
    """A re-armable wakeup: at most one pending firing of ``fn()``.

    Replaces hand-managed cancellable :class:`Event` handles for
    wakeups re-armed on every state change (DRAM channel pumps, DMA
    device pumps, core issue wakes). ``time`` is the pending firing's
    instant, ``inf`` when none is pending, so the common "already armed
    early enough" case of :meth:`arm` is one float compare. Picklable
    with the object graph when ``fn`` is a bound method.
    """

    __slots__ = ("time", "_sim", "_fn", "_event")

    def __init__(self, sim: Simulator, fn: Callable[[], None]):
        self.time = _INF
        self._sim = sim
        self._fn = fn
        self._event = None

    def arm(self, at: float) -> None:
        """Fire at ``at`` unless a firing at or before ``at`` is pending.

        Otherwise cancel the pending firing and file one new firing via
        :meth:`Simulator.schedule_at_cancellable`, at the back of its
        instant. The compare uses ``at`` as given; the filing instant is
        clamped to ``now``, so arming in the past fires at the current
        instant.
        """
        if self.time <= at:
            return
        event = self._event
        if event is not None:
            event.cancel()
        sim = self._sim
        if at < sim.now:
            at = sim.now
        self.time = at
        self._event = sim.schedule_at_cancellable(at, self._fire)

    def _fire(self) -> None:
        self.time = _INF
        self._event = None
        self._fn()


class SimClock:
    """A picklable ``() -> sim.now`` callable.

    Components that need a clock closure must not capture it as a
    lambda — the whole object graph has to survive checkpoint pickling
    (``sim/checkpoint.py``), and a bound ``SimClock`` pickles by
    reference to the simulator it reads.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def __call__(self) -> float:
        return self._sim.now
