"""Unit tests for the discrete-event engine."""

import math
import pickle

import pytest

from repro.sim.engine import Alarm, Event, Simulator


def test_schedule_and_run_until_executes_in_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]
    assert sim.now == 10.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(3.0, order.append, tag)
    sim.run_until(4.0)
    assert order == [0, 1, 2, 3, 4]


def test_run_until_excludes_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, 1)
    sim.run_until(10.0)
    assert fired == []
    sim.run_until(10.0001)
    assert fired == [1]


def test_clock_advances_to_event_time_during_execution():
    sim = Simulator()
    seen = []
    sim.schedule(7.5, lambda: seen.append(sim.now))
    sim.run_until(100.0)
    assert seen == [7.5]


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_cancellable(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at_cancellable(4.0, lambda: None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_schedule_rejects_non_finite_delay(bad):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(bad, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(bad, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_cancellable(bad, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at_cancellable(bad, lambda: None)
    assert sim.pending == 0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule_cancellable(1.0, fired.append, "x")
    event.cancel()
    sim.run_until(10.0)
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule_cancellable(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until(2.0)


def test_cancellable_event_fires_when_not_cancelled():
    sim = Simulator()
    got = []
    event = sim.schedule_cancellable(2.0, got.append, "y")
    assert isinstance(event, Event)
    assert event.time == 2.0
    sim.run_until(5.0)
    assert got == ["y"]


def test_fast_path_and_cancellable_interleave_in_seq_order():
    """Tuple entries and Event entries share one heap and one total
    order: (time, scheduling sequence), regardless of entry kind."""
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "t1")
    sim.schedule_cancellable(3.0, order.append, "c1")
    sim.schedule(3.0, order.append, "t2")
    cancelled = sim.schedule_cancellable(3.0, order.append, "c2")
    sim.schedule(1.0, order.append, "early")
    cancelled.cancel()
    sim.run_until(10.0)
    assert order == ["early", "t1", "c1", "t2"]


def test_events_scheduled_during_execution_run_same_pass():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run_until(10.0)
    assert order == ["first", "second"]


def test_zero_delay_events_scheduled_during_execution_fire_same_timestamp():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, lambda: order.append("zero"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "peer")
    sim.run_until(10.0)
    # The zero-delay event lands at the same timestamp but a later
    # sequence number, so it fires after the already-queued peer.
    assert order == ["first", "peer", "zero"]


def test_run_executes_everything():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i), count.append, i)
    sim.run()
    assert len(count) == 10


def test_run_skips_cancelled_events():
    sim = Simulator()
    fired = []
    keep = sim.schedule_cancellable(1.0, fired.append, "keep")
    drop = sim.schedule_cancellable(2.0, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert not keep.cancelled


def test_run_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.run_until(10.0)
    assert sim.events_processed == 3


def test_pending_counts_heap_entries():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule_cancellable(2.0, lambda: None)
    assert sim.pending == 2


def test_event_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
    sim.schedule_cancellable(2.0, lambda a: got.append(a), "three")
    sim.run_until(3.0)
    assert got == [(1, "two"), "three"]


def test_back_to_back_windows_compose():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(15.0, fired.append, "b")
    sim.run_until(10.0)
    assert fired == ["a"]
    sim.run_until(20.0)
    assert fired == ["a", "b"]


def test_fast_path_matches_event_path_ordering():
    """The same workload scheduled through either API produces the
    identical execution order (the fast path changed representation,
    not semantics)."""
    delays = [5.0, 1.0, 1.0, 3.0, 1.0, 9.0, 3.0]

    fast = Simulator()
    fast_order = []
    for i, d in enumerate(delays):
        fast.schedule(d, fast_order.append, i)
    fast.run_until(100.0)

    slow = Simulator()
    slow_order = []
    for i, d in enumerate(delays):
        slow.schedule_cancellable(d, slow_order.append, i)
    slow.run_until(100.0)

    assert fast_order == slow_order
    assert fast.events_processed == slow.events_processed


def test_now_is_finite_after_windows():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(50.0)
    assert math.isfinite(sim.now)


def test_run_until_backwards_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(10.0)
    with pytest.raises(ValueError):
        sim.run_until(5.0)
    # The failed call must not have rewound the clock.
    assert sim.now == 10.0


def test_run_until_rejects_nan_boundary():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run_until(float("nan"))


def test_run_until_same_time_is_noop():
    sim = Simulator()
    sim.run_until(10.0)
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_run_max_events_exact_with_cancelled_residue():
    """Exactly max_events live events plus trailing cancelled entries
    must not trip the runaway guard: lazily-deleted events are not
    pending work."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    for _ in range(3):
        sim.schedule_cancellable(100.0, fired.append, "never").cancel()
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.pending == 0


def test_run_max_events_still_raises_with_live_remainder():
    sim = Simulator()
    for i in range(6):
        sim.schedule(float(i + 1), lambda: None)
    with pytest.raises(RuntimeError):
        sim.run(max_events=5)



# ----------------------------------------------------------------------
# Alarm: the re-armable wakeup
# ----------------------------------------------------------------------


class _Ringer:
    """Picklable alarm owner that logs the instant of every firing."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []
        self.alarm = Alarm(sim, self.ring)
        self.seen_time = None

    def ring(self):
        self.seen_time = self.alarm.time
        self.fired.append(self.sim.now)


class TestAlarm:
    @pytest.mark.parametrize("later", [10.0, 25.0, math.inf])
    def test_arming_at_or_after_the_pending_firing_is_a_no_op(self, later):
        sim = Simulator()
        owner = _Ringer(sim)
        owner.alarm.arm(10.0)
        owner.alarm.arm(later)
        assert owner.alarm.time == 10.0
        # Nothing new was filed: no cancelled residue, one live entry.
        assert sim.pending == 1
        assert sim.pending_live == 1
        sim.run()
        assert owner.fired == [10.0]

    def test_arming_earlier_cancels_and_files_exactly_one(self):
        sim = Simulator()
        owner = _Ringer(sim)
        owner.alarm.arm(10.0)
        owner.alarm.arm(4.0)
        assert owner.alarm.time == 4.0
        # The old firing stays filed as cancelled residue.
        assert sim.pending == 2
        assert sim.pending_live == 1
        owner.alarm.arm(2.0)
        assert sim.pending == 3
        assert sim.pending_live == 1
        sim.run()
        assert owner.fired == [2.0]
        assert sim.events_processed == 1

    def test_earlier_firing_files_at_the_back_of_its_instant(self):
        sim = Simulator()
        owner = _Ringer(sim)
        order = []
        owner.alarm.arm(9.0)
        sim.schedule(5.0, lambda: order.append(("before", len(owner.fired))))
        owner.alarm.arm(5.0)
        sim.schedule(5.0, lambda: order.append(("after", len(owner.fired))))
        sim.run()
        # Submission order: filed behind "before", ahead of "after".
        assert order == [("before", 0), ("after", 1)]
        assert owner.fired == [5.0]

    def test_firing_resets_time_to_infinity(self):
        sim = Simulator()
        owner = _Ringer(sim)
        assert owner.alarm.time == math.inf  # unarmed
        owner.alarm.arm(3.0)
        sim.run_until(10.0)
        assert owner.fired == [3.0]
        assert owner.seen_time == math.inf  # already reset inside fn()
        assert owner.alarm.time == math.inf
        # Re-armable once it has fired.
        owner.alarm.arm(12.0)
        sim.run()
        assert owner.fired == [3.0, 12.0]

    def test_past_arm_compares_unclamped_and_files_at_now(self):
        """Arming before ``now`` fires at ``now``; against a firing
        already pending at ``now`` it still re-files, at the back of
        the instant (the compare uses the requested time)."""
        sim = Simulator()
        owner = _Ringer(sim)
        order = []
        sim.run_until(5.0)
        owner.alarm.arm(5.0)
        # Probe filed behind the first firing: it sees the alarm fired
        # only if the past arm below left that firing in place.
        sim.schedule(0.0, lambda: order.append(len(owner.fired)))
        owner.alarm.arm(1.0)
        assert owner.alarm.time == 5.0
        assert sim.pending_live == 2
        sim.run()
        assert owner.fired == [5.0]
        assert order == [0]

    def test_pending_live_counts_one_firing(self):
        sim = Simulator()
        owner = _Ringer(sim)
        for at in (50.0, 40.0, 40.0, 45.0, 30.0, 60.0, 20.0):
            owner.alarm.arm(at)
            assert sim.pending_live == 1
        sim.run()
        assert owner.fired == [20.0]
        assert sim.pending_live == 0

    def test_armed_alarm_survives_pickling(self):
        sim = Simulator()
        owner = _Ringer(sim)
        owner.alarm.arm(30.0)
        owner.alarm.arm(7.0)
        sim.run_until(5.0)
        clone_sim, clone = pickle.loads(pickle.dumps((sim, owner)))
        assert clone.alarm.time == 7.0
        # Still one live firing, and re-arming the clone cancels it.
        clone.alarm.arm(6.0)
        assert clone_sim.pending_live == 1
        clone_sim.run()
        sim.run()
        assert clone.fired == [6.0]
        assert owner.fired == [7.0]
