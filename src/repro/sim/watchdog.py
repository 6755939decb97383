"""No-progress (livelock) detection for chunked simulation drives.

Two shipped bug classes motivated this module: the PR 6 wheel-cursor
backwards clock and the PR 7 float-boundary pump livelock, where a
DRAM pump re-armed itself at a ``next_ready`` instant that token
accrual kept landing ulps short of — the clock froze while the event
count grew without bound, and the process simply hung. Both share one
observable signature: **events keep firing but simulated time does not
advance**, even though pending work exists.

:class:`Watchdog` detects exactly that signature. ``Host.run`` probes
it between event chunks when ``REPRO_WATCHDOG`` is set (see
:func:`budget_from_env`): whenever the clock advances the event
baseline resets; if more than ``budget`` events burn at a frozen
clock, a structured :class:`StallError` is raised carrying a state
dump — clock, event counters, pending depth, per-channel pump state
and every credit pool with registered waiters — instead of hanging the
run. Budgets are generous (default 500k events) because legitimate
same-instant trains are common; a true livelock blows through any
budget in milliseconds.

The watchdog is pure observation: it never perturbs the schedule, so
enabling it cannot change simulation results.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

DEFAULT_BUDGET = 500_000


class StallError(RuntimeError):
    """A no-progress livelock, with component/clock diagnostics.

    ``details`` maps diagnostic keys (``clock_ns``,
    ``events_processed``, ``events_at_stuck_clock``, ``pending``,
    ``pending_live``, ``budget``, plus ``channels`` / ``pools`` when a
    host was available) to their values at detection time.
    """

    def __init__(self, message: str, details: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.details: Dict[str, Any] = dict(details or {})


def budget_from_env() -> Optional[int]:
    """The ``REPRO_WATCHDOG`` event budget, or ``None`` when off.

    ``off``/unset disables the watchdog (and with it the chunked drive
    it needs, unless checkpointing asks for one); ``on`` uses
    :data:`DEFAULT_BUDGET`; an integer sets the budget directly.
    """
    raw = os.environ.get("REPRO_WATCHDOG", "").strip().lower()
    if raw in ("", "off", "0", "no", "false"):
        return None
    if raw in ("on", "1", "yes", "true"):
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WATCHDOG must be on/off or an event budget, got {raw!r}"
        ) from None
    if budget <= 0:
        raise ValueError(f"REPRO_WATCHDOG budget must be positive, got {budget}")
    return budget


def from_env() -> Optional["Watchdog"]:
    """A :class:`Watchdog` per ``REPRO_WATCHDOG``, or ``None`` when off."""
    budget = budget_from_env()
    return None if budget is None else Watchdog(budget)


def dump_state(sim, host=None) -> Dict[str, Any]:
    """A diagnostic snapshot of scheduler (and, if given, host) state."""
    details: Dict[str, Any] = {
        "clock_ns": sim.now,
        "events_processed": sim.events_processed,
        "pending": sim.pending,
        "pending_live": sim.pending_live,
    }
    if host is None:
        return details
    channels = []
    for channel in getattr(getattr(host, "mc", None), "channels", ()):
        # The SoA kernel, when on, owns the channel's scheduler state.
        kernel = channel.kernel
        if kernel is None:
            busy, pump = channel._busy_until, channel._pump_alarm
        else:
            busy, pump = kernel.ch_busy, kernel.pump_alarm
        channels.append(
            {
                "channel": channel.channel_id,
                "mode": channel.mode.value,
                "busy_until_ns": busy,
                "pump_armed_at_ns": pump.time if pump.time < float("inf") else None,
            }
        )
    details["channels"] = channels
    pools = []
    for pool in host.domains.pools():
        if pool.waiter_count == 0:
            continue
        pools.append(
            {
                "pool": pool.name,
                "waiters": pool.waiter_count,
                "in_use": pool.occ.value,
                "capacity": pool.capacity,
                "reserved": pool.reserved,
            }
        )
    details["pools_with_waiters"] = pools
    return details


class Watchdog:
    """Raise :class:`StallError` when events burn at a frozen clock.

    Probe :meth:`observe` between event chunks. Any clock advance
    resets the baseline, so only a genuinely stuck clock — the
    signature of credit-waiter starvation and pump re-arm loops —
    accumulates toward the budget.
    """

    __slots__ = ("budget", "_last_now", "_events_at_advance")

    def __init__(self, budget: int = DEFAULT_BUDGET):
        if budget <= 0:
            raise ValueError(f"watchdog budget must be positive, got {budget}")
        self.budget = budget
        self._last_now = -1.0
        self._events_at_advance = 0

    def arm(self, sim) -> None:
        """Reset the baseline to the simulator's current position."""
        self._last_now = sim.now
        self._events_at_advance = sim.events_processed

    def observe(self, host_or_sim) -> None:
        """Check progress; raises :class:`StallError` on a stall."""
        sim = getattr(host_or_sim, "sim", host_or_sim)
        if sim.now > self._last_now:
            self._last_now = sim.now
            self._events_at_advance = sim.events_processed
            return
        burned = sim.events_processed - self._events_at_advance
        if burned < self.budget:
            return
        host = host_or_sim if host_or_sim is not sim else None
        details = dump_state(sim, host)
        details["events_at_stuck_clock"] = burned
        details["budget"] = self.budget
        raise StallError(
            f"no progress: {burned} events executed with the clock stuck at "
            f"{sim.now:.3f} ns ({sim.pending_live} live events pending) — "
            f"likely a re-arm loop or credit-waiter starvation",
            details,
        )
