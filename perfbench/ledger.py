"""SIGPROF stack sampler that charges host time to ``repro`` modules.

Every ``interval_s`` of process CPU time the kernel delivers SIGPROF;
the handler walks the interrupted Python stack. The innermost frame
whose module is ``repro.<package>.<module>`` gets the sample as *self*
time; every ``repro`` module and package on the stack gets it as
*inclusive* time (once per sample, however deep the recursion).
Samples are only kept while a span is open, so the harness's own
bookkeeping between windows is never charged to a layer. A sample with
no ``repro`` frame on the stack is charged to ``other``.

Nothing here touches the simulator: it observes the stack from outside,
so simulated results are identical with the sampler on or off.
"""

from __future__ import annotations

import contextlib
import signal
from collections import Counter
from typing import Dict, Iterator

#: ~250 samples/s of CPU time: enough for a few thousand samples per
#: sweep, with no overhead measurable against run-to-run noise.
INTERVAL_S = 0.004

_PREFIX = "repro."


class Ledger:
    """Per-module sample counts over the spans opened with :meth:`span`."""

    def __init__(self):
        self.samples = 0
        self.other = 0
        #: keyed by "<package>.<module>" and by "<package>" alone
        self.self_counts: Counter = Counter()
        self.incl_counts: Counter = Counter()
        self._active = False
        self._sampling = False

    def _on_sample(self, signum, frame) -> None:
        if not self._active or frame.f_globals.get("__name__") == "speed":
            return  # outside spans, or inside a speed probe
        self.samples += 1
        innermost = None
        seen = set()
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name.startswith(_PREFIX):
                module = name[len(_PREFIX) :]
                if innermost is None:
                    innermost = module
                seen.add(module)
                seen.add(module.split(".", 1)[0])
            frame = frame.f_back
        if innermost is None:
            self.other += 1
            return
        self.self_counts[innermost] += 1
        package = innermost.split(".", 1)[0]
        if package != innermost:
            self.self_counts[package] += 1
        self.incl_counts.update(seen)

    def start(self) -> None:
        """Install the handler and arm the CPU-time interval timer."""
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._sampling = True

    def stop(self) -> None:
        """Disarm the timer and restore the default handler."""
        if self._sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            self._sampling = False

    @contextlib.contextmanager
    def span(self) -> Iterator[None]:
        """Attribute samples taken inside the block to layers."""
        self._active = True
        try:
            yield
        finally:
            self._active = False

    def seconds(self, total_s: float) -> Dict[str, Dict[str, float]]:
        """Self and inclusive seconds per module/package, plus ``other``.

        Each sample stands for an equal share of ``total_s``, the time
        spent in spans, so self seconds (with ``other``) sum to it.
        """
        per_sample = total_s / self.samples if self.samples else 0.0
        return {
            "self": {k: v * per_sample for k, v in self.self_counts.items()},
            "incl": {k: v * per_sample for k, v in self.incl_counts.items()},
            "other": self.other * per_sample,
        }
