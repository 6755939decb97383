#!/usr/bin/env python
"""Profiling helper: where does a fig03 point actually spend time?

``python tools/profile_check.py`` (``make profile``) runs one short
fig03 point (quadrant 3, n=2 colocated — the same point the
checkpoint gate uses) in-process under cProfile and prints the top
functions by cumulative time. This is a diagnostic, not a gate: use
it to find the next hot path before reaching for a SoA kernel, and to
confirm a kernel actually moved the profile afterwards.

The run is pinned to the shapes the perf work targets:

* ``REPRO_JOBS=1`` — in-process, so cProfile sees the simulation
  instead of a supervisor waiting on worker processes;
* a throwaway ``REPRO_CACHE_DIR`` — a run-cache hit would profile
  nothing;
* no validate/chaos/DDIO/bank-reg overrides — the plain default
  simulation, same as the fingerprint gates.

``REPRO_KERNEL`` and ``REPRO_UNCORE`` are left to the caller, so the
object-at-a-time reference paths and the SoA kernels can be profiled
side by side::

    make profile                       # both kernels on (defaults)
    REPRO_UNCORE=off make profile      # reference CHA/IIO path
    REPRO_KERNEL=off make profile      # reference DRAM channel path

Options: ``--sort tottime`` (default ``cumulative``), ``--top N``
(default 20).
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

QUADRANT = 3
N_CORES = 2
WARMUP, MEASURE = 3_000.0, 9_000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="number of rows to print (default: 20)",
    )
    args = parser.parse_args()

    os.environ["REPRO_JOBS"] = "1"
    for name in ("REPRO_VALIDATE", "REPRO_CHAOS", "REPRO_DDIO", "REPRO_BANK_REG"):
        os.environ.pop(name, None)

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        from repro.dram.kernel import kernel_enabled
        from repro.experiments.quadrants import QUADRANTS, quadrant_experiment
        from repro.uncore.kernel import uncore_enabled

        experiment = quadrant_experiment(QUADRANTS[QUADRANT])
        profiler = cProfile.Profile()
        profiler.enable()
        result = experiment.run_colocated(N_CORES, WARMUP, MEASURE)
        profiler.disable()

    print(
        f"profile_check: q{QUADRANT}.n{N_CORES}.colocated, "
        f"warmup={WARMUP:.0f} measure={MEASURE:.0f}, "
        f"{result.events_processed} events "
        f"(REPRO_KERNEL={'on' if kernel_enabled() else 'off'}, "
        f"REPRO_UNCORE={'on' if uncore_enabled() else 'off'})"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
