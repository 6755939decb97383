"""One fresh benchmark process: import the simulator, time its sweeps.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object as its last line of output. With
``--import-only`` it only times the import (one set-up sample).
Otherwise it runs the held-out seed's sweep once (checked, untimed),
then timed sweeps of ``--seed`` for about ``--seconds``. With
``--trace 1`` every other sweep runs under the SIGPROF ledger, so the
untraced sweeps in between give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import speed


def _import_repro() -> float:
    """Seconds to import the simulator, at the reference speed."""
    with speed.SpeedMeter() as meter:
        t0 = meter.clock()
        import repro  # noqa: F401
        import repro.core.regimes  # noqa: F401
        import repro.net.rdma  # noqa: F401

        elapsed = meter.clock() - t0
    return elapsed * meter.scale


def _sweep_record(sweep, traced: bool) -> dict:
    return {
        "traced": traced,
        "window_setup_s": [w.setup_s * w.scale for w in sweep.windows],
        "window_run_s": [w.run_s * w.scale for w in sweep.windows],
        "wall_run_s": sum(w.run_s for w in sweep.windows),
        "windows": len(sweep.windows),
        "failures": sweep.failures,
        "counts": sweep.counts,
        "digest": sweep.digest,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--held-out-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    import_s = _import_repro()
    import repro

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 3
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from ledger import Ledger
    from workloads import WORKLOADS

    from repro.sim.knobs import KnobSet

    sweep_fn = WORKLOADS[args.workload]
    held_out = sweep_fn(args.held_out_seed, Ledger())
    record = {
        "import_s": import_s,
        "knobs": KnobSet.resolve().fingerprint(),
        "held_out": _sweep_record(held_out, False),
        "sweeps": [],
    }
    del held_out
    gc.collect()

    ledger = Ledger()
    plain = Ledger()
    traced_s = 0.0
    t_start = time.perf_counter()
    done = 0
    # Stop before a sweep that would end past --seconds; a traced run
    # needs one traced and one untraced sweep.
    while True:
        traced = bool(args.trace) and done % 2 == 1
        if traced:
            ledger.start()
        try:
            sweep = sweep_fn(args.seed, ledger if traced else plain)
        finally:
            ledger.stop()
        entry = _sweep_record(sweep, traced)
        if traced:
            traced_s += sum(entry["window_setup_s"]) + sum(entry["window_run_s"])
        record["sweeps"].append(entry)
        del sweep
        gc.collect()
        done += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (done + 1) / done > args.seconds and done >= 1 + args.trace:
            break
    if args.trace:
        record["ledger"] = {
            "samples": ledger.samples,
            "other_samples": ledger.other,
            **ledger.seconds(traced_s),
        }
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
