#!/usr/bin/env python3
"""Host-network benchmark: time what a researcher waits for.

Run from the root of a checkout::

    python3 perfbench/run.py --workload blue_read --seed 1 --seconds 20 --trace 0

Each run starts fresh processes (so set-up time and peak memory are
honest): a few that only import the simulator, then one worker that
checks a held-out seed's sweep and times sweeps of ``--seed`` for
``--seconds``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
The line before it records provenance and the determinism digests.
README.md explains the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

#: the names in workloads.WORKLOADS (not imported here: this process
#: must not import the simulator)
WORKLOADS = ("blue_read", "red_readwrite", "rack_ddio_incast")
#: knobs that swap the drive path (invariant probes, fault injection,
#: chunked checkpointed drive, watchdog): timing them measures a
#: different program
REFUSED_ENV_PREFIXES = ("REPRO_VALIDATE", "REPRO_CHAOS", "REPRO_CKPT", "REPRO_WATCHDOG")
#: checked on every run, never used to set bounds; fixed, so its
#: digest must be identical across every run of the benchmark
HELD_OUT_SEED = 7_777_777
#: fresh processes that only time the import (set-up samples)
IMPORT_PROBES = 5
#: every run must finish well inside the 180 s a run is allowed
RUN_DEADLINE_S = 170.0
#: ledger health: share of samples charged to a named repro module
MIN_NAMED_FRAC = 0.90

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
}
#: modules ("<package>.<module>") and packages whose self time is reported
LEDGER_SELF = (
    "sim", "sim.engine", "sim.records", "sim.credit",
    "dram", "dram.kernel", "dram.address", "dram.controller",
    "uncore", "uncore.kernel", "uncore.llc",
    "cpu",
    "pcie", "pcie.device", "pcie.link", "pcie.nic",
    "net", "net.rdma",
    "topology", "topology.fabric",
    "telemetry", "telemetry.counters",
)
LEDGER_INCL = ("dram", "topology.fabric")
#: simulated counts from RunResult/ClusterResult and the engine
COUNT_UNITS = {
    "sim.events": "count",
    "sim.events_per_line": "events/line",
    "dram.lines": "count",
    "dram.acts_per_line": "acts/line",
    "dram.row_miss_ratio": "ratio",
    "dram.turnarounds": "count",
    "dram.wpq_full_frac": "ratio",
    "dram.bw_util": "ratio",
    "uncore.cha.admission_delay_ns": "ns",
    "uncore.cha.write_waiting": "entries",
    "uncore.iio.write_occ": "entries",
    "uncore.llc.miss_ratio": "ratio",
    "topology.fabric.lines_forwarded": "count",
    "topology.fabric.lines_dropped": "count",
    "topology.fabric.edge_pause_frac": "ratio",
    "net.rdma.goodput_frac": "ratio",
    "pcie.device_lines": "count",
    "pcie.p2m_write_latency_ns": "ns",
    "cpu.c2m_read_latency_ns": "ns",
    "cpu.lfb_occ": "entries",
    "fidelity.regime_mismatch": "count",
    "fidelity.p2m_degradation_max": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{key}.self_s": "s" for key in LEDGER_SELF}
    units.update({f"{key}.incl_s": "s" for key in LEDGER_INCL})
    units["other.self_s"] = "s"
    units["sim.ns_per_event"] = "ns"
    units.update(COUNT_UNITS)
    units.update(
        {
            "setup.import_s": "s",
            "setup.build_s": "s",
            "trace.overhead_frac": "ratio",
            "trace.named_frac": "ratio",
            "trace.samples": "count",
        }
    )
    return units


def _fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    try:
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return head[5:]


def _worker(root: str, args: list, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"), *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    refused = sorted(
        k for k, v in os.environ.items() if v and k.startswith(REFUSED_ENV_PREFIXES)
    )
    if refused:
        return _fail(f"refusing to time with {', '.join(refused)} set", 2)
    if args.seconds <= 0:
        return _fail("--seconds must be positive", 2)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return _fail(f"no simulator source at {root}/src/repro; run from the repo root")

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--held-out-seed", str(HELD_OUT_SEED)]
    try:
        import_s = [
            _worker(root, [*common, "--seconds", "0", "--import-only"], deadline)["import_s"]
            for _ in range(IMPORT_PROBES)
        ]
        record = _worker(
            root,
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(str(exc))
    import_s.append(record["import_s"])

    sweeps = record["sweeps"]
    held_out = record["held_out"]
    plain = [s for s in sweeps if not s["traced"]]
    traced = [s for s in sweeps if s["traced"]]
    attempted = held_out["windows"] + sum(s["windows"] for s in sweeps)
    failures = {f"held_out.{k}": v for k, v in held_out["failures"].items()}
    for i, sweep in enumerate(sweeps):
        failures.update({f"sweep{i}.{k}": v for k, v in sweep["failures"].items()})
    digests = sorted({s["digest"] for s in sweeps})
    correct = not failures and len(digests) == 1

    counts = plain[0]["counts"]
    run_s = _window_medians(plain, "window_run_s")
    build_s = _window_medians(plain, "window_setup_s")
    if args.trace:
        metrics, named_frac = _per_layer(record, traced, counts, run_s)
        metrics["setup.import_s"] = median(import_s)
        metrics["setup.build_s"] = build_s
        correct = correct and named_frac >= MIN_NAMED_FRAC
        units = per_layer_units()
    else:
        metrics = {
            "run_s": run_s,
            "setup_s": median(import_s) + build_s,
            "lines_per_s": counts["dram.lines"] / run_s,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    print(json.dumps({"provenance": {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "digest": digests[0] if len(digests) == 1 else digests,
        "held_out_digest": held_out["digest"],
        "sweeps": len(sweeps),
        "run_wall_s": median(s["wall_run_s"] for s in plain),
        "sweep_run_s": [sum(s["window_run_s"]) for s in sweeps],
        "failures": failures,
        "knobs": record["knobs"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
    }}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _window_medians(sweeps: list, key: str) -> float:
    """Sum over a sweep's windows of each window's median across sweeps.

    Every sweep of a run has the same windows in the same order; the
    per-window median drops a window that a burst of machine noise hit
    in one sweep, where a median of sweep totals keeps it.
    """
    return sum(median(times) for times in zip(*(s[key] for s in sweeps)))


def _per_layer(record, traced, counts, run_s):
    """The traced run's ledger, per sweep, plus the simulated counts."""
    ledger = record["ledger"]
    n = len(traced)
    metrics = {}
    for key in LEDGER_SELF:
        metrics[f"{key}.self_s"] = ledger["self"].get(key, 0.0) / n
    for key in LEDGER_INCL:
        metrics[f"{key}.incl_s"] = ledger["incl"].get(key, 0.0) / n
    metrics["other.self_s"] = ledger["other"] / n
    metrics["sim.ns_per_event"] = run_s * 1e9 / counts["sim.events"]
    metrics.update({k: counts[k] for k in COUNT_UNITS})
    traced_run_s = _window_medians(traced, "window_run_s")
    metrics["trace.overhead_frac"] = traced_run_s / run_s - 1.0
    samples = ledger["samples"]
    named_frac = 1.0 - ledger["other_samples"] / samples if samples else 0.0
    metrics["trace.named_frac"] = named_frac
    metrics["trace.samples"] = samples
    return metrics, named_frac


if __name__ == "__main__":
    sys.exit(main())
