#!/usr/bin/env python
"""Checkpoint/preemption gate: kill-and-resume must be bit-identical.

``python tools/ckpt_check.py`` (``make ckpt``, part of ``make check``)
proves the checkpoint subsystem end-to-end, across real processes:

1. spawn a child running one fig03 point (quadrant 3, n=2 colocated —
   one of the committed fingerprint points) with
   ``REPRO_CKPT=events:5000`` pointed at a scratch blob;
2. wait for the first checkpoint to land, SIGTERM the child, and
   demand it exits with ``checkpoint.PREEMPT_EXIT_CODE`` (the
   graceful checkpoint-and-exit path, not the default signal death);
3. spawn a second child, which must *resume* from the blob; kill it
   again at a later checkpoint;
4. spawn a third child, which resumes and runs to completion; its
   :func:`~repro.validate.harness.result_fingerprint` must be
   bit-identical to the committed ``tests/data/fig03_fingerprint.json``
   entry for the point.

The whole scenario runs three times — (REPRO_KERNEL, REPRO_UNCORE) =
(on, on), (off, on) and (on, off) — so both DRAM channel
implementations and both uncore implementations are covered (the
off/off corner adds no new code path). The checkpoint blobs
reuse the run cache's RRC1+sha256 framing, so a corrupted blob is
quarantined and the run restarts fresh (covered by tier-1 tests).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BASELINE = ROOT / "tests" / "data" / "fig03_fingerprint.json"
POINT_LABEL = "q3.n2.colocated"
QUADRANT = 3
N_CORES = 2
WARMUP, MEASURE = 3_000.0, 9_000.0  # FIG03_FINGERPRINT_WINDOWS

#: seconds to wait for a checkpoint blob / child exit before giving up
POLL_TIMEOUT_S = 180.0
POLL_INTERVAL_S = 0.02


def child(out_path: str) -> int:
    """Run the fingerprint point; exit 75 if checkpoint-preempted."""
    # Same knob pinning as tools/fig03_check.py — the fingerprint is
    # the exact per-line simulation. REPRO_KERNEL and REPRO_UNCORE are
    # left alone: the parent drives them.
    for name in ("REPRO_VALIDATE", "REPRO_CHAOS", "REPRO_DDIO", "REPRO_BANK_REG"):
        os.environ.pop(name, None)

    from repro.experiments.quadrants import QUADRANTS, quadrant_experiment
    from repro.sim import checkpoint
    from repro.validate.harness import result_fingerprint

    experiment = quadrant_experiment(QUADRANTS[QUADRANT])
    try:
        result = experiment.run_colocated(N_CORES, WARMUP, MEASURE)
    except checkpoint.Preempted:
        # SIGTERM landed: the checkpoint is on disk, hand the exit
        # status to the supervisor-style parent.
        return checkpoint.PREEMPT_EXIT_CODE
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result_fingerprint(result), fh)
    return 0


def _spawn(
    ckpt_path: str, out_path: str, kernel: str, uncore: str
) -> subprocess.Popen:
    env = dict(os.environ)
    env["REPRO_KERNEL"] = kernel
    env["REPRO_UNCORE"] = uncore
    env["REPRO_CKPT"] = "events:5000"
    env["REPRO_CKPT_PATH"] = ckpt_path
    env.pop("REPRO_CKPT_DIR", None)
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", out_path],
        env=env,
    )


def _stat_ns(path: str) -> int:
    """mtime_ns of ``path``, or -1 while it does not exist."""
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return -1


def _wait_for_checkpoint(ckpt_path: str, after_ns: int, what: str) -> int:
    """Poll until the blob (re)appears newer than ``after_ns``."""
    deadline = time.monotonic() + POLL_TIMEOUT_S
    while time.monotonic() < deadline:
        stamp = _stat_ns(ckpt_path)
        if stamp > after_ns:
            return stamp
        time.sleep(POLL_INTERVAL_S)
    raise SystemExit(f"FAIL: {what}: no checkpoint within {POLL_TIMEOUT_S:.0f}s")


def _kill_at_checkpoint(proc: subprocess.Popen, what: str) -> None:
    """SIGTERM the child; it must checkpoint and exit 75."""
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=POLL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit(f"FAIL: {what}: child ignored SIGTERM")
    # Import lazily so the constant stays single-sourced.
    from repro.sim.checkpoint import PREEMPT_EXIT_CODE

    if code != PREEMPT_EXIT_CODE:
        raise SystemExit(
            f"FAIL: {what}: expected graceful preempt exit "
            f"{PREEMPT_EXIT_CODE}, got {code} (a plain signal death means "
            f"the SIGTERM-to-checkpoint handler never engaged)"
        )


def run_scenario(kernel: str, uncore: str, baseline: dict) -> None:
    tag = f"kernel={kernel} uncore={uncore}"
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = os.path.join(tmp, "host.ckpt")
        out_path = os.path.join(tmp, "fingerprint.json")

        print(f"[{tag}] run 1: kill at first checkpoint")
        proc = _spawn(ckpt_path, out_path, kernel, uncore)
        _wait_for_checkpoint(ckpt_path, -1, f"{tag} run 1")
        _kill_at_checkpoint(proc, f"{tag} run 1")
        # The preemption itself wrote the final (newest) blob — stamp
        # *after* exit so run 2's wait sees only checkpoints written by
        # the resumed child.
        stamp = _stat_ns(ckpt_path)

        print(f"[{tag}] run 2: resume, kill at a later checkpoint")
        proc = _spawn(ckpt_path, out_path, kernel, uncore)
        _wait_for_checkpoint(ckpt_path, stamp, f"{tag} run 2")
        _kill_at_checkpoint(proc, f"{tag} run 2")

        print(f"[{tag}] run 3: resume to completion")
        proc = _spawn(ckpt_path, out_path, kernel, uncore)
        code = proc.wait(timeout=POLL_TIMEOUT_S * 2)
        if code != 0:
            raise SystemExit(
                f"FAIL: {tag} run 3: resumed child exited {code}"
            )
        with open(out_path, "r", encoding="utf-8") as fh:
            fingerprint = json.load(fh)

    expected = baseline[POINT_LABEL]
    diffs = [
        name for name, value in expected.items()
        if fingerprint.get(name) != value
    ]
    if diffs:
        raise SystemExit(
            f"FAIL: {tag}: twice-resumed {POINT_LABEL} diverges "
            f"from the committed fingerprint in: {', '.join(sorted(diffs))}"
        )
    print(
        f"[{tag}] ok: twice-killed, twice-resumed run is bit-identical "
        f"to the committed {POINT_LABEL} fingerprint"
    )


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        return child(sys.argv[2])

    if not BASELINE.exists():
        print(f"FAIL: no committed baseline at {BASELINE}")
        return 1
    with open(BASELINE, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if POINT_LABEL not in baseline:
        print(f"FAIL: {BASELINE} has no {POINT_LABEL!r} entry")
        return 1

    for kernel, uncore in (("on", "on"), ("off", "on"), ("on", "off")):
        run_scenario(kernel, uncore, baseline)

    print("ckpt check passed: SIGTERM-killed runs resume bit-identically "
          "with the DRAM and uncore kernels on and off")
    return 0


if __name__ == "__main__":
    sys.exit(main())
