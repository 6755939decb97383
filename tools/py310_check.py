#!/usr/bin/env python
"""Python-version-floor gate (``requires-python = ">=3.10"``).

The dev interpreter is newer than the floor, so 3.11+-only APIs (like
``BaseException.add_note``, which once slipped into the parallel
executor) pass every test locally and break only for 3.10 users. This
gate makes the floor enforceable on any machine:

1. **API lint** (always runs): scan the tree for 3.11+/3.12+-only
   constructs — ``tomllib``, ``ExceptionGroup``, ``except*``,
   ``.add_note(``, ``asyncio.TaskGroup``, ``datetime.UTC``,
   ``StrEnum``, ``typing.Self`` — and fail unless the line carries a
   ``# py310-ok`` comment marking a guarded use.
2. **Compile + smoke** (when a 3.10 interpreter is present): byte-
   compile the whole tree under real 3.10, then run a validated
   mini-simulation (``REPRO_VALIDATE=1``) in it. Skipped with a
   notice when no 3.10 interpreter exists; the lint still gates.

Exit status 0 = floor holds; 1 = violations (each printed with
file:line).
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "benchmarks", "tools")
SUPPRESS = "# py310-ok"

#: (pattern, what it is) — APIs absent from Python 3.10.
BANNED = [
    (re.compile(r"\bimport\s+tomllib\b"), "tomllib (3.11+)"),
    (re.compile(r"\bfrom\s+tomllib\b"), "tomllib (3.11+)"),
    (re.compile(r"\bExceptionGroup\b"), "ExceptionGroup (3.11+)"),
    (re.compile(r"\bexcept\s*\*"), "except* (3.11+)"),
    (re.compile(r"\.add_note\("), "BaseException.add_note (3.11+)"),
    (re.compile(r"\basyncio\.TaskGroup\b"), "asyncio.TaskGroup (3.11+)"),
    (re.compile(r"\bdatetime\.UTC\b"), "datetime.UTC (3.11+)"),
    (re.compile(r"\bStrEnum\b"), "enum.StrEnum (3.11+)"),
    (re.compile(r"\btyping\.Self\b"), "typing.Self (3.11+)"),
    (re.compile(r"\bitertools\.batched\b"), "itertools.batched (3.12+)"),
]

SMOKE = """
import repro
from repro import Host, RequestKind, cascade_lake

host = Host(cascade_lake(), validate=True)
host.add_stream_cores(1, store_fraction=0.0)
host.add_raw_dma(RequestKind.WRITE, name="dma")
result = host.run(1_000.0, 3_000.0)
assert result.invariant_checks > 0, "validator ran no checks"
assert result.mem_bw_total > 0, "no traffic simulated"

# SoA channel kernel: drive the default (kernel-on) path explicitly and
# cross-check its incremental structures.
import repro.dram.kernel as kernel_mod
from repro.sim.records import Request, RequestSource

assert kernel_mod.kernel_enabled(), "REPRO_KERNEL default must be on"

def kernel_smoke():
    from repro.dram.controller import Channel
    from repro.dram.timing import DDR4_2933
    from repro.sim.engine import Simulator
    from repro.telemetry.counters import CounterHub

    sim = Simulator()
    channel = Channel(sim, CounterHub(), channel_id=0, timing=DDR4_2933,
                      n_banks=8, rpq_size=64, wpq_size=64)
    assert channel.kernel is not None, "kernel not bound"
    for i in range(16):
        kind = RequestKind.READ if i % 2 else RequestKind.WRITE
        req = Request(RequestSource.C2M, kind, i)
        req.channel_id, req.bank_id, req.row_id = 0, i % 8, i % 3
        if kind is RequestKind.READ:
            channel.reserve_read(); channel.enqueue_read(req)
        else:
            channel.reserve_write(); channel.enqueue_write(req)
    sim.run_until(100_000.0)
    channel.kernel.verify_consistency()
    stats = channel.stats
    assert stats.lines_read == 8 and stats.lines_written == 8
    open_row, _, prep = channel.kernel.bank_state()
    assert len(open_row) == 8 and not any(prep), "bank_state snapshot"

kernel_smoke()

print(f"3.10 smoke: {result.invariant_checks} invariant checks passed; "
      "kernel smoke OK")
"""


def python_files() -> list:
    self_path = Path(__file__).resolve()
    files = []
    for top in CHECKED_DIRS:
        root = REPO / top
        if root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*.py"))
                # This file's pattern table would match itself.
                if p.resolve() != self_path
            )
    return files


def lint_api_floor() -> list:
    """Lines using 3.11+-only APIs without a ``# py310-ok`` marker."""
    problems = []
    for path in python_files():
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if SUPPRESS in line:
                continue
            for pattern, label in BANNED:
                if pattern.search(line):
                    rel = path.relative_to(REPO)
                    problems.append(f"{rel}:{lineno}: {label}: {line.strip()}")
    return problems


def find_py310() -> str:
    """A CPython 3.10 interpreter, or an empty string."""
    candidates = [shutil.which("python3.10") or ""]
    candidates += sorted(
        glob.glob(os.path.expanduser("~/.pyenv/versions/3.10*/bin/python3.10"))
    )
    for candidate in candidates:
        if not candidate:
            continue
        try:
            probe = subprocess.run(
                [candidate, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return candidate
    return ""


def run_under_py310(py310: str) -> list:
    """Byte-compile the tree and run a validated smoke under 3.10."""
    problems = []
    compile_cmd = [py310, "-m", "compileall", "-q"]
    compile_cmd += [str(REPO / d) for d in CHECKED_DIRS if (REPO / d).is_dir()]
    result = subprocess.run(compile_cmd, capture_output=True, text=True)
    if result.returncode != 0:
        problems.append(
            "compileall under 3.10 failed:\n" + (result.stdout + result.stderr).strip()
        )
        return problems

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_VALIDATE"] = "1"
    env["REPRO_CACHE"] = "off"
    result = subprocess.run(
        [py310, "-c", SMOKE], capture_output=True, text=True, env=env
    )
    if result.returncode != 0:
        problems.append(
            "validated smoke under 3.10 failed:\n"
            + (result.stdout + result.stderr).strip()
        )
    else:
        print(result.stdout.strip())
    return problems


def main() -> int:
    problems = lint_api_floor()
    n_files = len(python_files())
    if not problems:
        print(f"API-floor lint: {n_files} files clean of 3.11+-only APIs")

    py310 = find_py310()
    if py310:
        problems += run_under_py310(py310)
    else:
        print("note: no python3.10 found; API-floor lint still gates")

    if problems:
        print(f"\npython-floor violations ({len(problems)}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("python >=3.10 floor: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
