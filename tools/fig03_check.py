#!/usr/bin/env python
"""Cross-commit fig03 fingerprint gate.

``python tools/fig03_check.py`` re-runs the reduced fig03 slice
(quadrants 1 and 3, small windows; see
``repro.validate.harness.FIG03_FINGERPRINT_SLICE``) and compares every
RunResult field bit-for-bit against the committed baseline
``tests/data/fig03_fingerprint.json``. A refactor that claims to be
behaviour-preserving must leave this gate green.

The gate also re-runs the DDIO smoke slice (one quadrant-1 point with
``REPRO_DDIO=1``; see ``repro.validate.harness.DDIO_SMOKE_SLICE``)
against ``tests/data/ddio_fingerprint.json``, so the fifth-domain
(llc.ddio) path is locked bit-for-bit too.

``python tools/fig03_check.py --write`` refreshes both baselines —
only do this for changes that are *supposed* to alter simulated
behaviour, and say so in the commit message.

``--time`` additionally reports the sweep's wall-clock seconds; the
``make bench-kernel`` tier runs it cold-serial (``REPRO_JOBS=1``,
fresh cache dir) to track the end-to-end fig03 cost over time.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "tests", "data", "fig03_fingerprint.json"
)
DDIO_BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "tests", "data", "ddio_fingerprint.json"
)


def main() -> int:
    # The fingerprint is the exact per-line simulation: pin the knobs
    # that legitimately change results so ad-hoc environments cannot
    # fail (or trivially pass) the gate.
    os.environ.pop("REPRO_VALIDATE", None)
    os.environ.pop("REPRO_CHAOS", None)
    os.environ.pop("REPRO_DDIO", None)
    os.environ.pop("REPRO_BANK_REG", None)

    from repro.validate.harness import (
        assert_ddio_smoke_matches,
        assert_fig03_matches,
        ddio_smoke_fingerprint,
        fig03_fingerprint,
    )

    if "--write" in sys.argv[1:]:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        baseline = fig03_fingerprint()
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"fig03 fingerprint: wrote {len(baseline)} points to {BASELINE}")
        ddio = ddio_smoke_fingerprint()
        with open(DDIO_BASELINE, "w", encoding="utf-8") as fh:
            json.dump(ddio, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"ddio fingerprint: wrote {len(ddio)} points to {DDIO_BASELINE}")
        return 0

    if not os.path.exists(BASELINE):
        print(f"fig03 fingerprint: no baseline at {BASELINE}; run with --write")
        return 1
    t0 = time.perf_counter()
    compared = assert_fig03_matches(BASELINE)
    elapsed = time.perf_counter() - t0
    print(f"fig03 fingerprint: {compared} points bit-identical to baseline")
    if not os.path.exists(DDIO_BASELINE):
        print(f"ddio fingerprint: no baseline at {DDIO_BASELINE}; run with --write")
        return 1
    ddio_compared = assert_ddio_smoke_matches(DDIO_BASELINE)
    print(f"ddio fingerprint: {ddio_compared} points bit-identical to baseline")
    if "--time" in sys.argv[1:]:
        print(f"fig03 sweep wall-clock: {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
