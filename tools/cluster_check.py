#!/usr/bin/env python
"""Cross-commit cluster fingerprint gate.

``python tools/cluster_check.py`` re-runs the 2-host RDMA smoke
cluster (one ``ib_write_bw`` flow plus a receiver-side STREAM core on
a small-queue fabric; see
``repro.validate.harness.cluster_smoke_run``) and compares both hosts'
RunResults and the fabric's switch-queue measurements bit-for-bit
against the committed baseline ``tests/data/cluster_fingerprint.json``.
Together with ``tools/fig03_check.py`` (which pins the bare single-host
results), it proves the multi-host coupling stack — engine injection,
counter namespacing, fabric queues, per-hop PFC, per-flow goodput
attribution — stays deterministic across commits.

``python tools/cluster_check.py --write`` refreshes the baseline —
only do this for changes that are *supposed* to alter simulated
behaviour, and say so in the commit message.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "tests", "data", "cluster_fingerprint.json"
)


def main() -> int:
    # Same pinning discipline as fig03_check: the fingerprint is the
    # exact per-line simulation under default physics.
    os.environ.pop("REPRO_VALIDATE", None)
    os.environ.pop("REPRO_CHAOS", None)
    os.environ.pop("REPRO_DDIO", None)
    os.environ.pop("REPRO_BANK_REG", None)

    from repro.validate.harness import (
        assert_cluster_smoke_matches,
        cluster_smoke_fingerprint,
    )

    if "--write" in sys.argv[1:]:
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        baseline = cluster_smoke_fingerprint()
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"cluster fingerprint: wrote {len(baseline)} labels to {BASELINE}")
        return 0

    if not os.path.exists(BASELINE):
        print(f"cluster fingerprint: no baseline at {BASELINE}; run with --write")
        return 1
    compared = assert_cluster_smoke_matches(BASELINE)
    print(f"cluster fingerprint: {compared} labels bit-identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
