"""Run a Python snippet in a fresh interpreter against this checkout.

For tests whose subject is interpreter-wide state a pytest process
cannot reset: which modules an import loads, or the string hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

REPO = Path(__file__).resolve().parent.parent


def run_python(script: str, env: Optional[Dict[str, str]] = None) -> str:
    """Run ``script`` with ``src/`` and the repo root importable;
    returns its stdout (raises ``CalledProcessError`` on failure)."""
    paths = [str(REPO / "src"), str(REPO)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    full_env.update(env or {})
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, check=True,
        cwd=REPO, env=full_env,
    ).stdout
