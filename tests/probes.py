"""Run a probe script in fresh interpreters pinned to given BLAS thread counts.

A BLAS library reads its thread count once, at load, so bits that may
depend on it are compared across subprocesses rather than in the test
process, whose thread count is whatever the machine gives it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import fedca


def probe_digests(probe: str, *args: str, threads=(1, 2)) -> list[str]:
    """Stripped stdout of ``python -c probe *args`` at each OpenBLAS thread
    count in ``threads``."""
    src = str(Path(fedca.__file__).resolve().parents[1])
    digests = []
    for count in threads:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(count),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    return digests
