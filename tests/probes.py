"""Run fedca, or a probe script, in fresh interpreters.

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


def _env(**extra) -> dict:
    src = str(Path(fedca.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def fedca_process(argv, cwd, timeout=60):
    """``fedca argv`` in a child process; a hang fails by ``TimeoutExpired``."""
    return subprocess.run([sys.executable, "-m", "fedca.cli", *argv], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=timeout)


def probe_digests(probe: str, *args: str, threads=(1, 2)) -> list[str]:
    """Stripped stdout of ``python -c probe *args`` at each OpenBLAS thread
    count in ``threads``."""
    digests = []
    for count in threads:
        proc = subprocess.run([sys.executable, "-c", probe, *args],
                              env=_env(OPENBLAS_NUM_THREADS=str(count)),
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    return digests
