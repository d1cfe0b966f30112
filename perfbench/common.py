"""Paths shared by the benchmark's scripts."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def add_src_path() -> None:
    """Import fedca from this checkout's sources, not from an installed copy."""
    if not (SRC / "fedca" / "__init__.py").is_file():
        raise SystemExit(f"fedca sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
