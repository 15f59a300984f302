"""Locate the program's source tree from the benchmark's own directory."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SOURCE_DIR = REPO_ROOT / "src"


def use_source_tree() -> bool:
    """Put ``src/`` first on ``sys.path``; False when there is no program."""
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        return False
    if str(SOURCE_DIR) not in sys.path:
        sys.path.insert(0, str(SOURCE_DIR))
    return True
