"""Make the benchmark's modules and the program importable in its tests."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from paths import use_source_tree  # noqa: E402

use_source_tree()
