"""Lets the benchmark's own tests import ``flashvmm`` from this checkout."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
