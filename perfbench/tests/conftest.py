"""Make the benchmark modules and the program importable.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
for path in (PERFBENCH, PERFBENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
