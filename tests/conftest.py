"""Import paths for the test suite.

``tests/`` goes on ``sys.path`` so the test-side oracles import as the
top-level ``oracles`` package (the benchmarks do the same, see
``benchmarks/_harness.py``); the repository root goes there too, so the
shared helpers import as ``tests.<module>`` under a plain ``pytest`` run
as well as under ``python -m pytest``.
"""

import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
for _path in (str(_TESTS), str(_TESTS.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)
