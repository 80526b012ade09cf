"""The repo benchmark (see README.md); run it with ``python bench/run.py``.

Importing the package makes ``repro`` importable from the checkout's
``src/`` — the benchmark measures the program it sits beside, never an
installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
