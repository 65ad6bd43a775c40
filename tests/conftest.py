"""Shared pytest configuration (keeps the tests directory importable).

This checkout's ``src`` goes at the end of ``sys.path``, so a bare ``python -m
pytest`` finds ``leofim`` while a ``PYTHONPATH`` naming another tree's ``src``
still wins and tests that tree.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)
