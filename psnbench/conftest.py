"""Put the checkout's ``src/`` on the path for the gate tests
(``python -m pytest psnbench`` from the repository root)."""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
