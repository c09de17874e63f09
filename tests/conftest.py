"""Run the suite from a checkout: pytest's `pythonpath` puts `src` on the
import path of the tests, and this puts it on that of the `python -m
fishburn` child processes they start."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
