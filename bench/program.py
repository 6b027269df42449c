"""Locate the program under test: the ``brc20sim`` package in this checkout's ``src``.

The benchmark always measures the source tree it sits in, never an installed
copy, so importing this module puts ``<checkout>/src`` first on ``sys.path``
and fails with ``ProgramMissing`` when the package is absent or resolves to a
different location.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class ProgramMissing(ImportError):
    """The checkout holds no importable brc20sim source tree."""


def load() -> None:
    """Import brc20sim from ``<checkout>/src``; raise ProgramMissing otherwise."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import brc20sim
    except ImportError as exc:
        raise ProgramMissing(f"cannot import brc20sim from {SRC}: {exc}") from exc
    origin = Path(brc20sim.__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"brc20sim resolves to {origin}, outside {SRC}")


load()
