"""Process environment for every benchmark entry point.

Import this before anything that imports numpy or ``repro``: it pins the
thread pools, clears every ``REPRO_*`` variable so the program runs on its
defaults, and puts the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Work directory for caches, checkpoints, studies and traces (git-ignored).
WORK_DIR = BENCH_DIR / ".work"

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def pin_environment() -> dict:
    """Clear ``REPRO_*`` (no workload sets any) and pin thread counts.

    Returns what was cleared and set, for the run's output.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ.update(PINNED)
    return {"cleared": cleared, "set": dict(PINNED)}


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else.

    Raises:
        MissingProgram: When ``src/repro`` is absent, or ``repro`` was
            already imported from another location.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise MissingProgram(f"repro imported from {repro.__file__}, not {SRC}")
