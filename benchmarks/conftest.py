"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures: it prints
the same rows/series the paper reports and records them under
``benchmarks/results/`` so EXPERIMENTS.md can cite a concrete run.

Environment knobs:

* ``REPRO_BENCH_PROFILE`` -- mapping-search profile for the heavy benches
  (``exhaustive`` / ``fast`` / ``minimal``; default ``fast``).
* ``REPRO_FIG15_STRIDE`` -- memory-sweep subsampling for the Figure 15 DSE
  (default 4; 1 reproduces the full sweep, about a minute on one core).
* ``REPRO_JOBS`` -- worker processes for the DSE sweeps (default serial;
  ``0`` uses every core).  Sweep results are bit-identical at every count.
* ``REPRO_CACHE_DIR`` -- persist the mapping cache across runs.
* ``REPRO_BENCH_RECORD_DIR`` -- set by the ``repro bench`` CLI: the
  ``record_bench`` fixture appends one structured JSON fragment per test
  there (reproduced values, obs counters) for the cross-run fidelity and
  counter gates, and writes the artifacts under its ``results/`` instead
  of the committed ``benchmarks/results/``.  See
  ``docs/observability.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from repro import obs
from repro.core.parallel import resolve_jobs
from repro.core.space import SearchProfile
from repro.obs.bench import RECORD_DIR_ENV, BenchCapture

RESULTS_DIR = Path(__file__).parent / "results"


def bench_profile() -> SearchProfile:
    """The mapping-search profile selected via REPRO_BENCH_PROFILE."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "fast").lower()
    return SearchProfile(name)


def fig15_stride() -> int:
    """Memory-sweep stride for the Figure 15 DSE."""
    return int(os.environ.get("REPRO_FIG15_STRIDE", "4"))


def bench_jobs() -> int:
    """Worker-process count for the sweep benches (REPRO_JOBS, default 1)."""
    return resolve_jobs(None)


@contextmanager
def run_ledger() -> Iterator[obs.Recorder]:
    """The live recorder a bench's run counts under.

    ``repro bench`` already records every test body (and gates on its
    counters), so a bench that reads its run counts reuses that recorder;
    a plain pytest run gets a metrics-only one.
    """
    recorder = obs.get_recorder()
    if recorder.enabled:
        yield recorder
    else:
        with obs.use(obs.MetricsRecorder()) as recorder:
            yield recorder


@pytest.fixture
def record_bench(request):
    """Print a reproduced table/figure and persist it under results/.

    Calling the fixture writes the ``.txt`` artifact (and echoes it);
    ``record_bench.values(r_squared=...)`` attaches scalar reproduced
    numbers, and ``record_bench.json(name, ...)`` writes a JSON artifact.
    Under ``repro bench`` (REPRO_BENCH_RECORD_DIR set) the artifacts go to
    the record directory's ``results/``, leaving the committed ones alone,
    and the test body additionally runs under a live obs recorder and its
    values and counters are appended as one JSON fragment for the CLI to
    fold into ``BENCH_<gitsha>.json``.
    """
    record_dir = os.environ.get(RECORD_DIR_ENV) or None
    capture = BenchCapture(
        node_id=request.node.nodeid,
        results_dir=Path(record_dir) / "results" if record_dir else RESULTS_DIR,
        record_dir=record_dir,
    )
    with capture:
        yield capture
