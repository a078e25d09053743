"""Scalar-vs-batch candidate-evaluation throughput (the PR 7 kernel gate).

Builds each representative AlexNet layer's candidate table under the
selected search profile and times both cost-model paths over it: the
scalar ``evaluate_mapping`` strict-``<`` scan (the golden oracle) over the
table's :class:`~repro.core.mapping.Mapping` objects, and the kernel search
the mapper runs (:func:`~repro.core.batch.search_batch`: the
struct-of-arrays numpy kernel over the int64 columns, then the winner
pick).  Neither time includes building the table.  The acceptance gate is
a >= 5x batch speedup on the fast profile; the two paths must also agree
on the winner and on the valid and invalid counts, which is asserted here
and proven bit-for-bit by ``tests/properties/test_batch_kernel.py``.
"""

import time

from conftest import bench_profile
from repro.analysis.reporting import format_table
from repro.arch.config import case_study_hardware
from repro.core import batch
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.space import MappingSpace
from repro.workloads.models import alexnet

#: The ISSUE 7 acceptance threshold (fast profile, candidate throughput).
MIN_SPEEDUP = 5.0

REPEATS = 3


def _scalar_pass(layer, hw, candidates):
    """The mapper's strict-< scan: winner index, evaluated count."""
    best_score, winner, evaluated = float("inf"), None, 0
    for index, mapping in enumerate(candidates):
        try:
            report = evaluate_mapping(layer, hw, mapping)
        except InvalidMappingError:
            continue
        evaluated += 1
        if report.energy_pj < best_score:
            best_score, winner = report.energy_pj, index
    return winner, evaluated


def _best_of(fn, *args):
    """Minimum wall time over REPEATS runs (and the last return value)."""
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, value


def test_batch_kernel_throughput(record_bench):
    hw = case_study_hardware()
    profile = bench_profile()
    layers = alexnet(resolution=224, include_fc=False)
    space = MappingSpace(hw, profile)

    rows = []
    total_candidates = scalar_time = batch_time = 0.0
    for layer in layers:
        table = space.unique_candidates(layer)
        if not table:
            continue
        mappings = list(table)
        t_scalar, (scalar_winner, evaluated) = _best_of(_scalar_pass, layer, hw, mappings)
        t_batch, outcome = _best_of(batch.search_batch, layer, hw, table)
        n = len(table)
        assert outcome.winners == (scalar_winner,)
        assert (outcome.evaluated, outcome.invalid) == (evaluated, n - evaluated)
        total_candidates += n
        scalar_time += t_scalar
        batch_time += t_batch
        rows.append(
            [
                layer.name,
                str(n),
                f"{n / t_scalar:,.0f}",
                f"{n / t_batch:,.0f}",
                f"{t_scalar / t_batch:.1f}x",
            ]
        )

    scalar_cps = total_candidates / scalar_time
    batch_cps = total_candidates / batch_time
    speedup = scalar_time / batch_time
    rows.append(
        [
            "total",
            f"{total_candidates:.0f}",
            f"{scalar_cps:,.0f}",
            f"{batch_cps:,.0f}",
            f"{speedup:.1f}x",
        ]
    )
    table = format_table(
        ["Layer", "Candidates", "Scalar cand/s", "Batch cand/s", "Speedup"],
        rows,
        title=(
            "Batch cost-model kernel -- candidate-evaluation throughput "
            f"({profile.value} profile, AlexNet conv layers)"
        ),
    )
    record_bench("batch_kernel", table)
    record_bench.values(
        scalar_candidates_per_s=scalar_cps,
        batch_candidates_per_s=batch_cps,
        speedup=speedup,
    )
    assert speedup >= MIN_SPEEDUP
