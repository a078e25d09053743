"""Transformer GEMM throughput through the scalar and batch cost models.

The matmul/attention path promises two things the conv benchmarks cannot
witness: GEMM-shaped candidate spaces keep the batch kernel's speedup, and
the mapper's shape cache collapses a transformer's repeated encoder blocks
into near-free lookups.  This bench times one BERT-base encoder block's
unique layer shapes through both cost-model paths (winner parity asserted
per shape), then maps the full 12-block model to record the cache leverage.
"""

import time

from conftest import bench_profile, run_ledger
from repro.analysis.reporting import format_table
from repro.arch.config import build_hardware
from repro.core import batch
from repro.core.cost import InvalidMappingError, evaluate_mapping
from repro.core.mapper import Mapper
from repro.core.parallel import SweepStats
from repro.core.space import MappingSpace
from repro.workloads.transformer import bert_base, encoder_block

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


def test_transformer_gemm_throughput(record_bench):
    hw = build_hardware(4, 8, 8, 8)
    profile = bench_profile()
    layers = encoder_block("enc0", seq=128, d_model=768, heads=12, ffn=3072)
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

    speedup = scalar_time / batch_time
    rows.append(
        [
            "total",
            f"{total_candidates:.0f}",
            f"{total_candidates / scalar_time:,.0f}",
            f"{total_candidates / batch_time:,.0f}",
            f"{speedup:.1f}x",
        ]
    )
    table = format_table(
        ["Layer", "Candidates", "Scalar cand/s", "Batch cand/s", "Speedup"],
        rows,
        title=(
            "Transformer GEMM cost-model throughput "
            f"({profile.value} profile, BERT-base encoder block)"
        ),
    )
    record_bench("transformer_gemm", table)
    record_bench.values(
        gemm_scalar_candidates_per_s=total_candidates / scalar_time,
        gemm_batch_candidates_per_s=total_candidates / batch_time,
        gemm_speedup=speedup,
    )
    assert speedup >= 1.0


def test_transformer_shape_cache_leverage(record_bench):
    hw = build_hardware(4, 8, 8, 8)
    profile = bench_profile()
    layers = bert_base()

    with run_ledger() as recorder:
        start = time.perf_counter()
        results = Mapper(hw=hw, profile=profile).search_model(layers)
        elapsed = time.perf_counter() - start
    stats = SweepStats(recorder.metrics)
    assert len(results) == len(layers)

    hits, misses = stats.cache_hits, stats.cache_misses
    hit_rate = hits / max(hits + misses, 1)
    table = format_table(
        ["Metric", "Value"],
        [
            ["layers", str(len(layers))],
            ["unique shapes searched", str(misses)],
            ["cache hits", str(hits)],
            ["hit rate", f"{hit_rate:.0%}"],
            ["wall time", f"{elapsed:.2f} s"],
        ],
        title=(
            "BERT-base full-model mapping -- shape-cache leverage "
            f"({profile.value} profile, 12 identical encoder blocks)"
        ),
    )
    record_bench("transformer_cache", table)
    record_bench.values(
        bert_layers=float(len(layers)),
        bert_unique_shapes=float(misses),
        bert_cache_hit_rate=hit_rate,
        bert_map_seconds=elapsed,
    )
    # 12 identical encoder blocks must collapse: strictly fewer unique
    # searches than layers, with a dominant hit rate.
    assert misses < len(layers)
    assert hit_rate > 0.5
