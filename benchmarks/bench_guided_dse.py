"""Guided DSE: seeded ask/tell search over the Table II space.

Runs a small guided exploration (AlexNet@224, fixed seed, minimal mapping
profile) and records the prune/dedup/evaluate accounting as obs counters.
The ``bench-record`` CI job runs this bench at ``--jobs 1`` and
``--jobs 4`` and gates ``repro bench compare`` on the
``dse.points.pruned`` / ``dse.points.deduped`` counters being *exactly*
equal -- the determinism contract: guided accounting is a pure function
of (seed, space, models), never of the worker count.
"""

from conftest import bench_jobs, run_ledger
from repro.core.dse import best_point, explore
from repro.core.parallel import SweepStats
from repro.core.space import SearchProfile
from repro.workloads.models import alexnet

GUIDED_MACS = 4096
GUIDED_TRIALS = 96
GUIDED_SEED = 0


def test_guided_dse(benchmark, record_bench):
    models = {"alexnet": alexnet(224)}
    with run_ledger() as recorder:
        points = benchmark.pedantic(
            explore,
            args=(models, GUIDED_MACS),
            kwargs={
                "max_chiplet_mm2": 3.0,
                "profile": SearchProfile.MINIMAL,
                "strategy": "guided",
                "trials": GUIDED_TRIALS,
                "seed": GUIDED_SEED,
                "jobs": bench_jobs(),
            },
            rounds=1,
            iterations=1,
        )
    stats = SweepStats(recorder.metrics)
    optimum = best_point(points, "alexnet", max_chiplet_mm2=3.0)
    lines = [
        f"Guided DSE -- {GUIDED_MACS}-MAC space, seed {GUIDED_SEED}, "
        f"{GUIDED_TRIALS}-trial budget:",
        f"  proposed {stats.points_total}, evaluated {stats.points_evaluated}, "
        f"pruned {stats.points_pruned}, deduped {stats.points_deduped}",
        f"  incumbent: {optimum.label if optimum else 'none'}"
        + (f" (EDP {optimum.edp('alexnet'):.3e} Js)" if optimum else ""),
    ]
    record_bench("guided_dse", "\n".join(lines))
    record_bench.values(
        proposed=float(stats.points_total),
        evaluated=float(stats.points_evaluated),
        pruned=float(stats.points_pruned),
        deduped=float(stats.points_deduped),
    )
    assert stats.points_evaluated <= GUIDED_TRIALS
