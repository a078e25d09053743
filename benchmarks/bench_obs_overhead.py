"""Overhead guard for the observability layer (docs/observability.md).

The design claim: with the null recorder installed (the default), every
instrumentation site costs one no-op method call, and the hot loops carry
no per-candidate instrumentation at all -- counters are batched after the
scan.  This bench pins that claim two ways:

* **Disabled-mode bound (< 2%, asserted).**  A tallying recorder counts
  how many hook crossings (span enters, counter bumps) one mapping sweep
  performs, a calibration loop measures the null recorder's per-hook cost,
  and the product bounds the disabled-mode overhead.  Multiplying a
  measured density by a measured unit cost is robust on a noisy shared
  core, where subtracting two nearly-equal wall times is not.
* **Enabled-mode cost (reported).**  The same sweep under a live
  :class:`~repro.obs.Recorder`, so the results file shows what turning
  tracing on actually costs.

Both timings and the derived bound land in ``benchmarks/results/`` so a
regression (say, someone adds an ``obs.count`` inside the candidate loop)
shows up as a concrete number, not a vibe.
"""

from __future__ import annotations

import time

from repro import obs
from repro.arch.config import case_study_hardware
from repro.core.cache import MappingCache
from repro.core.mapper import Mapper
from repro.core.space import SearchProfile
from repro.obs.recorder import _NULL_SPAN
from repro.workloads.registry import get_model

CALIBRATION_LOOPS = 200_000
TIMING_RUNS = 5
MAX_DISABLED_OVERHEAD_PCT = 2.0


class HookTally:
    """A disabled recorder that counts hook crossings instead of data.

    ``enabled`` stays ``False`` so the sweep takes exactly the disabled-mode
    code paths; the tallies say how many times those paths touch the
    recorder at all.
    """

    enabled = False

    def __init__(self) -> None:
        self.spans = 0
        self.counts = 0
        self.gauges = 0
        self.histograms = 0
        self.events = 0

    def span(self, name, **args):
        self.spans += 1
        return _NULL_SPAN

    def count(self, name, value=1):
        self.counts += 1

    def gauge(self, name, value):
        self.gauges += 1

    def histogram(self, name, value):
        self.histograms += 1

    def event(self, name, **fields):
        self.events += 1

    @property
    def total(self) -> int:
        return (
            self.spans + self.counts + self.gauges
            + self.histograms + self.events
        )


def sweep() -> None:
    """One fresh-cache mapping search: production hook density, no reuse."""
    hw = case_study_hardware()
    mapper = Mapper(hw=hw, profile=SearchProfile("minimal"), cache=MappingCache())
    mapper.search_model(get_model("alexnet"))


def best_of(fn, runs: int = TIMING_RUNS) -> float:
    """Best wall time over ``runs`` calls (after one warmup)."""
    fn()
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def null_hook_costs_ns() -> dict[str, float]:
    """Per-call cost of the null recorder's span and count hooks.

    Pins the null recorder for the calibration loops so the measurement
    stays honest even when an outer harness (``repro bench``) has a live
    recorder installed.
    """
    with obs.use(obs.NULL_RECORDER):
        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            with obs.span("calibrate", layer="x"):
                pass
        span_ns = (time.perf_counter() - start) * 1e9 / CALIBRATION_LOOPS

        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            obs.count("calibrate", 1)
        count_ns = (time.perf_counter() - start) * 1e9 / CALIBRATION_LOOPS

        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            obs.histogram("calibrate", 1.0)
        histogram_ns = (time.perf_counter() - start) * 1e9 / CALIBRATION_LOOPS

        start = time.perf_counter()
        for _ in range(CALIBRATION_LOOPS):
            obs.event("calibrate", n=1)
        event_ns = (time.perf_counter() - start) * 1e9 / CALIBRATION_LOOPS

    return {
        "span_ns": span_ns,
        "count_ns": count_ns,
        "histogram_ns": histogram_ns,
        "event_ns": event_ns,
    }


def test_disabled_overhead_under_two_percent(record_bench):
    # How many hooks does one sweep cross in disabled mode?
    tally = HookTally()
    with obs.use(tally):
        sweep()

    costs = null_hook_costs_ns()
    with obs.use(obs.NULL_RECORDER):
        disabled_s = best_of(sweep)

    with obs.use(obs.Recorder()):
        enabled_s = best_of(sweep)

    hook_s = (
        tally.spans * costs["span_ns"]
        + (tally.counts + tally.gauges) * costs["count_ns"]
        + tally.histograms * costs["histogram_ns"]
        + tally.events * costs["event_ns"]
    ) / 1e9
    disabled_overhead_pct = 100.0 * hook_s / disabled_s
    enabled_overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s

    payload = {
        "workload": "Mapper.search_model(alexnet), minimal profile, fresh cache",
        "timing_runs": TIMING_RUNS,
        "hook_crossings": {
            "spans": tally.spans,
            "counts": tally.counts,
            "gauges": tally.gauges,
            "histograms": tally.histograms,
            "events": tally.events,
        },
        "null_hook_cost_ns": {k: round(v, 1) for k, v in costs.items()},
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "disabled_overhead_pct_bound": round(disabled_overhead_pct, 4),
        "enabled_overhead_pct": round(enabled_overhead_pct, 2),
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
    }
    record_bench.json("obs_overhead", payload)
    record_bench.values(
        disabled_overhead_pct_bound=disabled_overhead_pct,
        enabled_overhead_pct=enabled_overhead_pct,
        hook_crossings=float(tally.total),
    )
    record_bench(
        "obs_overhead",
        "Observability overhead (alexnet mapping sweep)\n"
        f"  hook crossings      : {tally.spans} spans, {tally.counts} counts, "
        f"{tally.histograms} histograms, {tally.events} events\n"
        f"  null hook cost      : {costs['span_ns']:.0f} ns/span, "
        f"{costs['count_ns']:.0f} ns/count, "
        f"{costs['histogram_ns']:.0f} ns/histogram, "
        f"{costs['event_ns']:.0f} ns/event\n"
        f"  disabled sweep      : {disabled_s * 1e3:.1f} ms "
        f"(hook bound {disabled_overhead_pct:.4f}% of runtime)\n"
        f"  enabled sweep       : {enabled_s * 1e3:.1f} ms "
        f"({enabled_overhead_pct:+.2f}% vs disabled)",
    )

    assert tally.total > 0, "the sweep crossed no hooks -- wrong workload?"
    assert disabled_overhead_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled-mode observability overhead bound "
        f"{disabled_overhead_pct:.3f}% exceeds "
        f"{MAX_DISABLED_OVERHEAD_PCT}% -- did instrumentation land "
        f"inside a hot loop?"
    )
