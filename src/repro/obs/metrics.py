"""Counters, gauges and histograms: the numeric half of observability.

A :class:`MetricsRegistry` is a thread-safe bag of named **counters**
(monotonic sums: cache hits, mapping candidates evaluated, DES events,
resource busy cycles), **gauges** (last-written values: worker counts,
configuration knobs) and **histograms** (log-bucketed value distributions:
per-point evaluation latency, cache load/save latency, DES queue depths).
Registries merge, so per-worker registries captured by
:func:`repro.core.parallel.run_tasks` fold into the parent and a
``--jobs 4`` sweep reports the same totals as the serial run.

Naming scheme (see ``docs/observability.md``): dotted lowercase paths,
``<subsystem>.<object>.<quantity>`` -- e.g. ``mapper.candidates.evaluated``,
``cache.hits``, ``sim.dram.bits_served``.  Counters are order-independent
(summing worker deltas in any order gives the same total).  Gauges are
last-write-wins within one registry, but cross-registry :meth:`merge` is
deterministic: it keeps the **maximum** per gauge (high-water semantics),
so a ``--jobs 4`` sweep reports the same gauge values regardless of which
worker snapshot happens to arrive last.  Histograms merge by summing
bucket counts (and count/sum, min-ing min, max-ing max): bucket counts,
count and the extremes -- and therefore the quantile estimates -- are
integer/compare folds, identical for any snapshot arrival order; only
the float ``sum`` can differ in its last bits (float addition is not
associative).
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Mapping

#: Bucket exponent assigned to observations <= 0 (below every real bucket).
_UNDERFLOW_EXP = -1075


def bucket_exponent(value: float) -> int:
    """The log2 bucket of ``value``: smallest ``e`` with ``value <= 2**e``.

    Non-positive observations land in a dedicated underflow bucket.  The
    bucket of a value is a pure function of the value, so two registries
    observing the same values always agree -- the property the
    order-independent merge rests on.
    """
    if value <= 0:
        return _UNDERFLOW_EXP
    return math.ceil(math.log2(value))


def bucket_upper_bound(exponent: int) -> float:
    """The inclusive upper bound of one bucket (0.0 for the underflow)."""
    if exponent == _UNDERFLOW_EXP:
        return 0.0
    return float(2.0**exponent)


def _quantile(
    buckets: Mapping[int, int],
    count: int,
    lo: float,
    hi: float,
    q: float,
) -> float:
    """Estimate the ``q``-quantile from log buckets, clamped to [lo, hi].

    Walks the name-sorted buckets to the one holding rank ``q * count``
    and interpolates linearly inside it.  Depends only on the merged
    bucket counts and the observed min/max, so the estimate is identical
    whatever order the observations (or worker snapshots) arrived in.
    """
    if count <= 0:
        return 0.0
    rank = q * count
    seen = 0
    for exponent in sorted(buckets):
        bucket_count = buckets[exponent]
        if seen + bucket_count >= rank:
            upper = bucket_upper_bound(exponent)
            lower = (
                0.0
                if exponent == _UNDERFLOW_EXP
                else bucket_upper_bound(exponent - 1)
            )
            fraction = (rank - seen) / bucket_count
            estimate = lower + (upper - lower) * fraction
            return min(max(estimate, lo), hi)
        seen += bucket_count
    return hi


class MetricsRegistry:
    """A thread-safe registry of named counters, gauges and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> {"count", "sum", "min", "max", "buckets": {exp: count}}
        self._histograms: dict[str, dict[str, Any]] = {}
        self._lock = threading.Lock()

    # --- writes ---------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def histogram(self, name: str, value: float) -> None:
        """Record one observation of ``value`` in the histogram ``name``."""
        exponent = bucket_exponent(value)
        with self._lock:
            state = self._histograms.get(name)
            if state is None:
                state = {
                    "count": 0,
                    "sum": 0.0,
                    "min": float("inf"),
                    "max": float("-inf"),
                    "buckets": {},
                }
                self._histograms[name] = state
            state["count"] += 1
            state["sum"] += value
            if value < state["min"]:
                state["min"] = value
            if value > state["max"]:
                state["max"] = value
            buckets = state["buckets"]
            buckets[exponent] = buckets.get(exponent, 0) + 1

    def merge(
        self,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        histograms: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> None:
        """Fold another registry's snapshot in, order-independently.

        Counters are monotonic sums, so addition is the only sensible
        fold.  Gauges record levels (worker counts, peak queue depths,
        knobs); the high-water **max** rule makes the merge
        order-independent -- merging worker snapshots in any order yields
        identical gauges, where the old last-snapshot-wins rule leaked
        scheduling nondeterminism into the exported metrics.  Histograms
        sum their bucket counts (plus count/sum) and keep the extreme
        min/max, all commutative folds.
        """
        with self._lock:
            for name, value in (counters or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (gauges or {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            for name, other in (histograms or {}).items():
                state = self._histograms.get(name)
                if state is None:
                    state = {
                        "count": 0,
                        "sum": 0.0,
                        "min": float("inf"),
                        "max": float("-inf"),
                        "buckets": {},
                    }
                    self._histograms[name] = state
                state["count"] += int(other.get("count", 0))
                state["sum"] += float(other.get("sum", 0.0))
                other_min = float(other.get("min", float("inf")))
                other_max = float(other.get("max", float("-inf")))
                if other_min < state["min"]:
                    state["min"] = other_min
                if other_max > state["max"]:
                    state["max"] = other_max
                buckets = state["buckets"]
                for exponent, bucket_count in (other.get("buckets") or {}).items():
                    exponent = int(exponent)
                    buckets[exponent] = buckets.get(exponent, 0) + int(bucket_count)

    def clear(self) -> None:
        """Drop every counter, gauge and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # --- reads ----------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never counted)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, float]:
        """Name-sorted snapshot of every counter."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> dict[str, float]:
        """Name-sorted snapshot of every gauge."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, dict[str, Any]]:
        """Name-sorted deep-copied snapshot of every histogram's raw state.

        The snapshot shape (``count``/``sum``/``min``/``max``/``buckets``)
        is what :meth:`merge` consumes -- it is the picklable worker-capture
        payload, not the human summary (see :meth:`histogram_stats`).
        """
        with self._lock:
            return {
                name: {
                    "count": state["count"],
                    "sum": state["sum"],
                    "min": state["min"],
                    "max": state["max"],
                    "buckets": dict(state["buckets"]),
                }
                for name, state in sorted(self._histograms.items())
            }

    def histogram_stats(self, name: str) -> dict[str, float] | None:
        """The exported summary of one histogram, or ``None`` when absent.

        ``count``/``sum``/``min``/``max`` are exact; ``p50``/``p90``/``p99``
        are log-bucket estimates (linear interpolation inside the holding
        bucket, clamped to the observed range) -- identical for any
        arrival order of the same observations.
        """
        with self._lock:
            state = self._histograms.get(name)
            if state is None:
                return None
            count = state["count"]
            total = state["sum"]
            lo, hi = state["min"], state["max"]
            buckets = dict(state["buckets"])
        return {
            "count": float(count),
            "sum": total,
            "min": lo,
            "max": hi,
            "p50": _quantile(buckets, count, lo, hi, 0.50),
            "p90": _quantile(buckets, count, lo, hi, 0.90),
            "p99": _quantile(buckets, count, lo, hi, 0.99),
        }

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )

    # --- export ---------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """The JSON-export payload: counters, gauges and histogram summaries.

        Histograms export their summary (count/sum/min/max/p50/p90/p99)
        plus the raw buckets keyed by stringified bucket exponent, so the
        JSON both reads at a glance and re-merges losslessly.
        """
        histograms: dict[str, Any] = {}
        for name, state in self.histograms().items():
            summary = self.histogram_stats(name)
            assert summary is not None
            payload: dict[str, Any] = dict(summary)
            payload["buckets"] = {
                str(exp): count for exp, count in sorted(state["buckets"].items())
            }
            histograms[name] = payload
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": histograms,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Deterministic (sorted-key) JSON rendering."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Flat ``name value`` lines in one global name-sorted order.

        Counters, gauges and histogram summary lines (``<name>.count``,
        ``.sum``, ``.min``, ``.max``, ``.p50``, ``.p90``, ``.p99``) are
        merged into a single sort, so the text diff between two runs is
        stable however the metric mix shifts between kinds.
        """
        entries: dict[str, float] = {}
        entries.update(self.counters())
        entries.update(self.gauges())
        for name in self.histograms():
            summary = self.histogram_stats(name)
            assert summary is not None
            for field in ("count", "sum", "min", "max", "p50", "p90", "p99"):
                entries[f"{name}.{field}"] = summary[field]
        return "\n".join(
            f"{name} {value:g}" for name, value in sorted(entries.items())
        )


__all__ = [
    "MetricsRegistry",
    "bucket_exponent",
    "bucket_upper_bound",
]
