"""Spans around repro's layer boundaries, recorded from outside the program.

:func:`install` wraps each boundary listed by :func:`boundaries` where its
caller looks it up (a module attribute or a class attribute) and returns a
function that restores the originals.  Every call becomes a span with a
name, start, end, parent and op id; spans stay in memory until
:meth:`Tracer.dump` writes them out.  A span's self time is its duration
minus the durations of its child spans (children never overlap: the
program is serial).

``MappingSpace.candidates`` is a generator consumed lazily by
``unique_candidates``; its wrapper times every ``next()`` and records the
total as one aggregate child span, so enumeration and dedup separate
without a span per candidate.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from reference import point_status

#: Span name -> per-layer metric its self time adds to.
SPAN_METRIC = {
    "space.enumerate": "space.enumerate_ms",
    "space.unique_candidates": "space.dedup_ms",
    "batch.search_batch": "batch.kernel_ms",
    "cost.evaluate_mapping": "cost.winner_ms",
    "cost.rebuild_record": "cost.rebuild_ms",
    "cache.get": "cache.get_ms",
    "cache.save": "cache.save_ms",
    "mapper.search_model": "mapper.self_ms",
    "mapper.init": "mapper.self_ms",
    "dse.explore": "dse.self_ms",
    "arch.validation_errors": "arch.validate_ms",
    "arch.chiplet_area_mm2": "arch.area_ms",
    "arch.build_hardware": "arch.build_ms",
    "checkpoint.record": "checkpoint.record_ms",
    "checkpoint.flush": "checkpoint.flush_ms",
    "checkpoint.reset": "checkpoint.flush_ms",
    "search.edp_lower_bound": "search.bound_ms",
    "search.init": "search.ask_ms",
    "search.ask": "search.ask_ms",
    "search.tell": "search.ask_ms",
    "search.study": "search.study_ms",
    "workloads.get_model": "workloads.build_ms",
}

#: The benchmark's own span around each timed public-API call; its self
#: time is what no layer boundary accounts for.
CALL_SPAN = "bench.call"

#: The public entry points the timed calls go through.  Their self time
#: takes in all the work no inner boundary wraps, so it is left out of
#: ``trace.named_coverage``.
ROOT_SPANS = frozenset({"dse.explore", "mapper.search_model", "mapper.init"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    dur: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations."""
    own = [span.dur for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.dur
    return own


class Tracer:
    """In-memory span recorder plus per-round counters.

    Attributes:
        op: Id of the op the next spans belong to (``None`` in set-up).
        counts: Counters per round index (``None`` for set-up).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.round: int | None = None
        self.counts: dict[int | None, Counter] = defaultdict(Counter)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        self.spans.append(Span(name, now, now, parent, self.op))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.dur = span.end - span.start
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def aggregate(self, name: str) -> Span:
        """A child span of the open span whose duration callers accumulate."""
        parent = self._stack[-1] if self._stack else None
        now = time.perf_counter()
        span = Span(name, now, now, parent, self.op)
        self.spans.append(span)
        return span

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.round][name] += value

    @contextmanager
    def call(self, op: int):
        """The root span of one timed public-API call."""
        self.op = op
        index = self.open(CALL_SPAN)
        try:
            yield
        finally:
            self.close(index)
            self.op = None

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (index order: parents first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "dur": span.dur, "parent": span.parent,
                    "op": span.op,
                }) + "\n")


# --- boundaries ------------------------------------------------------------------


def _wrap(tracer: Tracer, function, name: str, after=None, before=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result, state)
        return result

    return wrapper


def _wrap_candidates(tracer: Tracer, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        generator = function(*args, **kwargs)
        span = tracer.aggregate("space.enumerate")
        produced = 0
        while True:
            start = time.perf_counter()
            try:
                item = next(generator)
            except StopIteration:
                span.end = time.perf_counter()
                span.dur += span.end - start
                break
            span.end = time.perf_counter()
            span.dur += span.end - start
            produced += 1
            yield item
        tracer.count("space.candidates", produced)

    return wrapper


def _after_unique(tracer, args, kwargs, result, state):
    tracer.count("space.unique", len(result))


def _after_batch(tracer, args, kwargs, outcome, state):
    candidates = kwargs.get("candidates", args[2] if len(args) > 2 else ())
    tracer.count("batch.calls")
    tracer.count("batch.candidates", len(candidates))
    if outcome is not None:
        tracer.count("batch.evaluated", outcome.evaluated)
        tracer.count("batch.invalid", outcome.invalid)


def _before_get(args):
    return args[0].disk_hits


def _after_get(tracer, args, kwargs, result, disk_hits_before):
    tracer.count("cache.misses" if result is None else "cache.hits")
    tracer.count("cache.disk_hits", args[0].disk_hits - disk_hits_before)


def _after_search_model(tracer, args, kwargs, result, state):
    tracer.count("mapper.searches")


def _after_explore(tracer, args, kwargs, points, state):
    statuses = [point_status(p) for p in points]
    tracer.count("dse.points", len(points))
    tracer.count("dse.valid", statuses.count("valid"))
    tracer.count("search.pruned", statuses.count("pruned"))


def _after_record(tracer, args, kwargs, result, state):
    tracer.count("checkpoint.records")


def _before_ask(args):
    return args[0].deduped


def _after_ask(tracer, args, kwargs, proposals, deduped_before):
    tracer.count("search.proposals", len(proposals))
    tracer.count("search.deduped", args[0].deduped - deduped_before)


def boundaries():
    """``(owner, attribute, span name, after, before)`` per wrapped boundary.

    Each owner is where the caller looks the name up: module-level
    functions are patched in every module that imported them by name.
    """
    import repro
    from repro.arch.area import AreaModel
    from repro.core import batch, dse, mapper, search
    from repro.core.cache import MappingCache
    from repro.core.checkpoint import SweepCheckpoint
    from repro.core.space import MappingSpace

    table = [
        (repro, "get_model", "workloads.get_model", None, None),
        (repro, "explore", "dse.explore", _after_explore, None),
        (MappingSpace, "unique_candidates", "space.unique_candidates", _after_unique, None),
        (batch, "search_batch", "batch.search_batch", _after_batch, None),
        (mapper, "evaluate_mapping", "cost.evaluate_mapping", None, None),
        (mapper, "rebuild_record", "cost.rebuild_record", None, None),
        (MappingCache, "get", "cache.get", _after_get, _before_get),
        (MappingCache, "save", "cache.save", None, None),
        (mapper.Mapper, "search_model", "mapper.search_model", _after_search_model, None),
        (mapper.Mapper, "__post_init__", "mapper.init", None, None),
        (AreaModel, "chiplet_area_mm2", "arch.chiplet_area_mm2", None, None),
        (SweepCheckpoint, "record", "checkpoint.record", _after_record, None),
        (SweepCheckpoint, "flush", "checkpoint.flush", None, None),
        (SweepCheckpoint, "reset", "checkpoint.reset", None, None),
        (search, "edp_lower_bound", "search.edp_lower_bound", None, None),
        (search.GuidedStrategy, "__init__", "search.init", None, None),
        (search.GuidedStrategy, "ask", "search.ask", _after_ask, _before_ask),
        (search.GuidedStrategy, "tell", "search.tell", None, None),
    ]
    for module in (dse, search):
        table.append((module, "validation_errors", "arch.validation_errors", None, None))
        table.append((module, "build_hardware", "arch.build_hardware", None, None))
    for method in ("__init__", "load", "record", "flush", "close"):
        table.append((search.Study, method, "search.study", None, None))
    return table


def install(tracer: Tracer):
    """Wrap every boundary; return a function that restores the originals."""
    from repro.core.space import MappingSpace

    originals = []
    for owner, attribute, name, after, before in boundaries():
        function = owner.__dict__[attribute]
        originals.append((owner, attribute, function))
        setattr(owner, attribute, _wrap(tracer, function, name, after, before))
    function = MappingSpace.__dict__["candidates"]
    originals.append((MappingSpace, "candidates", function))
    MappingSpace.candidates = _wrap_candidates(tracer, function)

    def restore() -> None:
        for owner, attribute, function in reversed(originals):
            setattr(owner, attribute, function)

    return restore


# --- per-layer metrics -----------------------------------------------------------

PER_LAYER_UNITS = {
    "space.enumerate_ms": "ms", "space.dedup_ms": "ms", "space.candidates": "count",
    "space.unique": "count", "space.unique_ratio": "ratio",
    "batch.kernel_ms": "ms", "batch.calls": "count", "batch.candidates_per_s": "1/s",
    "batch.valid_ratio": "ratio",
    "cost.winner_ms": "ms", "cost.rebuild_ms": "ms",
    "cache.get_ms": "ms", "cache.save_ms": "ms", "cache.hit_ratio": "ratio",
    "cache.disk_hits": "count",
    "mapper.self_ms": "ms", "mapper.searches": "count",
    "dse.self_ms": "ms", "dse.points": "count", "dse.valid_ratio": "ratio",
    "arch.validate_ms": "ms", "arch.area_ms": "ms", "arch.build_ms": "ms",
    "checkpoint.record_ms": "ms", "checkpoint.flush_ms": "ms", "checkpoint.records": "count",
    "search.bound_ms": "ms", "search.ask_ms": "ms", "search.study_ms": "ms",
    "search.pruned": "count", "search.deduped": "count", "search.eval_ratio": "ratio",
    "workloads.build_ms": "ms",
    "trace.coverage": "ratio", "trace.named_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, untraced_call_ms: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, per round.

    Times are self times in ms per round, counts per round (identical
    across rounds, which the caller checks).  ``workloads.build_ms`` is
    the set-up's model construction.  ``search.eval_ratio`` is the share
    of the guided sampler's draws (proposals plus collisions it dropped)
    that were paid for with a full evaluation.  ``trace.coverage`` is the
    share of the traced calls' wall time spent inside the program's
    wrapped entry points; ``trace.named_coverage`` the share spent inside
    inner boundaries, leaving out the entry points' own code
    (:data:`ROOT_SPANS`); ``trace.overhead_ratio`` is traced over
    untraced call time of the same rounds.
    """
    own = self_times(tracer.spans)
    totals: Counter = Counter()
    build_ms = call_ms = unattributed_ms = named_ms = 0.0
    for span, self_s in zip(tracer.spans, own):
        if span.name == CALL_SPAN:
            call_ms += span.dur * 1e3
            unattributed_ms += self_s * 1e3
        elif span.op is not None:
            totals[SPAN_METRIC[span.name]] += self_s * 1e3
            if span.name not in ROOT_SPANS:
                named_ms += self_s * 1e3
        elif span.name == "workloads.get_model":
            build_ms += self_s * 1e3
    counts = tracer.counts[0]
    metrics = {name: totals[name] / rounds for name in PER_LAYER_UNITS if name.endswith("_ms")}
    metrics.update({
        "workloads.build_ms": build_ms,
        "space.candidates": counts["space.candidates"],
        "space.unique": counts["space.unique"],
        "space.unique_ratio": _ratio(counts["space.unique"], counts["space.candidates"]),
        "batch.calls": counts["batch.calls"],
        "batch.candidates_per_s": _ratio(
            counts["batch.candidates"], metrics["batch.kernel_ms"] / 1e3
        ),
        "batch.valid_ratio": _ratio(
            counts["batch.evaluated"], counts["batch.evaluated"] + counts["batch.invalid"]
        ),
        "cache.hit_ratio": _ratio(
            counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]
        ),
        "cache.disk_hits": counts["cache.disk_hits"],
        "mapper.searches": counts["mapper.searches"],
        "dse.points": counts["dse.points"],
        "dse.valid_ratio": _ratio(counts["dse.valid"], counts["dse.points"]),
        "checkpoint.records": counts["checkpoint.records"],
        "search.pruned": counts["search.pruned"],
        "search.deduped": counts["search.deduped"],
        "search.eval_ratio": _ratio(
            counts["dse.valid"], counts["search.proposals"] + counts["search.deduped"]
        ),
        "trace.coverage": _ratio(call_ms - unattributed_ms, call_ms),
        "trace.named_coverage": _ratio(named_ms, call_ms),
        "trace.overhead_ratio": _ratio(call_ms, untraced_call_ms),
    })
    return metrics

