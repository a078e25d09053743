"""Vectorized batch cost-model kernel (struct-of-arrays C3P evaluation).

The scalar pipeline (:mod:`repro.core.c3p` -> :mod:`repro.core.traffic` ->
:mod:`repro.core.cost`) walks one ``(layer, hw, mapping)`` triple at a time
through Python objects.  This module evaluates *every* candidate of one
``(layer, hw)`` pair in a handful of numpy array operations.  Its input is
a :class:`~repro.core.space.CandidateTable`: one int64 column per
:data:`~repro.core.space.CANDIDATE_COLUMNS` name (spatial primitives, order
and rotation codes, clamped tile extents), which
:meth:`~repro.core.space.MappingSpace.unique_candidates` builds directly,
without a :class:`~repro.core.mapping.Mapping` per candidate.  The three
C3P walks, the traffic assembly and the energy/cycles/EDP scalarization run
over all rows at once.  :func:`search_batch` copies each winner's values
out of the columns into a :class:`Winner` record, which builds the row's
``Mapping`` and full :class:`~repro.core.cost.CostReport` only when
something reads them, with no second scalar pass; a sweep sums a model's
totals from the records' energy values and cycles without either.

A *pack* (:meth:`~repro.core.space.CandidateTable.pack`) scores several
layers' tables on one machine in one call: the layer quantities (extents,
kernel, stride, groups, MACs, output bits, RF and MAC energies) become
columns gathered by each row's segment, and :func:`search_batch` picks one
winner per segment.  A pack holds dense or grouped layers, never both, so
each call runs one A-L1/A-L2 recurrence.

An evaluation has two halves.  :func:`c3p_columns` derives everything no
buffer size moves -- the loop nest, each C3P walk's critical capacities
with the loop counts they guard, the A0 bits, the traffic multipliers, the
cycles -- from the table, its layers, ``hw.package`` and ``hw.tech``.
:func:`score_columns` then tests ``hw.memory`` against them: legality,
reload factors, fills, traffic, energy and EDP.  :func:`evaluate_batch` is
the one applied to the other, and a sweep's
:class:`~repro.core.mapper.SharedTables` holds a reused pack's columns so
that its later machines run only the second half.  A table is tile-major
(:class:`~repro.core.space.CandidateTable`): each loop-nest tile's rows
differ only in their loop orders and rotation, so :func:`c3p_columns`
computes whatever reads neither once per tile, picks each row's critical
capacities by its order flags and its rotation flags by its codes, and
repeats the tile columns for the tile's rows; both halves hand on one
value per row.

**Bit-identity contract.**  The scalar path is the golden oracle; this
kernel must agree with it to the last float.  Three rules make that hold:

* every float expression replicates the scalar path's association order
  (e.g. ``(fill * n_cores) * n_chiplets``, the ``EnergyBreakdown.total_pj``
  component order, ``(energy * 1e-12) * runtime``) -- IEEE-754 float64 ops
  are deterministic, so equal operand order means equal bits;
* integer quantities (loop counts, cycles, weight-read bits) stay in int64
  until the exact point where the scalar path first mixes them into a
  float, so the int->float64 conversion happens once, correctly rounded,
  on the same value;
* int64 products whose float64 estimate exceeds ``2**62`` abort the batch
  (:class:`BatchOverflowError`) -- the caller falls back to the scalar
  path, which computes with arbitrary-precision Python ints.  Real mapping
  spaces sit many orders of magnitude below this bound.

The winner selection mirrors the mapper's strict-``<`` scan: invalid lanes
are masked to ``+inf`` and the *first* row of each segment's minimum wins
(``np.argmin`` on one layer's table; a stable sort by segment then score on
a pack), which is exactly the first-in-enumeration winner the scalar loop
keeps on ties.

``REPRO_BATCH_KERNEL=0`` (or ``false``/``off``/``no``) opts out and forces
the mapper onto the scalar path; the kernel is the default otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro.arch.config import HardwareConfig
from repro.arch.energy import EnergyModel
from repro.core.cost import CostReport, EnergyBreakdown
from repro.core.loopnest import mac_utilization
from repro.core.mapping import Mapping
from repro.core.space import TILE_COLUMNS, VARIANT_COLUMNS, CandidateTable, row_mapping
from repro.core.traffic import TrafficReport
from repro.errors import ResourceExhaustedError
from repro.workloads.layer import ConvLayer

#: Environment switch; default on, ``0/false/off/no`` disables.
BATCH_KERNEL_ENV = "REPRO_BATCH_KERNEL"

#: int64 magnitude guard: products whose float64 estimate clears this bound
#: may have lost exactness (or wrapped), so the batch aborts to scalar.
_INT64_SAFE_LIMIT = float(2**62)


class BatchOverflowError(ResourceExhaustedError, OverflowError):
    """An int64 product left the exactness-guaranteed range; use scalar.

    Still an ``OverflowError`` (the historical contract) and now a
    :class:`repro.errors.ResourceExhaustedError` (code
    ``resource-exhausted``, exit 6) -- though callers normally absorb it
    by falling back to the arbitrary-precision scalar path.
    """


def batch_kernel_enabled() -> bool:
    """The effective on/off switch (``REPRO_BATCH_KERNEL`` not opted out)."""
    raw = os.environ.get(BATCH_KERNEL_ENV, "").strip().lower()
    if not raw:
        return True
    return raw not in ("0", "false", "off", "no")


@dataclass(frozen=True)
class BatchResult:
    """Struct-of-arrays evaluation of one candidate table on one (layer, hw).

    Every array has one row per candidate, aligned with ``candidates``.
    Candidate-independent terms (output drain, per-cycle PE feeds) are kept
    as Python scalars, exactly as the scalar traffic assembly produces them;
    on a pack they are per-row columns of each row's layer's scalar.  Rows
    where ``valid`` is ``False`` carry the arithmetic the walks produced
    anyway; only :func:`search_batch`'s masked scores select winners.

    The dtypes follow the scalar path's int/float split, which
    :func:`gather_winners` relies on: ``w_l1_read_bits``, ``dram_output_bits``,
    ``rf_drain_bits``, ``cycles`` and ``o_l2_bytes`` are integers (int64
    columns, or Python ints), every other quantity a float.
    """

    candidates: CandidateTable
    valid: "np.ndarray"

    # C3P walk outputs (bits / factors, float64)
    weight_a0_bits: "np.ndarray"
    weight_reload: "np.ndarray"
    weight_fill_bits: "np.ndarray"
    a_l1_cc0_bytes: "np.ndarray"
    a_l1_a0_bits: "np.ndarray"
    a_l1_reload: "np.ndarray"
    a_l1_fill_bits: "np.ndarray"
    a_l2_a0_bits: "np.ndarray"
    a_l2_reload: "np.ndarray"
    a_l2_fill_bits: "np.ndarray"

    # traffic (float64 arrays; scalar terms are candidate-independent)
    dram_input_bits: "np.ndarray"
    dram_weight_bits: "np.ndarray"
    dram_output_bits: int
    d2d_bit_hops: "np.ndarray"
    a_l2_write_bits: "np.ndarray"
    a_l2_read_bits: "np.ndarray"
    a_l1_write_bits: "np.ndarray"
    a_l1_read_bits: float
    w_l1_write_bits: "np.ndarray"
    w_l1_read_bits: "np.ndarray"
    rf_rmw_bits: float
    rf_drain_bits: int

    # energy (pJ, float64 arrays except the candidate-independent scalars)
    dram_pj: "np.ndarray"
    d2d_pj: "np.ndarray"
    a_l2_pj: "np.ndarray"
    o_l2_pj: "np.ndarray"
    a_l1_pj: "np.ndarray"
    w_l1_pj: "np.ndarray"
    rf_pj: float
    mac_pj: float
    energy_pj: "np.ndarray"

    # scalarization
    o_l2_bytes: "np.ndarray"
    cycles: "np.ndarray"
    edp: "np.ndarray"

    def __len__(self) -> int:
        return len(self.candidates)

    def scores(self, objective: str) -> "np.ndarray":
        """The per-candidate objective column (``"energy"`` or ``"edp"``)."""
        if objective == "energy":
            return self.energy_pj
        if objective == "edp":
            return self.edp
        raise ValueError(f"unknown batch objective {objective!r}")


#: The :class:`EnergyBreakdown` fields, in order: a :class:`BatchResult`
#: column (or layer term) of the same name holds each.
_ENERGY_FIELDS = tuple(f.name for f in fields(EnergyBreakdown))

#: The :class:`TrafficReport` fields a :class:`BatchResult` holds, in
#: order; the report's O-L2 writes and reads are its DRAM output bits.
_TRAFFIC_FIELDS = tuple(
    f.name for f in fields(TrafficReport) if f.name not in ("o_l2_write_bits", "o_l2_read_bits")
)


@dataclass(slots=True)
class Winner:
    """One segment's winning row, copied out of the kernel's columns.

    :func:`gather_winners` fills it with Python values only, so it keeps
    no column and no table alive.  :attr:`energy` and :attr:`cycles` are
    all a model total reads (:func:`~repro.core.cost.model_cost`); the
    row's :class:`Mapping` and :class:`CostReport` are built on first
    read, once, and shared by every reader.

    Attributes:
        layer: The layer the kernel scored the row for.
        hw: The machine it was scored on.
        energy: The 8 energy components in :class:`EnergyBreakdown` field
            order.
        traffic: The :data:`_TRAFFIC_FIELDS` values, in that order.
        cycles: The row's cycles.
        o_l2_bytes: The O-L2 size its chiplet tile needs.
        row: Its :data:`~repro.core.space.CANDIDATE_COLUMNS` integers.
        core: Its declared core tile ``(tile_h, tile_w, tile_co)``.
        pair: Its ``(package, chiplet)`` spatial primitives.
    """

    layer: ConvLayer
    hw: HardwareConfig
    energy: tuple[float, ...]
    traffic: tuple[float, ...]
    cycles: int
    o_l2_bytes: int
    row: list[int]
    core: list[int]
    pair: tuple
    _mapping: Mapping | None = field(default=None, compare=False, repr=False)
    _report: CostReport | None = field(default=None, compare=False, repr=False)

    @property
    def mapping(self) -> Mapping:
        """The winning mapping (built on first read)."""
        if self._mapping is None:
            self._mapping = row_mapping(self.pair, self.row, self.core)
        return self._mapping

    def report(self) -> CostReport:
        """The row's :class:`CostReport`, built on the first call.

        It has the same ``repr`` as :func:`~repro.core.cost.evaluate_mapping`'s:
        the values already follow the scalar path's int/float split.
        """
        if self._report is None:
            traffic = dict(zip(_TRAFFIC_FIELDS, self.traffic))
            output_bits = traffic["dram_output_bits"]
            self._report = CostReport(
                layer=self.layer,
                mapping=self.mapping,
                energy=EnergyBreakdown(*self.energy),
                traffic=TrafficReport(
                    **traffic, o_l2_write_bits=output_bits, o_l2_read_bits=output_bits
                ),
                cycles=self.cycles,
                utilization=mac_utilization(self.layer, self.hw, self.cycles),
                o_l2_bytes=self.o_l2_bytes,
            )
        return self._report


def gather_winners(
    result: BatchResult,
    rows: "np.ndarray",
    layers: Sequence[ConvLayer],
    hw: HardwareConfig,
) -> list[Winner]:
    """The :class:`Winner` records of ``result``'s ``rows``, the one at
    ``rows[i]`` scored for ``layers[i]``.

    Each column is copied out with one fancy-index gather over all
    ``rows``: ``column[rows].tolist()`` gives the Python ``int`` or
    ``float`` that ``column.item(row)`` would.  A layer term that is a
    Python scalar (a one-layer table's) is repeated as it is.
    """
    count = len(rows)

    def gather(value) -> list:
        return value[rows].tolist() if isinstance(value, np.ndarray) else [value] * count

    table = result.candidates
    return [
        Winner(layer, hw, energy, traffic, cycles, o_l2_bytes, row, core, table.pairs[pair])
        for layer, energy, traffic, cycles, o_l2_bytes, row, core, pair in zip(
            layers,
            zip(*(gather(getattr(result, name)) for name in _ENERGY_FIELDS)),
            zip(*(gather(getattr(result, name)) for name in _TRAFFIC_FIELDS)),
            gather(result.cycles),
            gather(result.o_l2_bytes),
            table.rows[:, rows].T.tolist(),
            table.core[:, rows].T.tolist(),
            table.pair[rows].tolist(),
        )
    ]


@dataclass(frozen=True)
class BatchSearchOutcome:
    """What the mapper needs from a batch search, per segment.

    A layer's own table is one segment.  ``winners[s]`` is the table row
    of segment ``s``'s winner and ``records[s]`` its :class:`Winner`
    (both ``None`` when none of its candidates is valid);
    ``segment_evaluated`` and ``segment_invalid`` count its valid and
    invalid candidates.  ``columns`` are the :class:`C3PColumns` the call
    scored, for the caller to hold; they are left out of ``==``, since
    they change no answer.
    """

    winners: tuple[int | None, ...]
    segment_evaluated: tuple[int, ...]
    segment_invalid: tuple[int, ...]
    records: tuple[Winner | None, ...]
    columns: C3PColumns = field(compare=False, repr=False)

    @property
    def reports(self) -> tuple[CostReport | None, ...]:
        """Each segment's winner :class:`CostReport` (:meth:`Winner.report`)."""
        return tuple(None if record is None else record.report() for record in self.records)

    @property
    def evaluated(self) -> int:
        """Valid candidates over every segment."""
        return sum(self.segment_evaluated)

    @property
    def invalid(self) -> int:
        """Invalid candidates over every segment."""
        return sum(self.segment_invalid)


def _ceil_div(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """Elementwise ceiling division on int64 (positive divisors)."""
    return -(-a // b)


#: The layer terms the loop nest reads (:func:`c3p_columns`).
_NEST_TERMS = (
    "ho", "wo", "co", "ci", "kh", "kw", "row_step", "col_step",
    "groups", "co_per_group", "ci_per_group", "a_l1_chunk",
)

#: The layer terms :func:`score_columns` reads.
_SCORED_TERMS = (
    "kernel_sweep", "output_bits", "a_l1_read_bits",
    "rf_rmw_bits", "rf_drain_bits", "rf_pj", "mac_pj",
)


def _layer_terms(
    layers: Sequence[ConvLayer], hw: HardwareConfig, model: EnergyModel, pack: bool
) -> dict[str, object]:
    """The layer quantities the kernel reads, by name.

    Each is computed per layer with the scalar path's own expression
    (``macs`` and ``output_elements`` read once per layer).  For one
    layer's table they stay Python scalars; for a ``pack`` each is an
    array over the segments, which :func:`_per_row` gathers by each row's
    segment, so a pack row meets exactly the operands a one-layer call
    would give it.  They read ``hw.package`` and ``hw.tech`` only.
    """
    tech = hw.tech

    def terms(layer: ConvLayer) -> dict:
        macs = layer.macs
        output_elements = layer.output_elements
        rf_rmw_bits = macs / hw.vector_size * tech.psum_bits
        rf_drain_bits = output_elements * tech.psum_bits
        return {
            "ho": layer.ho, "wo": layer.wo, "co": layer.co, "ci": layer.ci,
            "kh": layer.kh, "kw": layer.kw,
            "row_step": min(layer.stride, layer.kh),
            "col_step": min(layer.stride, layer.kw),
            "groups": layer.groups,
            "co_per_group": layer.co_per_group,
            "ci_per_group": layer.ci_per_group,
            "a_l1_chunk": min(hw.vector_size, layer.ci),
            "kernel_sweep": float(layer.kh * layer.kw),
            "output_bits": output_elements * tech.data_bits,
            "a_l1_read_bits": macs / hw.lanes * tech.data_bits,
            "rf_rmw_bits": rf_rmw_bits,
            "rf_drain_bits": rf_drain_bits,
            "rf_pj": (rf_rmw_bits + rf_drain_bits) * model.rf_rmw_pj_per_bit,
            "mac_pj": model.mac_energy_pj(macs),
        }

    if not pack:
        return terms(layers[0])
    per_layer = [terms(layer) for layer in layers]
    return {name: np.array([t[name] for t in per_layer]) for name in per_layer[0]}


def _per_row(
    terms: dict[str, object], names: Sequence[str], segment: "np.ndarray | None"
) -> SimpleNamespace:
    """``names`` of ``terms`` broadcastable against the rows: a one-layer
    table's scalars as they are, a pack's gathered by ``segment``."""
    if segment is None:
        return SimpleNamespace(**{name: terms[name] for name in names})
    return SimpleNamespace(**{name: terms[name][segment] for name in names})


def _stack(arrays: Sequence["np.ndarray"]) -> "np.ndarray":
    """``np.stack(arrays)`` of equal-shape arrays, in one concatenation."""
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _input_channels_for(q: SimpleNamespace, out_channels: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_channels_for` (out_channels >= 1)."""
    groups_spanned = np.minimum(_ceil_div(out_channels, q.co_per_group), q.groups)
    return np.minimum(groups_spanned * q.ci_per_group, q.ci)


def _input_rows_for(q: SimpleNamespace, out_rows: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_rows_for` (out_rows >= 1)."""
    return (out_rows - 1) * q.row_step + q.kh


def _input_cols_for(q: SimpleNamespace, out_cols: "np.ndarray") -> "np.ndarray":
    """Vectorized :meth:`ConvLayer.input_cols_for` (out_cols >= 1)."""
    return (out_cols - 1) * q.col_step + q.kw


def _window_bytes(
    q: SimpleNamespace,
    data_bytes: float,
    out_rows: "np.ndarray",
    out_cols: "np.ndarray",
    channels: "np.ndarray",
) -> "np.ndarray":
    """Vectorized ``c3p._window_bytes``: int64 element count, one conversion."""
    elements = _input_rows_for(q, out_rows) * _input_cols_for(q, out_cols) * channels
    return elements * data_bytes


#: The loops that can reload one walk's buffer, in slot order: each
#: critical capacity Cc_k (bytes) with the loop count a smaller buffer
#: multiplies the reload factor by.
Critical = tuple[tuple["np.ndarray", "np.ndarray"], ...]


def _reload(start, buffer, critical: Critical) -> "np.ndarray":
    """``start`` times the count of every Cc_k above ``buffer``, in slot order.

    The scalar walk's ``reload_factor *= loop.count`` on each unsatisfied
    critical capacity, with the same operands in the same order.
    """
    reload = start
    for capacity, count in critical:
        reload = np.where(buffer < capacity, reload * count, reload)
    return reload


@dataclass(frozen=True, eq=False)
class C3PColumns:
    """The half of a table's evaluation that no buffer size moves.

    :func:`c3p_columns` derives it from the table, its layers,
    ``hw.package`` and ``hw.tech``.  In C3P (Section IV-B, Eq. 1-2) the
    critical capacities Cc_k are properties of the loop nest, and a
    buffer's size only decides which of them it satisfies; so
    :func:`score_columns` tests ``hw.memory`` against these columns and
    nothing more, and machines that differ only in memory can share one
    table's columns.  They keep no reference to the table.

    The slot walk of each buffer reduces to its critical loops.  Every
    temporal level orders its slots C, W, H (channel priority) or W, H, C
    (plane priority), so its one C loop never falls between its W and H
    loops: the weight walk's W and H loops of a level share one working
    set, and the dense A-L1 and A-L2 walks penalize only C loops (grouped
    layers only through Cc0).  The loop counts and working sets read the
    tile alone and an order only picks which set is critical at its level,
    so :func:`c3p_columns` computes them once per tile; every column here
    still has one value per row.

    Attributes:
        terms: The layer terms :func:`score_columns` reads: Python scalars
            for one layer, arrays over a pack's segments.
        invalid: Rows no buffer size can make legal (partition and tile
            shape checks of ``LoopNest.validity_errors``).
        o_l1_required: O-L1 bytes each row's core tile needs.
        a_l1_required: A-L1 bytes each row's core tile needs.
        weight_group: Cores whose W-L1s pool one chiplet's weights.
        weight_critical: The weight walk's W and H loops.
        a_l1_critical: The dense A-L1 walk's C loops (empty if grouped).
        a_l2_critical: The dense A-L2 walk's level-2 C loop (empty if
            grouped).
        chp_co_ways: Chiplet channel ways (the fill's per-chiplet copies).
        n_chiplets: Active chiplets.
        n_cores: Active cores per chiplet.
        sharing_hops: Ring/mesh/switch hops per shared bit.
        plane_rotated: Rows whose weights rotate across plane-split chiplets.
        channel_rotated: Rows whose activations rotate across channel-split
            chiplets.
        runtime_s: Each row's run time.

    The remaining fields are :class:`BatchResult`'s of the same name.
    """

    terms: dict[str, object]
    invalid: "np.ndarray"
    o_l1_required: "np.ndarray"
    a_l1_required: "np.ndarray"
    weight_group: "np.ndarray"
    weight_critical: Critical
    weight_a0_bits: "np.ndarray"
    a_l1_cc0_bytes: "np.ndarray"
    a_l1_critical: Critical
    a_l1_a0_bits: "np.ndarray"
    a_l2_critical: Critical
    a_l2_a0_bits: "np.ndarray"
    chp_co_ways: "np.ndarray"
    n_chiplets: "np.ndarray"
    n_cores: "np.ndarray"
    sharing_hops: "np.ndarray"
    plane_rotated: "np.ndarray"
    channel_rotated: "np.ndarray"
    w_l1_read_bits: "np.ndarray"
    o_l2_bytes: "np.ndarray"
    cycles: "np.ndarray"
    runtime_s: "np.ndarray"


def c3p_columns(
    layers: ConvLayer | Sequence[ConvLayer],
    hw: HardwareConfig,
    candidates: CandidateTable,
) -> C3PColumns:
    """The memory-independent half of evaluating ``candidates`` (see :class:`C3PColumns`).

    ``layers`` is the table's layer, or -- for a pack -- one layer per
    segment, all dense or all grouped.  Reads ``hw.package`` and
    ``hw.tech``, never ``hw.memory``.

    Raises:
        BatchOverflowError: When an int64 product would leave the exact
            range (callers fall back to the scalar oracle).
        ValueError: On an empty table, or a pack mixing dense and grouped
            layers.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    members = [layers] if candidates.segment is None else list(layers)
    kinds = {member.groups > 1 for member in members}
    if len(kinds) > 1:
        raise ValueError("a pack holds dense or grouped layers, not both")
    (grouped,) = kinds
    model = EnergyModel(hw)
    terms = _layer_terms(members, hw, model, candidates.segment is not None)
    # Whatever reads no order flag and no rotation code is computed once per
    # run of ``variants`` rows that share a tile (see CandidateTable), as
    # (tile,) columns; the flags and codes are (tile, variant) arrays.
    variants = candidates.variants
    n_tiles = len(candidates) // variants
    q = _per_row(
        terms, _NEST_TERMS,
        None if candidates.segment is None else candidates.segment[::variants],
    )
    columns = candidates.columns
    cols = {name: columns[name][::variants] for name in TILE_COLUMNS}
    channel_first_2, channel_first_1, rot_activations, rot_weights = (
        columns[name].reshape(n_tiles, variants) for name in VARIANT_COLUMNS
    )
    tech = hw.tech
    data_bytes = tech.data_bits / 8.0
    data_bits = tech.data_bits

    # --- loop-nest derivation (LoopNest.__init__, vectorized) ---------------
    # The rows carry the tile and core extents already clamped.
    tile_ho, tile_wo, tile_co = cols["tile_ho"], cols["tile_wo"], cols["tile_co"]
    core_ho, core_wo = cols["core_ho"], cols["core_wo"]
    macro_ho = _ceil_div(np.int64(q.ho), cols["pkg_rows"])
    macro_wo = _ceil_div(np.int64(q.wo), cols["pkg_cols"])
    macro_co = _ceil_div(np.int64(q.co), cols["pkg_co_ways"])
    share_ho = _ceil_div(tile_ho, cols["chp_rows"])
    share_wo = _ceil_div(tile_wo, cols["chp_cols"])
    share_co = _ceil_div(tile_co, cols["chp_co_ways"])
    core_co = np.minimum(np.int64(hw.lanes), share_co)
    c1 = _ceil_div(share_co, core_co)
    w1 = _ceil_div(share_wo, core_wo)
    h1 = _ceil_div(share_ho, core_ho)
    c2 = _ceil_div(macro_co, tile_co)
    w2 = _ceil_div(macro_wo, tile_wo)
    h2 = _ceil_div(macro_ho, tile_ho)
    pkg_grid_ways = cols["pkg_rows"] * cols["pkg_cols"]
    pkg_ways = cols["pkg_co_ways"] * pkg_grid_ways
    chp_grid_ways = cols["chp_rows"] * cols["chp_cols"]
    chp_ways = cols["chp_co_ways"] * chp_grid_ways
    n_chiplets = np.minimum(pkg_ways, np.int64(hw.n_chiplets))
    n_cores = np.minimum(chp_ways, np.int64(hw.n_cores))

    # --- validity (LoopNest.validity_errors, vectorized) --------------------
    o_l1_required = _ceil_div(core_ho * core_wo * core_co * tech.psum_bits, np.int64(8))
    min_a_l1 = _input_cols_for(q, core_wo) * q.a_l1_chunk * data_bits // 8
    pkg_channel = cols["pkg_is_channel"].astype(bool)
    invalid = pkg_ways > hw.n_chiplets
    invalid |= chp_ways > hw.n_cores
    invalid |= pkg_channel & (cols["pkg_co_ways"] > q.co)
    invalid |= cols["chp_co_ways"] > macro_co
    invalid |= (cols["pkg_rows"] > q.ho) | (cols["pkg_cols"] > q.wo)
    invalid |= (cols["chp_rows"] > tile_ho) | (cols["chp_cols"] > tile_wo)

    # --- weight-buffer C3P walk (analyze_weight_buffer) ---------------------
    # The working set grows at each C loop; a level's W and H loops see the
    # set before its C loop (plane priority) or after it (channel priority).
    # Each critical capacity is one of two tile columns, picked per row by
    # its level's channel-first flag (1: chiplet, 2: package) in one pass
    # below.
    weight_elements = q.kh * q.kw * q.ci_per_group * core_co
    block_bytes = weight_elements * data_bytes
    after_c1 = block_bytes * c1
    picks = [(channel_first_1, after_c1, block_bytes), (channel_first_2, after_c1 * c2, after_c1)]
    weight_a0_bits = block_bytes * 8.0 * (c1 * c2)

    # --- A-L1 C3P walk (analyze_activation_l1) ------------------------------
    # A C loop holds the full-CI window of the output extent its level's
    # earlier W and H loops (plane priority) have grown.
    # A0 windows: one core block's (A-L1) and one chiplet tile's (A-L2).
    block_channels = _input_channels_for(q, core_co)
    chunk_channels = np.minimum(np.int64(hw.vector_size), block_channels)
    cc0 = _window_bytes(q, data_bytes, core_ho, core_wo, chunk_channels)
    rows_2, cols_2 = tile_ho * h2, tile_wo * w2
    if grouped:
        # Distinct input channels per C iteration: fresh data, no penalty.
        a_l1_window = _window_bytes(
            q, data_bytes, core_ho, core_wo, np.minimum(block_channels * (c1 * c2), q.ci)
        )
        a_l2_window = _window_bytes(
            q, data_bytes, tile_ho, tile_wo,
            np.minimum(_input_channels_for(q, tile_co) * c2, q.ci),
        )
    else:
        ci = np.full(n_tiles, q.ci, dtype=np.int64)
        rows_1, cols_1 = core_ho * h1, core_wo * w1
        a_l1_window = _window_bytes(q, data_bytes, core_ho, core_wo, ci)
        level_1_window = _window_bytes(q, data_bytes, rows_1, cols_1, ci)
        level_2_window = _window_bytes(q, data_bytes, rows_1 * h2, cols_1 * w2, ci)
        picks += [
            (channel_first_1, a_l1_window, level_1_window),
            (channel_first_2, level_1_window, level_2_window),
        ]
        # --- A-L2 C3P walk (analyze_activation_l2: level-2 loops only) ------
        a_l2_window = _window_bytes(q, data_bytes, tile_ho, tile_wo, ci)
        picks.append(
            (channel_first_2, a_l2_window, _window_bytes(q, data_bytes, rows_2, cols_2, ci))
        )
    a_l1_a0_bits = a_l1_window * 8.0 * (w1 * h1 * w2 * h2)
    a_l2_a0_bits = a_l2_window * 8.0 * w2 * h2

    # --- traffic multipliers (compute_traffic) ------------------------------
    # Sharing cost dispatches on the package topology (ring/mesh: N_P - 1
    # hops; switch: N_P).  n_chiplets is per-candidate, so evaluate the
    # scalar model once per distinct count -- candidate spaces only ever
    # contain a handful of active-chiplet values.  The counts come from
    # np.bincount, not np.unique, whose masked-array check imports numpy.ma
    # (about 0.5 MiB of resident memory) on first use.
    sharing_hops = np.zeros_like(n_chiplets)
    for count in np.flatnonzero(np.bincount(n_chiplets)):
        sharing_hops[n_chiplets == count] = hw.topology.sharing_hops_per_bit(
            int(count)
        )
    core_blocks = c1 * w1 * h1 * c2 * w2 * h2
    block_weight_bits = weight_elements * data_bits
    w_l1_read_bits = block_weight_bits * core_blocks * n_cores * n_chiplets

    # --- int64 exactness guard ----------------------------------------------
    blocks_f = (
        c1.astype(np.float64)
        * w1.astype(np.float64)
        * h1.astype(np.float64)
        * c2.astype(np.float64)
        * w2.astype(np.float64)
        * h2.astype(np.float64)
    )
    read_estimate = block_weight_bits.astype(np.float64) * blocks_f * n_cores * n_chiplets
    block_cycles_f = (
        core_ho.astype(np.float64) * core_wo * q.kh * q.kw
    )  # chunk factor bounded below by 1, added next
    chunks = _ceil_div(np.maximum(block_channels, 1), np.int64(hw.vector_size))
    cycles_estimate = blocks_f * block_cycles_f * chunks
    window_estimate = (
        _input_rows_for(q, rows_2).astype(np.float64)
        * _input_cols_for(q, cols_2)
        * q.ci
    )
    guard = max(
        float(read_estimate.max()),
        float(cycles_estimate.max()),
        float(window_estimate.max()),
    )
    if guard > _INT64_SAFE_LIMIT:
        raise BatchOverflowError(
            f"candidate magnitude {guard:g} exceeds the int64-exact range"
        )

    # --- cycles (LoopNest.total_cycles) and the O-L2 size -------------------
    cycles = core_blocks * (core_ho * core_wo * q.kh * q.kw * chunks)
    runtime_s = cycles * tech.cycle_time_ns() * 1e-9
    o_l2_bytes = _ceil_div(tile_ho * tile_wo * tile_co * data_bits, np.int64(8))

    # --- to rows: the critical capacities picked in one pass, and the tile
    # columns of each dtype stacked and repeated for the variants in one
    # copy; the rows of each result are the row-layout columns ---------------
    flag, if_set, if_clear = map(_stack, zip(*picks))
    level_1, level_2, *a_l1_a_l2 = np.where(
        flag, if_set[:, :, None], if_clear[:, :, None]
    ).reshape(len(picks), -1)
    (
        o_l1_required, min_a_l1, chp_grid_ways, c1, w1, h1, c2, w2, h2,
        chp_co_ways, n_chiplets, n_cores, sharing_hops, w_l1_read_bits,
        o_l2_bytes, cycles,
    ) = np.repeat(_stack([
        o_l1_required, min_a_l1, chp_grid_ways, c1, w1, h1, c2, w2, h2,
        cols["chp_co_ways"], n_chiplets, n_cores, sharing_hops, w_l1_read_bits,
        o_l2_bytes, cycles,
    ]), variants, axis=1)
    weight_a0_bits, cc0, a_l1_a0_bits, a_l2_a0_bits, runtime_s = np.repeat(
        _stack([weight_a0_bits, cc0, a_l1_a0_bits, a_l2_a0_bits, runtime_s]),
        variants, axis=1,
    )
    return C3PColumns(
        terms={name: terms[name] for name in _SCORED_TERMS},
        invalid=np.repeat(invalid, variants),
        o_l1_required=o_l1_required,
        a_l1_required=min_a_l1,
        weight_group=chp_grid_ways,
        weight_critical=((level_1, w1), (level_1, h1), (level_2, w2), (level_2, h2)),
        weight_a0_bits=weight_a0_bits,
        a_l1_cc0_bytes=cc0,
        a_l1_critical=tuple(zip(a_l1_a_l2[:2], (c1, c2))),
        a_l1_a0_bits=a_l1_a0_bits,
        a_l2_critical=tuple(zip(a_l1_a_l2[2:], (c2,))),
        a_l2_a0_bits=a_l2_a0_bits,
        chp_co_ways=chp_co_ways,
        n_chiplets=n_chiplets,
        n_cores=n_cores,
        sharing_hops=sharing_hops,
        plane_rotated=np.logical_and(rot_weights, ~pkg_channel[:, None]).reshape(-1),
        channel_rotated=np.logical_and(rot_activations, pkg_channel[:, None]).reshape(-1),
        w_l1_read_bits=w_l1_read_bits,
        o_l2_bytes=o_l2_bytes,
        cycles=cycles,
        runtime_s=runtime_s,
    )


def score_columns(
    columns: C3PColumns, hw: HardwareConfig, candidates: CandidateTable
) -> BatchResult:
    """Score ``candidates``' :class:`C3PColumns` against ``hw.memory``.

    ``columns`` come from :func:`c3p_columns` on these rows (or on a table
    with equal rows and segments) and a machine with ``hw``'s package and
    technology.  This half tests the buffer sizes: legality against O-L1
    and A-L1, each walk's reload factor, and then the fills, traffic,
    per-bit energies, total energy and EDP.
    """
    memory, tech = hw.memory, hw.tech
    model = EnergyModel(hw)
    q = _per_row(columns.terms, _SCORED_TERMS, candidates.segment)
    valid = ~(
        columns.invalid
        | (columns.o_l1_required > memory.o_l1_bytes)
        | (columns.a_l1_required > memory.a_l1_bytes)
    )

    # --- the three C3P walks' reload factors and fills ----------------------
    weight_buffer = (memory.w_l1_bytes * columns.weight_group).astype(np.float64)
    weight_reload = _reload(
        np.ones(len(candidates), dtype=np.float64), weight_buffer, columns.weight_critical
    )
    weight_fill_bits = columns.weight_a0_bits * weight_reload
    a_l1_budget = float(memory.a_l1_bytes)
    a_l1_reload = _reload(
        np.where(a_l1_budget >= columns.a_l1_cc0_bytes, 1.0, q.kernel_sweep),
        a_l1_budget,
        columns.a_l1_critical,
    )
    a_l1_fill_bits = columns.a_l1_a0_bits * a_l1_reload
    a_l2_reload = _reload(
        np.ones(len(candidates), dtype=np.float64),
        float(memory.a_l2_bytes),
        columns.a_l2_critical,
    )
    a_l2_fill_bits = columns.a_l2_a0_bits * a_l2_reload

    # --- traffic assembly (compute_traffic) ---------------------------------
    n_chiplets, n_cores = columns.n_chiplets, columns.n_cores
    sharing_hops = columns.sharing_hops
    plane_rotated, channel_rotated = columns.plane_rotated, columns.channel_rotated
    chiplet_weight_fill = weight_fill_bits * columns.chp_co_ways
    dram_weight_bits = np.where(
        plane_rotated, chiplet_weight_fill, chiplet_weight_fill * n_chiplets
    )
    weight_d2d = np.where(plane_rotated, chiplet_weight_fill * sharing_hops, 0.0)
    w_l1_write_bits = chiplet_weight_fill * n_chiplets
    dram_input_bits = np.where(
        channel_rotated, a_l2_fill_bits, a_l2_fill_bits * n_chiplets
    )
    act_d2d = np.where(channel_rotated, a_l2_fill_bits * sharing_hops, 0.0)
    a_l2_write_bits = a_l2_fill_bits * n_chiplets
    a_l1_write_bits = a_l1_fill_bits * n_cores * n_chiplets
    a_l2_read_bits = a_l1_fill_bits * columns.weight_group * n_chiplets
    d2d_bit_hops = act_d2d + weight_d2d
    output_bits = q.output_bits

    # --- energy (energy_from_traffic) ---------------------------------------
    dram_bits = dram_input_bits + dram_weight_bits + output_bits
    dram_pj = dram_bits * model.dram_pj_per_bit
    d2d_pj = d2d_bit_hops * model.d2d_pj_per_bit
    a_l2_pj = (a_l2_write_bits + a_l2_read_bits) * model.a_l2_pj_per_bit
    o_l2_bytes = columns.o_l2_bytes
    if memory.o_l2_bytes:
        o_l2_pj_bit = np.full(len(candidates), model.o_l2_pj_per_bit(0), dtype=np.float64)
    else:
        # TechnologyParams.sram_energy_pj_per_bit on the per-candidate size.
        slope = (tech.l2_anchor_pj_per_bit - tech.l1_anchor_pj_per_bit) / (
            tech.l2_anchor_kb - tech.l1_anchor_kb
        )
        size_kb = o_l2_bytes / 1024.0
        o_l2_pj_bit = np.maximum(
            tech.l1_anchor_pj_per_bit + slope * (size_kb - tech.l1_anchor_kb),
            tech.rf_rmw_energy_pj_per_bit,
        )
    o_l2_pj = (output_bits + output_bits) * o_l2_pj_bit
    a_l1_pj = (a_l1_write_bits + q.a_l1_read_bits) * model.a_l1_pj_per_bit
    w_l1_pj = (w_l1_write_bits + columns.w_l1_read_bits) * model.w_l1_pj_per_bit
    rf_pj = q.rf_pj
    mac_pj = q.mac_pj
    # EnergyBreakdown.total_pj association order, component by component.
    energy_pj = (
        ((((((dram_pj + d2d_pj) + a_l2_pj) + o_l2_pj) + a_l1_pj) + w_l1_pj) + rf_pj)
        + mac_pj
    )

    # --- EDP (CostReport.edp) -----------------------------------------------
    edp = energy_pj * 1e-12 * columns.runtime_s

    return BatchResult(
        candidates=candidates,
        valid=valid,
        weight_a0_bits=columns.weight_a0_bits,
        weight_reload=weight_reload,
        weight_fill_bits=weight_fill_bits,
        a_l1_cc0_bytes=columns.a_l1_cc0_bytes,
        a_l1_a0_bits=columns.a_l1_a0_bits,
        a_l1_reload=a_l1_reload,
        a_l1_fill_bits=a_l1_fill_bits,
        a_l2_a0_bits=columns.a_l2_a0_bits,
        a_l2_reload=a_l2_reload,
        a_l2_fill_bits=a_l2_fill_bits,
        dram_input_bits=dram_input_bits,
        dram_weight_bits=dram_weight_bits,
        dram_output_bits=output_bits,
        d2d_bit_hops=d2d_bit_hops,
        a_l2_write_bits=a_l2_write_bits,
        a_l2_read_bits=a_l2_read_bits,
        a_l1_write_bits=a_l1_write_bits,
        a_l1_read_bits=q.a_l1_read_bits,
        w_l1_write_bits=w_l1_write_bits,
        w_l1_read_bits=columns.w_l1_read_bits,
        rf_rmw_bits=q.rf_rmw_bits,
        rf_drain_bits=q.rf_drain_bits,
        dram_pj=dram_pj,
        d2d_pj=d2d_pj,
        a_l2_pj=a_l2_pj,
        o_l2_pj=o_l2_pj,
        a_l1_pj=a_l1_pj,
        w_l1_pj=w_l1_pj,
        rf_pj=rf_pj,
        mac_pj=mac_pj,
        energy_pj=energy_pj,
        o_l2_bytes=o_l2_bytes,
        cycles=columns.cycles,
        edp=edp,
    )


def evaluate_batch(
    layers: ConvLayer | Sequence[ConvLayer],
    hw: HardwareConfig,
    candidates: CandidateTable,
) -> BatchResult:
    """Evaluate every candidate of one machine's table in one pass.

    ``layers`` is the table's layer, or -- for a pack -- one layer per
    segment, all dense or all grouped: :func:`score_columns` applied to
    :func:`c3p_columns`.

    Raises:
        BatchOverflowError: When an int64 product would leave the exact
            range (callers fall back to the scalar oracle).
        ValueError: On an empty table, or a pack mixing dense and grouped
            layers.
    """
    return score_columns(c3p_columns(layers, hw, candidates), hw, candidates)


#: Objective-function names the kernel can score (mapper objectives).
BATCH_OBJECTIVES = {
    "energy_objective": "energy",
    "edp_objective": "edp",
}


def segment_minima(
    scores: "np.ndarray", segment: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """Each segment's first row of minimum score, as ``(segments, rows)``.

    The rows are the first per segment of a stable sort by (segment,
    score), so exact ties keep the earliest row, as the scalar strict-``<``
    scan does.  Segments appear in ascending order.
    """
    order = np.lexsort((scores, segment))
    ranked = segment[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    return ranked[starts], order[starts]


def search_batch(
    layers: ConvLayer | Sequence[ConvLayer],
    hw: HardwareConfig,
    candidates: CandidateTable,
    objective: str = "energy_objective",
    columns: C3PColumns | None = None,
) -> BatchSearchOutcome | None:
    """Batch-evaluate ``candidates`` and pick each segment's scalar-identical winner.

    ``layers`` is the table's layer, or one layer per segment of a pack.
    ``objective`` names one of the mapper's two objectives
    (:data:`BATCH_OBJECTIVES`).  Returns ``None`` when the kernel cannot
    guarantee bit-identity for this call (empty candidate table, or the
    int64 exactness guard tripping on any row) -- callers then run the
    scalar loop, for a pack one segment at a time.

    Every row is scored in one pass.  A segment's winner is its first row
    of minimum masked score: ``np.argmin`` on one layer's table, the first
    row per segment of a stable sort by (segment, score) on a pack
    (:func:`segment_minima`).  That is the first-in-enumeration winner the
    scalar strict-``<`` scan keeps on exact ties.  The winners are copied
    out of the result in one :func:`gather_winners` call, so the records
    keep no column and no report is built here.

    ``columns`` are :class:`C3PColumns` an earlier call computed for a
    table with these rows and segments, on layers of these shapes and a
    machine with ``hw``'s package and technology: the call then only
    scores them (:func:`score_columns`).  The outcome carries the columns
    the call scored.
    """
    scorer = BATCH_OBJECTIVES[objective]
    if not candidates:
        return None
    if columns is None:
        try:
            columns = c3p_columns(layers, hw, candidates)
        except BatchOverflowError:
            return None
    result = score_columns(columns, hw, candidates)
    masked = np.where(result.valid, result.scores(scorer), np.inf)
    members = [layers] if candidates.segment is None else list(layers)
    if candidates.segment is None:
        segment = np.zeros(len(candidates), dtype=np.int64)
        heads, firsts = segment[:1], np.array([np.argmin(masked)])
    else:
        segment = candidates.segment
        heads, firsts = segment_minima(masked, segment)
    found = masked[firsts] < np.inf  # a segment with no valid row has no winner
    heads, firsts = heads[found].tolist(), firsts[found]
    winners: list[int | None] = [None] * len(members)
    records: list[Winner | None] = [None] * len(members)
    gathered = gather_winners(result, firsts, [members[head] for head in heads], hw)
    for head, first, record in zip(heads, firsts.tolist(), gathered):
        winners[head] = first
        records[head] = record
    evaluated = np.bincount(segment[result.valid], minlength=len(members))
    rows = np.bincount(segment, minlength=len(members))
    return BatchSearchOutcome(
        winners=tuple(winners),
        segment_evaluated=tuple(evaluated.tolist()),
        segment_invalid=tuple((rows - evaluated).tolist()),
        records=tuple(records),
        columns=columns,
    )
