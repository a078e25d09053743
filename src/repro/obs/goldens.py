"""The paper-golden registry: frozen values both tests and benches consume.

NN-Baton's credibility rests on reproducing the paper's worked numbers
exactly -- the Figure 6(c)-(f) C3P walkthroughs, the 800 B A-L1 case
study, the Table I operation energies, the Table II design-space counts
and the Figure 10 regression fits.  Those constants used to live only in
``tests/integration/test_goldens.py``; this module is the single source
of truth for them, consumed by

* the golden regression tests (``tests/integration/test_goldens.py``),
  which assert every entry reproduces **exactly**, and
* the bench records (:mod:`repro.obs.bench`), whose
  :func:`fidelity_block` embeds per-golden deviations in every
  ``BENCH_<gitsha>.json`` so ``repro bench compare`` can fail a commit
  that drifts from the paper even when every relationship-style test
  still passes.  The gate is exact: any non-zero deviation fails.

Each :class:`Golden` carries a zero-argument ``compute`` closure that
re-derives the value from the live model code.  Computation is cheap
(sub-second for the whole registry) and fully deterministic: the C3P
analyses are closed-form, the Table II counts are enumerations, and the
Figure 10 fits use compensated summation (``math.fsum``), so a non-zero
deviation always means the model changed, never numeric noise.

A refactor that legitimately changes one of these numbers must update the
frozen constant here *with a paper derivation for the new value* -- that
is the point: fidelity drift is a conscious decision, not an accident.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable


@dataclass(frozen=True)
class Golden:
    """One frozen paper value and the closure that re-derives it.

    Attributes:
        name: Dotted identifier, ``<figure>.<quantity>`` (e.g.
            ``fig6c.cc1_capacity_bytes``).
        expected: The frozen value (paper-derived, or pinned at the
            commit that first reproduced the paper's relationship).
        source: Where the number comes from in the paper.
        compute: Zero-argument callable re-deriving the value from the
            live model code.
    """

    name: str
    expected: float
    source: str
    compute: Callable[[], float]


@dataclass(frozen=True)
class GoldenResult:
    """One golden's evaluation: expected vs recomputed actual."""

    name: str
    expected: float
    actual: float
    source: str

    @property
    def deviation(self) -> float:
        """Relative deviation ``(actual - expected) / expected``.

        Falls back to the absolute difference when the expected value is
        zero, so the field is always finite.
        """
        if self.expected == 0:
            return self.actual - self.expected
        return (self.actual - self.expected) / self.expected


# --- nest builders for the Figure 6 walkthroughs -----------------------------------


def _build_nest(layer, hw, chip_order=None, tile=(32, 32, 64), chip_grid=None):
    """The Figure 6 loop nest: package channel split, chiplet plane split."""
    from repro.core.loopnest import LoopNest
    from repro.core.mapping import Mapping
    from repro.core.partition import PlanarGrid
    from repro.core.primitives import LoopOrder, SpatialPrimitive, TemporalPrimitive

    order = chip_order or LoopOrder.CHANNEL_PRIORITY
    grid = chip_grid or PlanarGrid(1, hw.n_cores)
    mapping = Mapping(
        package_spatial=SpatialPrimitive.channel(hw.n_chiplets)
        if hw.n_chiplets > 1
        else SpatialPrimitive.channel(1),
        package_temporal=TemporalPrimitive(
            LoopOrder.CHANNEL_PRIORITY, tile[0], tile[1], tile[2]
        ),
        chiplet_spatial=SpatialPrimitive.plane(grid)
        if hw.n_cores > 1
        else SpatialPrimitive.channel(1),
        chiplet_temporal=TemporalPrimitive(order, 8, 8, hw.lanes),
    )
    return LoopNest(layer, hw, mapping)


def _common_layer():
    """The 56x56x64 -> 256, 3x3 layer the Figure 6 examples walk."""
    from repro.workloads.layer import ConvLayer

    return ConvLayer(
        "c", h=56, w=56, ci=64, co=256, kh=3, kw=3, stride=1, padding=1
    )


def _two_chiplet_hw():
    from repro.arch.config import KB, MemoryConfig, build_hardware

    return build_hardware(
        2,
        2,
        8,
        8,
        memory=MemoryConfig(
            a_l1_bytes=4 * KB,
            w_l1_bytes=4 * KB,
            o_l1_bytes=1536,
            a_l2_bytes=64 * KB,
        ),
    )


def fig6c_nest():
    """Figure 6(c): channel-priority weight walk (nest C1 -> W1 -> H1)."""
    from repro.core.primitives import LoopOrder

    return _build_nest(
        _common_layer(),
        _two_chiplet_hw(),
        chip_order=LoopOrder.CHANNEL_PRIORITY,
        tile=(56, 56, 128),
    )


def fig6d_nest():
    """Figure 6(d): plane-priority weight walk (nest W1 -> H1 -> C1)."""
    from repro.core.primitives import LoopOrder

    return _build_nest(
        _common_layer(),
        _two_chiplet_hw(),
        chip_order=LoopOrder.PLANE_PRIORITY,
        tile=(56, 56, 128),
    )


def fig6e_nest():
    """Figure 6(e): the 800 B A-L1 case study on the case-study machine."""
    from repro.arch.config import case_study_hardware
    from repro.core.partition import PlanarGrid
    from repro.workloads.layer import ConvLayer

    layer = ConvLayer("v", h=56, w=56, ci=64, co=64, kh=3, kw=3, padding=1)
    return _build_nest(
        layer,
        case_study_hardware(),
        tile=(16, 32, 16),
        chip_grid=PlanarGrid(2, 4),
    )


def fig6f_nest():
    """Figure 6(f): channel-priority A-L1 bad case (16x28 core tile)."""
    from repro.arch.config import case_study_hardware

    return _build_nest(_common_layer(), case_study_hardware(), tile=(16, 28, 128))


def fig6f_window_bytes() -> float:
    """The full-CI input window of the Figure 6(f) nest, in bytes."""
    nest = fig6f_nest()
    return float(
        nest.layer.input_rows_for(nest.core_ho)
        * nest.layer.input_cols_for(nest.core_wo)
        * nest.layer.ci
    )


def al2_nest():
    """The A-L2 union-window example (28x28 tile, 3x3 kernel)."""
    from repro.arch.config import case_study_hardware

    return _build_nest(_common_layer(), case_study_hardware(), tile=(28, 28, 64))


# --- transformer goldens: frozen end-to-end sweep/mapping outcomes -----------------


@lru_cache(maxsize=1)
def bert_block_predesign():
    """The frozen BERT encoder-block pre-design sweep.

    One BERT-base encoder block (seq 128, d_model 768, 12 heads, FFN 3072)
    swept at a 512-MAC budget with the minimal profile and a stride-997
    memory subsample -- small enough for tests, wide enough (50 points
    across every Table II computation split) that the recommended optimum
    is a real cross-granularity decision.  Cached so the golden tests and
    the fidelity block pay the sweep once per process.
    """
    from repro.core.baton import NNBaton
    from repro.core.space import SearchProfile
    from repro.workloads.transformer import encoder_block

    block = encoder_block("enc0", seq=128, d_model=768, heads=12, ffn=3072)
    return NNBaton().pre_design(
        {"bert_block": list(block)},
        required_macs=512,
        memory_stride=997,
        profile=SearchProfile.MINIMAL,
    )


@lru_cache(maxsize=1)
def llm_decode_postdesign():
    """The frozen llm_decode mapping on the paper's 4-8-8-8 machine."""
    from repro.arch.config import build_hardware
    from repro.core.baton import NNBaton
    from repro.core.space import SearchProfile
    from repro.workloads.transformer import llm_decode

    return NNBaton(profile=SearchProfile.MINIMAL).post_design(
        llm_decode(), build_hardware(4, 8, 8, 8)
    )


def _bert_sweep(attr):
    def compute() -> float:
        result = bert_block_predesign()
        point = result.recommended
        if attr == "energy_pj":
            return float(point.energy_pj["bert_block"])
        if attr == "cycles":
            return float(point.cycles["bert_block"])
        return float(point.edp("bert_block"))

    return compute


def _llm_decode(attr):
    def compute() -> float:
        result = llm_decode_postdesign()
        if attr == "energy_pj":
            return float(result.energy.total_pj)
        return float(getattr(result, attr))

    return compute


# --- compute closures --------------------------------------------------------------


def _weight(nest_fn, buffer_bytes, attr, index=None):
    def compute() -> float:
        from repro.core.c3p import analyze_weight_buffer

        analysis = analyze_weight_buffer(nest_fn(), buffer_bytes)
        if index is not None:
            return float(getattr(analysis.critical_points[index], attr))
        return float(getattr(analysis, attr))

    return compute


def _act_l1(nest_fn, buffer_bytes, attr, index=None):
    def compute() -> float:
        from repro.core.c3p import analyze_activation_l1

        analysis = analyze_activation_l1(nest_fn(), buffer_bytes)
        if index is not None:
            return float(getattr(analysis.critical_points[index], attr))
        return float(getattr(analysis, attr))

    return compute


def _al2_a0() -> float:
    from repro.core.c3p import analyze_activation_l2

    return float(analyze_activation_l2(al2_nest(), 10**9).a0_bits)


def _table1_energy(op_name):
    def compute() -> float:
        from repro.arch.technology import TABLE_I

        for row in TABLE_I:
            if row.name == op_name:
                return float(row.energy_pj_per_bit)
        raise KeyError(f"Table I operation {op_name!r} not found")

    return compute


def _table2_total(budget):
    def compute() -> float:
        from repro.core.dse import DesignSpace

        return float(len(DesignSpace().computation_configs(budget)))

    return compute


def _table2_by_chiplets(n_p):
    def compute() -> float:
        from repro.core.dse import DesignSpace

        configs = DesignSpace().computation_configs(2048)
        return float(sum(1 for c in configs if c[0] == n_p))

    return compute


def _fig15_sweep_size() -> float:
    from repro.core.dse import DesignSpace

    return float(DesignSpace().sweep_size(4096))


def _fig10_fit(which, attr):
    def compute() -> float:
        from repro.analysis.experiments import fig10_data

        data = fig10_data()
        fit = data.area_fit if which == "area" else data.energy_fit
        return float(getattr(fit, attr))

    return compute


# --- the registry ------------------------------------------------------------------

KB = 1024

GOLDENS: tuple[Golden, ...] = (
    # Figure 6(c): channel-priority weight walk, example 1.
    Golden(
        "fig6c.cc0_capacity_bytes", 4608.0, "Fig. 6(c), Section IV-B",
        _weight(fig6c_nest, 0, "capacity_bytes", 0),
    ),
    Golden(
        "fig6c.cc1_capacity_bytes", 73728.0, "Fig. 6(c), Section IV-B",
        _weight(fig6c_nest, 0, "capacity_bytes", 1),
    ),
    Golden(
        "fig6c.cc2_capacity_bytes", 73728.0, "Fig. 6(c), Section IV-B",
        _weight(fig6c_nest, 0, "capacity_bytes", 2),
    ),
    Golden(
        "fig6c.cc0_penalty", 1.0, "Fig. 6(c)", _weight(fig6c_nest, 0, "penalty", 0)
    ),
    Golden(
        "fig6c.cc1_penalty", 28.0, "Fig. 6(c): W1 x H1 = 4 x 7 region",
        _weight(fig6c_nest, 0, "penalty", 1),
    ),
    Golden(
        "fig6c.cc2_penalty", 1.0, "Fig. 6(c)", _weight(fig6c_nest, 0, "penalty", 2)
    ),
    Golden(
        "fig6c.a0_bits", 589824.0, "Fig. 6(c): 4608 B x 8 x C1(16)",
        _weight(fig6c_nest, 0, "a0_bits"),
    ),
    Golden(
        "fig6c.fill_bits_at_zero", 16515072.0, "Fig. 6(c): full 28x penalty",
        _weight(fig6c_nest, 0, "fill_bits"),
    ),
    Golden(
        "fig6c.fill_bits_at_4kb", 16515072.0, "Fig. 6(c): 4 KB sits below Cc1",
        _weight(fig6c_nest, 4 * KB, "fill_bits"),
    ),
    Golden(
        "fig6c.fill_bits_at_cc1", 589824.0, "Fig. 6(c): penalty-free at Cc1",
        _weight(fig6c_nest, 73728, "fill_bits"),
    ),
    # Figure 6(d): plane-priority weight walk, example 2.
    Golden(
        "fig6d.cc0_penalty", 28.0, "Fig. 6(d): penalty moves to the block region",
        _weight(fig6d_nest, 0, "penalty", 0),
    ),
    Golden(
        "fig6d.cc1_penalty", 1.0, "Fig. 6(d)", _weight(fig6d_nest, 0, "penalty", 1)
    ),
    Golden(
        "fig6d.cc2_penalty", 1.0, "Fig. 6(d)", _weight(fig6d_nest, 0, "penalty", 2)
    ),
    Golden(
        "fig6d.reload_at_4607", 28.0, "Fig. 6(d): one byte short still pays 28x",
        _weight(fig6d_nest, 4607, "reload_factor"),
    ),
    Golden(
        "fig6d.reload_at_4608", 1.0, "Fig. 6(d): 4608 B suffice",
        _weight(fig6d_nest, 4608, "reload_factor"),
    ),
    Golden(
        "fig6d.fill_bits_at_4608", 589824.0, "Fig. 6(d)",
        _weight(fig6d_nest, 4608, "fill_bits"),
    ),
    # Figure 6(e): the 800 B A-L1 case study.
    Golden(
        "fig6e.cc0_capacity_bytes", 800.0, "Fig. 6(e): 10 x 10 x 8 = 800 B",
        _act_l1(fig6e_nest, 800, "capacity_bytes", 0),
    ),
    Golden(
        "fig6e.cc1_capacity_bytes", 6400.0, "Fig. 6(e)",
        _act_l1(fig6e_nest, 800, "capacity_bytes", 1),
    ),
    Golden(
        "fig6e.cc0_penalty", 9.0, "Fig. 6(e): the 3x3 kernel sweep",
        _act_l1(fig6e_nest, 800, "penalty", 0),
    ),
    Golden(
        "fig6e.cc1_penalty", 2.0, "Fig. 6(e): the C1:2 reuse region",
        _act_l1(fig6e_nest, 800, "penalty", 1),
    ),
    Golden(
        "fig6e.cc2_penalty", 1.0, "Fig. 6(e)",
        _act_l1(fig6e_nest, 800, "penalty", 2),
    ),
    Golden(
        "fig6e.a0_bits", 409600.0, "Fig. 6(e)", _act_l1(fig6e_nest, 800, "a0_bits")
    ),
    Golden(
        "fig6e.fill_bits_at_800", 819200.0, "Fig. 6(e): factor 2 at 800 B",
        _act_l1(fig6e_nest, 800, "fill_bits"),
    ),
    Golden(
        "fig6e.fill_bits_at_799", 7372800.0, "Fig. 6(e): factor 18 at 799 B",
        _act_l1(fig6e_nest, 799, "fill_bits"),
    ),
    # Figure 6(f): channel-priority A-L1 bad case.
    Golden(
        "fig6f.window_bytes", 3840.0, "Fig. 6(f): the full-CI input window",
        fig6f_window_bytes,
    ),
    Golden(
        "fig6f.reload_at_3839", 8.0, "Fig. 6(f): no gain below the window",
        _act_l1(fig6f_nest, 3839, "reload_factor"),
    ),
    Golden(
        "fig6f.reload_at_3840", 1.0, "Fig. 6(f): reload collapses at the window",
        _act_l1(fig6f_nest, 3840, "reload_factor"),
    ),
    # The A-L2 union window.
    Golden(
        "al2.a0_bits", 1843200.0,
        "Section IV-B: (30*30*64) B union window x 4 chiplet workloads",
        _al2_a0,
    ),
    # Table I operation energies (16 nm).
    Golden(
        "table1.dram_pj_per_bit", 8.75, "Table I", _table1_energy("DRAM access")
    ),
    Golden(
        "table1.d2d_pj_per_bit", 1.17, "Table I",
        _table1_energy("Die-to-die communication"),
    ),
    Golden(
        "table1.l2_pj_per_bit", 0.81, "Table I",
        _table1_energy("L2 access (32KB SRAM)"),
    ),
    Golden(
        "table1.l1_pj_per_bit", 0.30, "Table I",
        _table1_energy("L1 access (1KB SRAM)"),
    ),
    Golden(
        "table1.mac_pj_per_bit", 0.024, "Table I", _table1_energy("8bit MAC")
    ),
    # Table II design-space counts.
    Golden(
        "table2.configs_2048", 32.0,
        "Table II / Section VI-B1 (printed option grid)",
        _table2_total(2048),
    ),
    Golden(
        "table2.configs_4096", 20.0, "Table II @ 4096 MACs", _table2_total(4096)
    ),
    Golden(
        "table2.single_chiplet_2048", 3.0,
        "Section VI-B1: 'only three options' for one chiplet",
        _table2_by_chiplets(1),
    ),
    Golden(
        "table2.two_chiplet_2048", 6.0, "Table II breakdown", _table2_by_chiplets(2)
    ),
    Golden(
        "table2.four_chiplet_2048", 10.0, "Table II breakdown", _table2_by_chiplets(4)
    ),
    Golden(
        "table2.eight_chiplet_2048", 13.0, "Table II breakdown", _table2_by_chiplets(8)
    ),
    Golden(
        "fig15.sweep_points_4096", 13920.0,
        "Figure 15 structural sweep size (stride 1)",
        _fig15_sweep_size,
    ),
    # Figure 10 regression fits (frozen at the reproducing commit; the
    # fits are exact given the macro library and fsum-based LinearFit).
    Golden(
        "fig10.area_fit_slope", 0.003969472855289975,
        "Fig. 10: area(KB) linear law",
        _fig10_fit("area", "slope"),
    ),
    Golden(
        "fig10.area_fit_intercept", 0.0032058560311284123,
        "Fig. 10: area(KB) linear law",
        _fig10_fit("area", "intercept"),
    ),
    Golden(
        "fig10.area_fit_r_squared", 0.9999746936046707,
        "Fig. 10: 'approximately linear' (r^2 > 0.99)",
        _fig10_fit("area", "r_squared"),
    ),
    Golden(
        "fig10.energy_fit_slope", 0.016671666158618585,
        "Fig. 10: energy(KB) linear law",
        _fig10_fit("energy", "slope"),
    ),
    Golden(
        "fig10.energy_fit_intercept", 0.2772814924061757,
        "Fig. 10: energy(KB) linear law",
        _fig10_fit("energy", "intercept"),
    ),
    Golden(
        "fig10.energy_fit_r_squared", 0.9998985433300218,
        "Fig. 10: 'approximately linear' (r^2 > 0.99)",
        _fig10_fit("energy", "r_squared"),
    ),
    # Transformer end-to-end outcomes (frozen at the commit that added the
    # native matmul/attention path; not paper figures -- drift gates for
    # the GEMM-through-C3P pipeline and the pre-design sweep on top of it).
    Golden(
        "transformer.bert_sweep_energy_pj", 3056039387.9287744,
        "BERT-base encoder block, 512-MAC pre-design optimum (4-2-16-4)",
        _bert_sweep("energy_pj"),
    ),
    Golden(
        "transformer.bert_sweep_cycles", 1818624.0,
        "BERT-base encoder block, 512-MAC pre-design optimum (4-2-16-4)",
        _bert_sweep("cycles"),
    ),
    Golden(
        "transformer.llm_decode_energy_pj", 23692039001.78168,
        "llm_decode (4096d/32h, 512 KV) mapped on the 4-8-8-8 machine",
        _llm_decode("energy_pj"),
    ),
    Golden(
        "transformer.llm_decode_cycles", 143872.0,
        "llm_decode (4096d/32h, 512 KV) mapped on the 4-8-8-8 machine",
        _llm_decode("cycles"),
    ),
)


def golden(name: str) -> Golden:
    """Look one golden up by name (KeyError when unknown)."""
    for entry in GOLDENS:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown golden {name!r}")


def evaluate_goldens() -> list[GoldenResult]:
    """Recompute every golden; returns results in registry order."""
    return [
        GoldenResult(
            name=entry.name,
            expected=entry.expected,
            actual=entry.compute(),
            source=entry.source,
        )
        for entry in GOLDENS
    ]


def fidelity_block() -> dict:
    """The ``fidelity`` block of a :mod:`repro.obs.bench` record.

    ``{"goldens": {name: {expected, actual, deviation, source}},
    "max_abs_deviation": float, "ok": bool}`` -- ``ok`` means every
    deviation is exactly zero.
    """
    results = evaluate_goldens()
    deviations = [abs(r.deviation) for r in results]
    return {
        "goldens": {
            r.name: {
                "expected": r.expected,
                "actual": r.actual,
                "deviation": r.deviation,
                "source": r.source,
            }
            for r in results
        },
        "max_abs_deviation": max(deviations, default=0.0),
        "ok": not any(deviations),
    }


__all__ = [
    "GOLDENS",
    "Golden",
    "GoldenResult",
    "bert_block_predesign",
    "evaluate_goldens",
    "fidelity_block",
    "golden",
    "llm_decode_postdesign",
]
