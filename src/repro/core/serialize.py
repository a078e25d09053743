"""Mapping serialization: the hardware-compiler-facing report.

The paper: "The reported information can be potentially used for the
optimization of the hardware compiler" (Section IV-D).  This module turns
mappings and post-design results into plain JSON-serializable dictionaries
and back, so a downstream toolchain can consume NN-Baton's output without
importing its internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.arch.config import HardwareConfig
from repro.core.loopnest import LoopNest
from repro.core.mapping import Mapping
from repro.core.partition import PlanarGrid
from repro.core.primitives import (
    LoopOrder,
    PartitionDim,
    RotationKind,
    SpatialPrimitive,
    TemporalPrimitive,
)
from repro.workloads.layer import ConvLayer


def spatial_to_dict(spatial: SpatialPrimitive) -> dict[str, Any]:
    """Serialize a spatial primitive."""
    return {
        "dim": spatial.dim.value,
        "co_ways": spatial.co_ways,
        "grid_rows": spatial.grid.rows,
        "grid_cols": spatial.grid.cols,
    }


def spatial_from_dict(data: dict[str, Any]) -> SpatialPrimitive:
    """Deserialize a spatial primitive."""
    return SpatialPrimitive(
        dim=PartitionDim(data["dim"]),
        co_ways=data["co_ways"],
        grid=PlanarGrid(data["grid_rows"], data["grid_cols"]),
    )


def temporal_to_dict(temporal: TemporalPrimitive) -> dict[str, Any]:
    """Serialize a temporal primitive."""
    return {
        "order": temporal.order.value,
        "tile_h": temporal.tile_h,
        "tile_w": temporal.tile_w,
        "tile_co": temporal.tile_co,
    }


def temporal_from_dict(data: dict[str, Any]) -> TemporalPrimitive:
    """Deserialize a temporal primitive."""
    return TemporalPrimitive(
        order=LoopOrder(data["order"]),
        tile_h=data["tile_h"],
        tile_w=data["tile_w"],
        tile_co=data["tile_co"],
    )


def mapping_to_dict(mapping: Mapping) -> dict[str, Any]:
    """Serialize a complete mapping."""
    return {
        "package_spatial": spatial_to_dict(mapping.package_spatial),
        "package_temporal": temporal_to_dict(mapping.package_temporal),
        "chiplet_spatial": spatial_to_dict(mapping.chiplet_spatial),
        "chiplet_temporal": temporal_to_dict(mapping.chiplet_temporal),
        "rotation": mapping.rotation.value,
    }


def mapping_from_dict(data: dict[str, Any]) -> Mapping:
    """Deserialize a complete mapping (round-trips :func:`mapping_to_dict`)."""
    return Mapping(
        package_spatial=spatial_from_dict(data["package_spatial"]),
        package_temporal=temporal_from_dict(data["package_temporal"]),
        chiplet_spatial=spatial_from_dict(data["chiplet_spatial"]),
        chiplet_temporal=temporal_from_dict(data["chiplet_temporal"]),
        rotation=RotationKind(data["rotation"]),
    )


def hardware_to_dict(hw: HardwareConfig) -> dict[str, Any]:
    """Serialize everything about a machine that affects search results.

    The ``name`` label is deliberately excluded: two machines that differ
    only in their human-readable name evaluate every mapping identically,
    so they must share cache entries (:mod:`repro.core.cache`).
    """
    return {
        "config": list(hw.config_tuple()),
        "topology": hw.topology.value,
        "memory": _flat_fields(hw.memory),
        "tech": _flat_fields(hw.tech),
    }


def _flat_fields(obj: Any) -> dict[str, Any]:
    """A flat dataclass's fields by name: ``dataclasses.asdict`` without
    its recursive copy, which the memory and technology records (plain
    numbers) do not need."""
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def hardware_digest(hw: HardwareConfig) -> str:
    """A stable hex digest of a machine's search-relevant state.

    Used as the hardware component of mapping-cache keys: any change to the
    structural hierarchy, buffer capacities or technology point yields a new
    digest and therefore invalidates previously cached mappings.
    """
    canonical = json.dumps(hardware_to_dict(hw), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def layer_to_dict(layer: ConvLayer) -> dict[str, Any]:
    """Serialize a layer's shape."""
    return {
        "name": layer.name,
        "h": layer.h,
        "w": layer.w,
        "ci": layer.ci,
        "co": layer.co,
        "kh": layer.kh,
        "kw": layer.kw,
        "stride": layer.stride,
        "padding": layer.padding,
        "groups": layer.groups,
    }


def layer_from_dict(data: dict[str, Any]) -> ConvLayer:
    """Deserialize a layer."""
    return ConvLayer(**data)


def compiler_report(
    layer: ConvLayer, hw: HardwareConfig, mapping: Mapping
) -> dict[str, Any]:
    """The full per-layer deployment record a hardware compiler consumes.

    Includes the spatial/temporal primitives, the resolved loop counts and
    tile extents, and the sharing-mode configuration ("the organization of
    W-L1 buffers, the central bus mode for data sharing, and the transfer
    path for die-to-die sharing are then reconfigured", Section IV-A).
    """
    nest = LoopNest(layer=layer, hw=hw, mapping=mapping)
    return {
        "layer": layer_to_dict(layer),
        "mapping": mapping_to_dict(mapping),
        "loop_nest": {
            "core_tile": [nest.core_ho, nest.core_wo, nest.core_co],
            "chiplet_tile": [nest.tile_ho, nest.tile_wo, nest.tile_co],
            "loops_inner_to_outer": [
                {"kind": loop.kind, "level": loop.level, "count": loop.count}
                for loop in nest.loops()
            ],
        },
        "sharing": {
            "w_l1_pool_group_size": mapping.chiplet_spatial.grid.ways,
            "bus_multicast_groups": mapping.chiplet_spatial.co_ways,
            "ring_rotation": mapping.rotation.value,
        },
    }
