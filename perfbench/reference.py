"""Reference answers: canonical encodings, digests and the lattice layout.

Answers are compared exactly.  A map's answer is the winning mapping of
every layer plus the model's total energy and cycles; a design point's
answer is its chiplet area plus per-model energy and cycles.  Mappings and
design points are stored as short SHA-256 digests of their canonical JSON,
so a reference covers every input any seed can generate without storing
every value.  Model totals and recommendations are stored readable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Any

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Hex digits kept from each SHA-256 digest (40 bits: a wrong answer
#: matching by chance is a one-in-10^12 event per compared item).
DIGEST_HEX = 10


def digest(obj: Any) -> str:
    """Short digest of ``obj``'s canonical JSON (floats round-trip exactly)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def load(workload: str) -> dict:
    """The stored reference of one workload."""
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def save(workload: str, payload: dict) -> Path:
    """Write one workload's reference (stable key order, one line per key)."""
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    lines = [
        f"  {json.dumps(key)}: {json.dumps(payload[key], sort_keys=True, separators=(',', ':'))}"
        for key in sorted(payload)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return path


# --- maps ------------------------------------------------------------------------


def map_answer(layers: list, results: list, hw) -> dict:
    """Canonical answer of one full-model map.

    ``results`` may come back in any layer order (the workloads shuffle
    it); the answer is keyed by layer name and the totals are summed in
    the model's own layer order, so it does not depend on the shuffle.
    """
    from repro.core.cost import model_cost
    from repro.core.serialize import mapping_to_dict

    by_name = {result.layer.name: result for result in results}
    ordered = [by_name[layer.name] for layer in layers]
    energy, cycles, _ = model_cost([result.best for result in ordered], hw)
    return {
        "layers": {r.layer.name: digest(mapping_to_dict(r.mapping)) for r in ordered},
        "energy_pj": energy.total_pj,
        "cycles": cycles,
    }


def map_mismatches(answer: dict, expected: dict) -> list[str]:
    """Human-readable differences between a map answer and its reference."""
    problems = []
    for key in ("energy_pj", "cycles"):
        if answer[key] != expected[key]:
            problems.append(f"{key} {answer[key]!r} != {expected[key]!r}")
    for name, want in expected["layers"].items():
        got = answer["layers"].get(name)
        if got != want:
            problems.append(f"layer {name}: mapping {got} != {want}")
    extra = sorted(set(answer["layers"]) - set(expected["layers"]))
    if extra:
        problems.append(f"unexpected layers {extra}")
    return problems


# --- design points -----------------------------------------------------------------


def point_key(hw) -> str:
    """The (computation, memory) coordinates of one design point."""
    m = hw.memory
    return (
        f"{hw.n_chiplets}-{hw.n_cores}-{hw.lanes}-{hw.vector_size}"
        f"|a1:{m.a_l1_bytes}|w1:{m.w_l1_bytes}|o1:{m.o_l1_bytes}|a2:{m.a_l2_bytes}"
    )


def point_status(point) -> str:
    """``valid``, ``pruned`` (by the guided search's EDP bound) or ``invalid``."""
    if point.valid:
        return "valid"
    return "pruned" if point.errors and point.errors[0].startswith("pruned:") else "invalid"


def point_answer(point) -> dict:
    """Canonical answer of one evaluated design point."""
    return {
        "area": point.chiplet_area_mm2,
        "energy_pj": dict(point.energy_pj),
        "cycles": dict(point.cycles),
    }


def lattice_keys(comps: list, options: dict) -> list[str]:
    """Every design point of the Table II lattice, in a fixed order.

    ``comps`` lists the (chiplets, cores, lanes, vector) tuples and
    ``options`` the per-dimension memory options in KB (O-L1 in bytes per
    lane).  Points whose A-L2 is smaller than their A-L1 are not part of
    the lattice (Table II's hierarchy rule).
    """
    keys = []
    for n_p, n_c, lane, vec in comps:
        for o_l1, a_l1, w_l1, a_l2 in itertools.product(
            options["o_l1_per_lane_bytes"],
            options["a_l1_kb"],
            options["w_l1_kb"],
            options["a_l2_kb"],
        ):
            if a_l2 < a_l1:
                continue
            keys.append(
                f"{n_p}-{n_c}-{lane}-{vec}|a1:{int(a_l1 * 1024)}"
                f"|w1:{int(w_l1 * 1024)}|o1:{o_l1 * lane}|a2:{int(a_l2 * 1024)}"
            )
    return keys


class PointTable:
    """Reference answers of every lattice point of one sweep setting.

    ``points`` holds one entry per lattice key: the digest of a valid
    point's answer, or ``""`` for a point that is structurally invalid.
    """

    def __init__(self, reference: dict) -> None:
        self.comps = [tuple(c) for c in reference["comps"]]
        self.options = reference["options"]
        keys = lattice_keys(self.comps, self.options)
        if len(keys) != len(reference["points"]):
            raise ValueError(
                f"reference lattice has {len(reference['points'])} entries, "
                f"expected {len(keys)}"
            )
        self.expected = dict(zip(keys, reference["points"]))

    def valid(self, key: str) -> bool:
        return bool(self.expected[key])

    def mismatch(self, point) -> str | None:
        """Why ``point`` differs from its reference, or ``None``."""
        key = point_key(point.hw)
        if key not in self.expected:
            return f"{key}: not a lattice point"
        want = self.expected[key]
        if not point.valid:
            return f"{key}: invalid ({'; '.join(point.errors)}), reference valid" if want else None
        if not want:
            return f"{key}: valid, reference invalid"
        got = digest(point_answer(point))
        return None if got == want else f"{key}: answer {got} != {want}"
