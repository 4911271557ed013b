"""Reference outputs recorded from the program, and the comparison that
every benchmark run makes against them (outside the timed region).

Tolerances are fixed here, not read from the program, so that a change to
the program cannot loosen its own check: 1e-12 on metric values and walk
distances, and bounds.REL_SLACK (1e-9 when the reference was recorded) on the
edges' transformed right-hand sides. Edge statuses must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

VALUE_TOL = 1e-12
EDGE_TOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def close(got: float | None, ref: float | None, tol: float) -> bool:
    """Equal, or both finite and within tol relative to max(1, |ref|)."""
    if got == ref:
        return True
    if got is None or ref is None or not (math.isfinite(got) and math.isfinite(ref)):
        return False
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def encode_report(report, catalog: list[list[str]]) -> dict:
    """Compact form of a certification report.

    `catalog` lists [edge_id, lhs, rhs] in report order. Per-edge lhs and rhs
    are stored once per metric name, which is lossless because every edge of
    a report reads the same metric values; an edge list in another order, or
    two edges disagreeing on a value, is an error.
    """
    ids = [r.edge_id for r in report.results]
    if ids != [e[0] for e in catalog]:
        raise ValueError(f"{report.instance_id}: edge list differs from the reference")
    status, values, h = [], {}, []
    for r, (edge_id, lhs, rhs) in zip(report.results, catalog):
        status.append(r.status[0])
        if r.status == "skip":
            continue
        for key, v in ((lhs, r.lhs), (rhs, r.rhs)):
            if key in values and values[key] != v:
                raise ValueError(f"{report.instance_id}: {edge_id} reads {key}={v!r}, "
                                 f"another edge read {values[key]!r}")
            values[key] = v
        h.append(r.h_rhs)
    return {"id": report.instance_id, "status": "".join(status),
            "values": values, "h": h}


def compare_report(got: dict, ref: dict) -> list[str]:
    where = ref["id"]
    if got["id"] != ref["id"]:
        return [f"{where}: instance id {got['id']!r}"]
    out = []
    if got["status"] != ref["status"]:
        out.append(f"{where}: edge statuses {got['status']} != {ref['status']}")
    out += compare_values(got["values"], ref["values"], VALUE_TOL, where)
    if len(got["h"]) != len(ref["h"]):
        out.append(f"{where}: {len(got['h'])} evaluated edges != {len(ref['h'])}")
    else:
        out += [f"{where}: edge {i} h(rhs) {g!r} != {r!r}"
                for i, (g, r) in enumerate(zip(got["h"], ref["h"]))
                if not close(g, r, EDGE_TOL)]
    return out


def compare_values(got: dict, ref: dict, tol: float = VALUE_TOL,
                   where: str = "") -> list[str]:
    if set(got) != set(ref):
        return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
    return [f"{where}: {k} {got[k]!r} != {ref[k]!r}"
            for k in sorted(ref) if not close(got[k], ref[k], tol)]


def compare_output(got, ref, where: str = "") -> list[str]:
    """Mismatches between an encoded output and its reference: a report, a
    list of reports, a dict of named values, or a dict of named outputs."""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected {len(ref)} reports"]
        return [m for g, r in zip(got, ref) for m in compare_report(g, r)]
    if "status" in ref:
        return compare_report(got, ref)
    if all(isinstance(v, dict) for v in ref.values()):
        if set(got) != set(ref):
            return [f"{where}: outputs {sorted(got)} != {sorted(ref)}"]
        return [m for k in sorted(ref) for m in compare_output(got[k], ref[k], k)]
    return compare_values(got, ref, VALUE_TOL, where)
