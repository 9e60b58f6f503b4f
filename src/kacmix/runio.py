"""Tabular result sinks: RFC-4180 CSV, JSON summaries, and run manifests.

Every writer is deterministic in its inputs.  Floats print with 17
significant digits so that a byte-level diff of two result files is a valid
reproducibility check; CSV rows end in CRLF per RFC 4180.  The manifest is
written before any result file so no result exists without its provenance,
and reruns with the same config and seed produce identical manifests except
for the wall-clock stamp and the timings in the metrics block.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .chaos import ChaosReport, ChaosRow
from .hierarchy import HierarchyConstants
from .picard import GridDensity
from .simulator import RunResult

__all__ = [
    "format_value",
    "write_csv",
    "run_result_header",
    "run_result_rows",
    "write_density_csv",
    "write_hierarchy_constants_csv",
    "write_hierarchy_horizon_csv",
    "write_hierarchy_sweep_csv",
    "write_chaos_csv",
    "chaos_summary",
    "write_json",
    "write_manifest",
]


def format_value(x) -> str:
    """Canonical cell text: floats at 17 significant digits, bools lowercase."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """Write rows with RFC-4180 quoting and CRLF endings; returns the row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([format_value(x) for x in row])
            count += 1
    return count


def run_result_header(include_solver: bool = False) -> List[str]:
    base = ["time", "observable", "mean", "stderr", "N", "replicas", "seed"]
    return base + (["solver"] if include_solver else [])


def run_result_rows(result: RunResult, include_solver: bool = False) -> Iterable[tuple]:
    for t, name, mean, stderr in result.rows():
        row = (t, name, mean, stderr, result.N, result.replicas, result.seed)
        yield row + ((result.solver,) if include_solver else ())


def write_density_csv(path, density: GridDensity) -> int:
    return write_csv(
        path, ["v", "f"], zip(density.grid.tolist(), [float(x) for x in density.values])
    )


def write_hierarchy_constants_csv(path, hc: HierarchyConstants) -> int:
    rows = [(k, hc.R[k], hc.rho[k], hc.C[k]) for k in range(hc.M)]
    return write_csv(path, ["k", "R_k", "rho_k", "C_k"], rows)


def write_hierarchy_horizon_csv(path, hc: HierarchyConstants) -> int:
    row = (hc.M, hc.epsilon, hc.T_star, hc.T_max, hc.T, hc.theta1, hc.theta2)
    return write_csv(
        path, ["M", "epsilon", "T_star", "T_max", "T", "theta1", "theta2"], [row]
    )


def write_hierarchy_sweep_csv(path, rows: Iterable[Tuple[int, int, int, float, float]]) -> int:
    """Coefficient sweep rows (N, s, k, lambda, |lambda - 1|)."""
    return write_csv(path, ["N", "s", "k", "lambda", "abs_gap"], rows)


def write_chaos_csv(path, report: ChaosReport) -> int:
    """One row per comparison cell; the header is `ChaosRow`'s field names."""
    header = [f.name for f in fields(ChaosRow)]
    return write_csv(path, header, (astuple(r) for r in report.rows))


def chaos_summary(report: ChaosReport) -> dict:
    """JSON-ready digest: pass fraction, reference kinds, the worst cell, and the slope fits."""
    worst = report.worst_row
    return {
        "pass_fraction": report.pass_fraction,
        "n_rows": len(report.rows),
        "n_ref": report.n_ref,
        "ref_replicas": report.ref_replicas,
        "references": report.references,
        "seed": report.seed,
        "worst_row": None
        if worst is None
        else {
            "N": worst.N,
            "s": worst.s,
            "t": worst.t,
            "observable": worst.observable,
            "delta": worst.delta,
            "kac_stderr": worst.kac_stderr,
            "mf_stderr": worst.mf_stderr,
            "pass_3sigma": worst.pass_3sigma,
        },
        "slope_fits": [
            {
                "s": f.s,
                "t": f.t,
                "observable": f.observable,
                "slope": None if f.slope != f.slope else f.slope,
                "slope_stderr": None if f.slope_stderr != f.slope_stderr else f.slope_stderr,
                "n_points": f.n_points,
            }
            for f in report.slopes
        ],
    }


def write_json(path, payload: dict) -> None:
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(
    path,
    command: str,
    version: str,
    seed: int,
    config: dict,
    row_counts: Dict[str, int],
    now: Optional[str] = None,
    metrics: Optional[dict] = None,
) -> dict:
    """Write and return the provenance record; `metrics` gains the numpy version."""
    manifest = {
        "command": command,
        "version": version,
        "seed": seed,
        "config": config,
        "row_counts": dict(row_counts),
        "wall_clock_utc": datetime.now(timezone.utc).isoformat() if now is None else now,
        "metrics": {"numpy": np.__version__, **(metrics or {})},
    }
    write_json(Path(path), manifest)
    return manifest
