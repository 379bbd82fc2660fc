"""BENCH documents: the machine-readable perf trajectory.

One ``BENCH_<label>.json`` per PR at the repo root, produced by
``benchmarks/perf_trajectory.py``.  The document separates what must
never drift (``determinism``) from what merely should not regress
(``wall``); :func:`load_documents` collects every committed point so the
trajectory can be printed as one table.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import time
from typing import Any, Dict, Iterable, List, Tuple

from repro.harness.report import format_table
from repro.perf.harness import CellResult

__all__ = ["build_document", "write_document", "load_documents",
           "baseline_determinism", "format_matrix_table",
           "format_trajectory_table",
           "summarize_drift"]

SCHEMA = 1


def build_document(label: str, results: Iterable[CellResult]
                   ) -> Dict[str, Any]:
    """Assemble one trajectory point."""
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "label": label,
        # Informational only; drift checks never read these.
        "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
        "python": platform.python_version(),
        "matrix": {result.cell.name: result.to_plain()
                   for result in results},
    }
    return document


def write_document(document: Dict[str, Any], path: str) -> None:
    """Write a BENCH document (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_documents(root: str = ".") -> List[Dict[str, Any]]:
    """Every ``BENCH_*.json`` under ``root``, sorted by label."""
    documents = []
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    documents.sort(key=lambda doc: doc.get("label", ""))
    return documents


def baseline_determinism(document: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    """Cell name -> determinism dict, as :func:`compare_determinism` wants."""
    return {name: entry["determinism"]
            for name, entry in document.get("matrix", {}).items()}


def format_matrix_table(results: Iterable[CellResult]) -> str:
    rows = []
    for result in results:
        det, wall = result.determinism, result.wall
        rows.append([
            result.cell.name,
            det["events_processed"], det["log_ops"], det["bytes_logged"],
            f"{det['messages_delivered']}/{det['messages_broadcast']}",
            wall["wall_seconds"], wall["deliveries_per_sec"],
            wall["events_per_sec"], wall["peak_rss_kb"],
        ])
    return format_table(
        "Perf matrix (deterministic | wall-clock)",
        ["cell", "events", "log ops", "bytes", "delivered",
         "wall s", "deliv/s", "events/s", "rss KiB"],
        rows,
        note="events/log ops/bytes/delivered are seed-deterministic and "
             "must be bit-identical across runs; the rest is hardware")


def format_trajectory_table(documents: List[Dict[str, Any]],
                            cell_name: str) -> str:
    """One cell's metrics across every committed BENCH point."""
    rows = []
    for document in documents:
        entry = document.get("matrix", {}).get(cell_name)
        if entry is None:
            continue
        det, wall = entry["determinism"], entry["wall"]
        rows.append([
            document.get("label", "?"), document.get("recorded_at", "?"),
            det["events_processed"], det["log_ops"], det["bytes_logged"],
            wall["deliveries_per_sec"], wall["events_per_sec"],
        ])
    return format_table(
        f"Trajectory of cell {cell_name}",
        ["point", "date", "events", "log ops", "bytes",
         "deliv/s", "events/s"],
        rows,
        note="determinism columns may only change when a PR deliberately "
             "changes protocol behaviour (and says so)")


def summarize_drift(drifts: List[str]) -> Tuple[bool, str]:
    """(ok, printable verdict) for a drift-check result."""
    if not drifts:
        return True, "determinism check: OK (bit-identical to baseline)"
    lines = ["determinism check: DRIFT DETECTED"]
    lines.extend(f"  - {drift}" for drift in drifts)
    return False, "\n".join(lines)
