"""Run perf cells and collect determinism + wall-clock metrics.

Separation of concerns: :mod:`repro.perf.matrix` defines *what* runs,
this module runs it and measures, :mod:`repro.perf.trajectory` turns the
measurements into ``BENCH_*.json`` documents and printable tables.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, Iterable, List

from repro.errors import VerificationError
from repro.harness.scenario import run_scenario
from repro.perf.matrix import PerfCell

__all__ = ["CellResult", "run_cell", "run_matrix", "compare_determinism"]


class CellResult:
    """Metrics of one cell run: the deterministic and the worldly."""

    def __init__(self, cell: PerfCell, determinism: Dict[str, int],
                 wall: Dict[str, float]):
        self.cell = cell
        self.determinism = determinism
        self.wall = wall

    def to_plain(self) -> Dict[str, Any]:
        return {"cell": self.cell.params(),
                "determinism": dict(self.determinism),
                "wall": dict(self.wall)}


def _peak_rss_kb() -> int:
    """Peak resident set of this process so far, in KiB.

    ``ru_maxrss`` is a high-water mark: it never decreases across cells,
    so per-cell values are upper bounds — comparable across PRs only for
    the first cell of a run (the smoke cell), which is why drift checks
    ignore wall metrics entirely.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_cell(cell: PerfCell) -> CellResult:
    """Run one cell and measure it.

    Raises :class:`~repro.errors.VerificationError` if the run fails the
    Atomic Broadcast properties — the trajectory never records numbers
    from an incorrect execution.
    """
    start = time.perf_counter()
    result = run_scenario(cell.scenario())
    wall_seconds = time.perf_counter() - start
    if result.report is None:  # pragma: no cover - verify is always on
        raise VerificationError(f"cell {cell.name} ran unverified")
    metrics = result.metrics
    sim = result.cluster.sim
    determinism = {
        "events_processed": sim.events_processed,
        "log_ops": metrics.total_log_ops(),
        "bytes_logged": metrics.total_bytes_logged(),
        "messages_broadcast": metrics.messages_broadcast,
        "messages_delivered": metrics.messages_delivered,
    }
    if cell.flow is not None:
        # Flow keys exist only on throttled cells, so the 16 legacy
        # cells' determinism dicts stay byte-identical to old baselines.
        cluster = result.cluster
        determinism["flow_accepted"] = sum(
            controller.accepted for controller in cluster.flows.values())
        determinism["flow_rejected"] = sum(
            controller.rejected for controller in cluster.flows.values())
        determinism["unordered_high_water"] = max(
            getattr(abcast, "unordered_high_water", 0)
            for abcast in cluster.abcasts.values())
    wall = {
        "wall_seconds": round(wall_seconds, 4),
        "deliveries_per_sec": round(
            metrics.messages_delivered / wall_seconds, 1),
        "events_per_sec": round(sim.events_processed / wall_seconds, 1),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return CellResult(cell, determinism, wall)


def run_matrix(cells: Iterable[PerfCell]) -> List[CellResult]:
    """Run every cell, in matrix order."""
    return [run_cell(cell) for cell in cells]


def compare_determinism(baseline: Dict[str, Dict[str, int]],
                        results: Iterable[CellResult]) -> List[str]:
    """Diff fresh results against a baseline's determinism metrics.

    ``baseline`` maps cell name -> determinism dict (the shape stored in
    a BENCH document's ``matrix`` section).  Returns human-readable
    drift descriptions; empty means bit-identical.  Cells missing from
    the baseline are reported too — a silently shrinking matrix must not
    pass as "no drift".
    """
    drifts: List[str] = []
    for result in results:
        name = result.cell.name
        expected = baseline.get(name)
        if expected is None:
            drifts.append(f"{name}: not present in baseline")
            continue
        for key, actual in result.determinism.items():
            want = expected.get(key)
            if want != actual:
                drifts.append(
                    f"{name}: {key} = {actual}, baseline has {want}")
    return drifts
