"""Performance-trajectory harness (docs/PERFORMANCE.md).

The ROADMAP's "as fast as the hardware allows" axis needs evidence, not
vibes: this package runs a fixed scenario matrix under two kinds of
metrics —

* **determinism metrics** (events processed, log operations, bytes
  logged, messages delivered): pure functions of the seeds, required to
  be bit-identical across runs and therefore comparable across PRs and
  machines;
* **wall-clock metrics** (deliveries/sec, sim events/sec, peak RSS):
  machine-dependent, tracked run over run so a hot-path regression shows
  up as a trajectory kink rather than an anecdote.

Every PR that touches a hot path appends a ``BENCH_<label>.json`` at the
repo root via ``benchmarks/perf_trajectory.py``; CI's ``perf-smoke`` job
re-runs the smallest cell and fails on determinism drift against the
committed baseline.
"""

from repro.perf.harness import (CellResult, compare_determinism, run_cell,
                                run_matrix)
from repro.perf.matrix import PerfCell, default_matrix, smallest_cell
from repro.perf.trajectory import (build_document, format_matrix_table,
                                   format_trajectory_table, load_documents,
                                   write_document)

__all__ = [
    "CellResult",
    "PerfCell",
    "build_document",
    "compare_determinism",
    "default_matrix",
    "format_matrix_table",
    "format_trajectory_table",
    "load_documents",
    "run_cell",
    "run_matrix",
    "smallest_cell",
    "write_document",
]
