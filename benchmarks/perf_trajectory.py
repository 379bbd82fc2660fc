#!/usr/bin/env python
"""Perf-trajectory harness driver (docs/PERFORMANCE.md).

Runs the frozen scenario matrix of :mod:`repro.perf.matrix` and records
one ``BENCH_<label>.json`` trajectory point at the repo root.

    # full matrix, run twice (determinism metrics must be bit-identical);
    # writes BENCH_<LABEL>.json
    PYTHONPATH=src python benchmarks/perf_trajectory.py --label LABEL

    # CI drift gate: smallest cell only, checked against the committed
    # baseline; exits 1 on any determinism-metric drift
    PYTHONPATH=src python benchmarks/perf_trajectory.py \\
        --smoke --check BENCH_PR5.json --output perf-smoke.json

    # print one cell's evolution across every committed BENCH_*.json
    PYTHONPATH=src python benchmarks/perf_trajectory.py \\
        --trajectory basic-n3-l00-quiet
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.harness import compare_determinism, run_matrix
from repro.perf.matrix import (default_matrix, overload_cell, scaled_cells,
                               smallest_cell)
from repro.perf.trajectory import (baseline_determinism, build_document,
                                   format_matrix_table,
                                   format_trajectory_table,
                                   load_documents, summarize_drift,
                                   write_document)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="perf-trajectory harness (see docs/PERFORMANCE.md)")
    parser.add_argument("--label", default=None,
                        help="trajectory point label; writes "
                             "BENCH_<label>.json unless --output is given")
    parser.add_argument("--output", default=None,
                        help="explicit output path for the BENCH document")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the smallest matrix cell")
    parser.add_argument("--cells", nargs="*", default=None,
                        help="run only the named cells")
    parser.add_argument("--repeat", type=int, default=2,
                        help="matrix repetitions for the determinism "
                             "self-check (default 2)")
    parser.add_argument("--check", default=None,
                        help="BENCH file to diff determinism metrics "
                             "against; exit 1 on drift")
    parser.add_argument("--overload", action="store_true",
                        help="append the admission-control cell to the "
                             "run (its flow_* metrics exist only there; "
                             "the 16 legacy cells are unaffected)")
    parser.add_argument("--scaled", action="store_true",
                        help="append the scale-stress cells (25 nodes, "
                             "10x rate) to the run")
    parser.add_argument("--trajectory", default=None, metavar="CELL",
                        help="print CELL's metrics across all committed "
                             "BENCH_*.json files and exit")
    args = parser.parse_args(argv)

    if args.trajectory is not None:
        print(format_trajectory_table(load_documents(), args.trajectory))
        return 0

    if args.smoke:
        cells = [smallest_cell()]
    else:
        cells = default_matrix()
        if args.cells:
            # --cells selects from the whole cell universe, so the CI
            # drift gate can name the overload and scale-stress cells
            # without pulling in the full matrix.
            known = default_matrix() + [overload_cell()] + scaled_cells()
            wanted = set(args.cells)
            cells = [cell for cell in known if cell.name in wanted]
            missing = wanted - {cell.name for cell in cells}
            if missing:
                parser.error(f"unknown cells: {sorted(missing)} "
                             f"(known: {[c.name for c in known]})")
    if args.overload:
        cells = cells + [overload_cell()]
    if args.scaled:
        cells = cells + [cell for cell in scaled_cells()
                         if cell.name not in {c.name for c in cells}]

    print(f"running {len(cells)} cell(s), {args.repeat} repetition(s)...")
    results = run_matrix(cells)
    for repetition in range(1, args.repeat):
        rerun = run_matrix(cells)
        drifts = compare_determinism(
            {r.cell.name: r.determinism for r in results}, rerun)
        if drifts:
            print(f"run {repetition + 1} disagrees with run 1 on "
                  f"determinism metrics:")
            for drift in drifts:
                print(f"  - {drift}")
            return 1
    if args.repeat > 1:
        print(f"determinism self-check: {args.repeat} consecutive runs "
              f"bit-identical")
    print(format_matrix_table(results))

    exit_code = 0
    if args.check is not None:
        import json
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        ok, verdict = summarize_drift(compare_determinism(
            baseline_determinism(baseline), results))
        print(verdict)
        if not ok:
            exit_code = 1

    output = args.output
    if output is None and args.label is not None:
        output = f"BENCH_{args.label}.json"
    if output is not None:
        label = args.label or "unlabelled"
        write_document(build_document(label, results), output)
        print(f"wrote {output}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
