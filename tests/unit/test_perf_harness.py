"""Unit tests for the perf-trajectory harness (repro.perf)."""

from __future__ import annotations

import json

from repro.harness.scenario import run_scenario
from repro.perf.harness import compare_determinism, run_cell
from repro.perf.matrix import (PerfCell, default_matrix, overload_cell,
                               smallest_cell)
from repro.perf.trajectory import (baseline_determinism, build_document,
                                   format_matrix_table,
                                   format_trajectory_table, load_documents,
                                   summarize_drift, write_document)
from tests.unit.test_storage import DeepcopyStorage


class TestMatrix:
    def test_matrix_shape_and_names_are_frozen(self):
        cells = default_matrix()
        assert len(cells) == 16
        names = [cell.name for cell in cells]
        assert len(set(names)) == 16
        assert names[0] == "basic-n3-l00-quiet"
        assert "alternative-n5-l20-chaos" in names
        # Seeds are distinct per cell: cells must be independent draws.
        assert len({cell.seed for cell in cells}) == 16

    def test_smallest_cell_is_cheapest_axis_corner(self):
        cell = smallest_cell()
        assert (cell.protocol, cell.n, cell.loss_rate, cell.chaos) == \
            ("basic", 3, 0.0, False)


class TestOverloadCell:
    def test_overload_cell_is_additive_not_an_edit(self):
        # The 16 legacy cells are frozen: the overload cell must be a
        # new name with flow set, and no legacy cell may carry flow.
        cell = overload_cell()
        assert cell.flow is not None
        assert cell.name == "basic-n3-l00-overload"
        legacy = default_matrix()
        assert cell.name not in {c.name for c in legacy}
        assert all(c.flow is None for c in legacy)
        assert all("flow" not in c.params() for c in legacy)
        assert cell.params()["flow"] == {"rate": 6.0, "burst": 6,
                                         "max_unordered": 24}

    def test_overload_cell_runs_deterministically_with_flow_metrics(self):
        cell = overload_cell()
        first = run_cell(cell)
        second = run_cell(cell)
        assert first.determinism == second.determinism
        # The offered load exceeds the bucket: rejections must appear,
        # and the flow keys must exist only on this cell.
        assert first.determinism["flow_rejected"] > 0
        assert first.determinism["flow_accepted"] > 0
        assert first.determinism["messages_delivered"] == \
            first.determinism["flow_accepted"]
        legacy = run_cell(smallest_cell())
        assert "flow_accepted" not in legacy.determinism
        assert "flow_rejected" not in legacy.determinism
        assert "unordered_high_water" not in legacy.determinism


class TestDeterminism:
    def test_smallest_cell_bit_identical_across_runs(self):
        cell = smallest_cell()
        first = run_cell(cell)
        second = run_cell(cell)
        assert first.determinism == second.determinism
        assert first.determinism["messages_delivered"] > 0
        assert first.determinism["log_ops"] > 0
        assert compare_determinism(
            {cell.name: first.determinism}, [second]) == []

    def test_isolation_mode_does_not_change_determinism(self):
        # Snapshot isolation swaps copies, not behaviour: a run on the
        # deepcopy reference storage is the same run.
        cell = smallest_cell()
        snapshot = run_cell(cell)
        scenario = cell.scenario()
        scenario.cluster.storage_factory = lambda node_id: DeepcopyStorage()
        deepcopy = run_scenario(scenario)
        metrics = deepcopy.metrics
        assert snapshot.determinism == {
            "events_processed": deepcopy.cluster.sim.events_processed,
            "log_ops": metrics.total_log_ops(),
            "bytes_logged": metrics.total_bytes_logged(),
            "messages_broadcast": metrics.messages_broadcast,
            "messages_delivered": metrics.messages_delivered,
        }

    def test_compare_reports_drift_and_missing_cells(self):
        cell = smallest_cell()
        result = run_cell(cell)
        tampered = dict(result.determinism)
        tampered["log_ops"] += 1
        drifts = compare_determinism({cell.name: tampered}, [result])
        assert len(drifts) == 1 and "log_ops" in drifts[0]
        ok, verdict = summarize_drift(drifts)
        assert not ok and "DRIFT" in verdict
        assert summarize_drift([]) == (
            True, "determinism check: OK (bit-identical to baseline)")
        assert compare_determinism({}, [result]) == \
            [f"{cell.name}: not present in baseline"]


class TestDocuments:
    def test_build_write_load_roundtrip(self, tmp_path, monkeypatch):
        result = run_cell(smallest_cell())
        document = build_document("PRX", [result])
        assert document["schema"] == 1
        path = tmp_path / "BENCH_PRX.json"
        write_document(document, str(path))
        monkeypatch.chdir(tmp_path)
        loaded = load_documents()
        assert len(loaded) == 1
        assert baseline_determinism(loaded[0]) == \
            {result.cell.name: result.determinism}
        # Stable serialisation: a rewrite is byte-identical.
        text = path.read_text()
        write_document(json.loads(text), str(path))
        assert path.read_text() == text

    def test_tables_render(self):
        result = run_cell(smallest_cell())
        table = format_matrix_table([result])
        assert result.cell.name in table
        document = build_document("PRX", [result])
        trajectory = format_trajectory_table([document], result.cell.name)
        assert "PRX" in trajectory


class TestFrozenCells:
    def test_cell_params_cover_the_scenario_inputs(self):
        cell = PerfCell("basic", 3, 0.1, chaos=True, seed=7)
        params = cell.params()
        assert params["loss_rate"] == 0.1 and params["chaos"] is True
        scenario = cell.scenario()
        assert scenario.cluster.n == 3
        assert scenario.cluster.network.loss_rate == 0.1
        assert scenario.faults is not None
        quiet = PerfCell("basic", 3, 0.1, chaos=False, seed=7).scenario()
        assert quiet.faults is None
