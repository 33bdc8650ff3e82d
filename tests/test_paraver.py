"""Tests of the visualization/analysis stage."""

import io

import pytest

from repro.core.transform import overlap_transform
from repro.dimemas.replay import simulate
from repro.paraver import (
    compare,
    comm_stats,
    iteration_bounds,
    profile_table,
    render_comparison,
    render_gantt,
    render_heatmap,
    render_svg,
    sample_states,
    state_matrix,
)
from repro.trace import prv


@pytest.fixture
def result(pipeline_trace, machine):
    return simulate(pipeline_trace, machine)


@pytest.fixture
def overlapped_result(pipeline_trace, machine):
    return simulate(overlap_transform(pipeline_trace)[0], machine)


class TestSampling:
    def test_grid_shape(self, result):
        grid, lo, hi = sample_states(result, 50)
        assert len(grid) == result.nranks
        assert all(len(row) == 50 for row in grid)
        assert lo == 0.0 and hi == result.duration

    def test_majority_state_is_running_somewhere(self, result):
        grid, _, _ = sample_states(result, 40)
        assert any("Running" in row for row in grid)

    def test_invalid_bins(self, result):
        with pytest.raises(ValueError):
            sample_states(result, 0)

    def test_window_subrange(self, result):
        grid, lo, hi = sample_states(result, 10, t0=0.0,
                                     t1=result.duration / 2)
        assert hi == pytest.approx(result.duration / 2)


class TestGantt:
    def test_contains_all_ranks(self, result):
        text = render_gantt(result, width=60)
        for r in range(result.nranks):
            assert f"rank {r:>3}" in text

    def test_width_respected(self, result):
        text = render_gantt(result, width=33, legend=False)
        row = next(l for l in text.splitlines() if l.startswith("rank"))
        assert len(row.split("|")[1]) == 33

    def test_comparison_reports_improvement(self, result, overlapped_result):
        text = render_comparison(result, overlapped_result, width=40)
        assert "% improvement" in text and "makespan" in text

    def test_title_and_legend(self, result):
        text = render_gantt(result, title="MY TITLE")
        assert text.startswith("MY TITLE")
        assert "legend:" in text


class TestHeatmap:
    def test_render_heatmap_shape(self, result):
        text = render_heatmap(result, "Running", width=40)
        rows = [l for l in text.splitlines() if l.startswith("rank")]
        assert len(rows) == result.nranks
        assert all(len(r.split("|")[1]) == 40 for r in rows)

    def test_heatmap_running_dominates(self, result):
        text = render_heatmap(result, "Running", width=30)
        # pipeline ranks compute most of the time: dense ramp chars
        assert "@" in text or "%" in text


class TestStats:
    def test_state_matrix_shape(self, result):
        mat, names = state_matrix(result)
        assert mat.shape == (result.nranks, len(names))
        assert "Running" in names

    def test_profile_table_rows(self, result):
        table = profile_table(result)
        lines = table.splitlines()
        assert len(lines) == result.nranks + 2  # header + ranks + all
        assert lines[-1].strip().startswith("all")

    def test_profile_table_absolute(self, result):
        assert "%" not in profile_table(result, percent=False).splitlines()[1]

    def test_comm_stats(self, result):
        cs = comm_stats(result)
        assert cs.count == len(result.messages)
        assert cs.total_bytes > 0
        assert cs.mean_flight > 0
        assert "messages" in str(cs)

    def test_comm_stats_empty(self):
        from repro.dimemas.results import SimResult
        empty = SimResult(nranks=1, duration=1.0, rank_end=[1.0],
                          states=[[]], messages=[], events=[[]])
        assert comm_stats(empty).count == 0


class TestCompare:
    def test_timing_and_deltas(self, result, overlapped_result):
        c = compare(result, overlapped_result)
        assert c.timing.t_original == result.duration
        deltas = c.state_delta()
        assert deltas.get("Running", 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_report_renders(self, result, overlapped_result):
        text = compare(result, overlapped_result).report(width=40)
        assert "state deltas" in text and "timing" in text

    def test_size_mismatch_rejected(self, result):
        from repro.dimemas.results import SimResult
        other = SimResult(nranks=1, duration=1.0, rank_end=[1.0],
                          states=[[]], messages=[], events=[[]])
        with pytest.raises(ValueError):
            compare(result, other)


class TestIterationBounds:
    def test_slices_by_event(self, result):
        lo, hi = iteration_bounds(result, 0, 2)
        assert 0.0 <= lo < hi <= result.duration

    def test_missing_events(self, result):
        with pytest.raises(ValueError):
            iteration_bounds(result, 0, 2, name="nonexistent")


class TestSvg:
    def test_well_formed_document(self, result):
        doc = render_svg(result, title="t")
        assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
        assert doc.count("<rect") > result.nranks  # states + legend swatches

    def test_message_lines_drawn(self, result):
        assert "<line" in render_svg(result)

    def test_message_lines_optional(self, result):
        assert "<line" not in render_svg(result, draw_messages=False)

    def test_write_to_path(self, result, tmp_path):
        from repro.paraver import write_svg
        path = tmp_path / "x.svg"
        write_svg(result, path)
        assert path.read_text().startswith("<svg")


class TestPrvExport:
    def test_header_and_records(self, result):
        buf = io.StringIO()
        prv.write_prv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#Paraver")
        kinds = {l.split(":", 1)[0] for l in lines[1:]}
        assert kinds >= {"1", "3"}  # states and communications

    def test_pcf_lists_states(self, tmp_path):
        path = tmp_path / "t.pcf"
        prv.write_pcf(path)
        text = path.read_text()
        assert "STATES" in text and "Running" in text

    def test_records_time_sorted(self, result):
        buf = io.StringIO()
        prv.write_prv(result, buf)
        times = []
        for line in buf.getvalue().splitlines()[1:]:
            parts = line.split(":")
            times.append(int(parts[5]))
        assert times == sorted(times)
