"""``tools/bench_history.py --compare``: a result line against history."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_history  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "cold_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "dimemas.replay.s", "unit": "s", "better": "lower"},
        {"name": "perturb.s", "unit": "s", "better": "lower"},
        {"name": "audit.s", "unit": "s", "better": "lower"},
    ],
}


def result_line(cold_s: float, peak_rss_mb: float) -> dict:
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "cold_s": {"unit": "s", "value": cold_s},
        "peak_rss_mb": {"unit": "MiB", "value": peak_rss_mb},
    }}


@pytest.fixture
def files(tmp_path, monkeypatch):
    """A benchmark declaration and a history holding one fig6 entry."""
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    history = tmp_path / "HISTORY.jsonl"
    bench_history.append_history(result_line(20.0, 900.0), bench="other",
                                 history_path=history)
    bench_history.append_history(result_line(10.0, 900.0), bench="fig6",
                                 history_path=history)
    monkeypatch.setattr(bench_history, "BENCHMARK_PATH", benchmark)
    monkeypatch.setattr(bench_history, "HISTORY_PATH", history)
    return tmp_path


def run(files: Path, name: str, line: dict, capsys) -> tuple[int, str]:
    path = files / f"{name}.json"
    path.write_text(json.dumps(line))
    code = bench_history.main(["--compare", str(path)])
    return code, capsys.readouterr().out


class TestCompare:
    def test_within_bounds_passes(self, files, capsys):
        # 20% slower and 5% larger: inside both bounds.
        code, out = run(files, "fig6", result_line(12.0, 945.0), capsys)
        assert code == 0
        assert "+20.0%" in out and "+5.0%" in out
        assert "WORSE" not in out

    def test_regression_beyond_bound_fails(self, files, capsys):
        code, out = run(files, "fig6", result_line(9.0, 1000.0), capsys)
        assert code == 1
        rss = next(ln for ln in out.splitlines() if "peak_rss_mb" in ln)
        assert "WORSE" in rss and "+11.1%" in rss
        cold = next(ln for ln in out.splitlines() if "cold_s" in ln)
        assert "WORSE" not in cold and "-10.0%" in cold

    def test_bench_without_history_passes(self, files, capsys):
        code, out = run(files, "explain", result_line(99.0, 9999.0), capsys)
        assert code == 0
        assert "no history" in out

    def test_compares_with_the_last_entry_of_the_bench(self, files, capsys):
        bench_history.append_history(result_line(5.0, 900.0), bench="fig6",
                                     history_path=bench_history.HISTORY_PATH)
        code, out = run(files, "fig6", result_line(10.0, 900.0), capsys)
        assert code == 1 and "+100.0%" in out

    def test_per_layer_rows_when_both_lines_carry_them(self, files, capsys):
        def traced(replay_s: float, perturb_s: float) -> dict:
            line = result_line(10.0, 900.0)
            line["metrics"].update({
                "dimemas.replay.s": {"unit": "s", "value": replay_s},
                "perturb.s": {"unit": "s", "value": perturb_s},
            })
            return line

        bench_history.append_history(traced(2.0, 0.0), bench="fig6",
                                     history_path=bench_history.HISTORY_PATH)
        # A layer three times slower is reported, not gated.
        code, out = run(files, "fig6", traced(6.0, 0.5), capsys)
        assert code == 0 and "WORSE" not in out
        rows = {ln.split()[0]: ln for ln in out.splitlines()
                if ln.startswith("  ")}
        assert "+200.0%" in rows["dimemas.replay.s"]
        assert "n/a" in rows["perturb.s"]
        assert "audit.s" not in rows  # carried by neither line

    def test_a_traced_entry_does_not_hide_a_plain_regression(
            self, files, capsys):
        traced = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "dimemas.replay.s": {"unit": "s", "value": 1.0}}}
        bench_history.append_history(traced, bench="fig6",
                                     history_path=bench_history.HISTORY_PATH)
        # Compared with the plain entry before it, not the traced one.
        code, out = run(files, "fig6", result_line(20.0, 900.0), capsys)
        assert code == 1 and "+100.0%" in out
        assert "per-layer" not in out

    def test_traced_line_without_traced_history_passes(self, files, capsys):
        line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "dimemas.replay.s": {"unit": "s", "value": 1.0}}}
        code, out = run(files, "fig6", line, capsys)
        assert code == 0 and "no history" in out and "(traced runs)" in out
