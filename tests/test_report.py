"""Smoke tests of the full reproduction report (small scale)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.report import full_report


@pytest.fixture(scope="module")
def report_text():
    # two apps, no bandwidth searches: seconds, not minutes
    return full_report(nranks=8, apps=("cg", "alya"),
                       include_bandwidth=False)


class TestReportContent:
    def test_all_sections_present(self, report_text):
        for section in ("Table I", "Table II", "Figure 4", "Figure 5",
                        "Figure 6"):
            assert section in report_text

    def test_paper_rows_shown_next_to_measured(self, report_text):
        assert "(paper)" in report_text and "(measured)" in report_text

    def test_apps_listed(self, report_text):
        assert "cg" in report_text and "alya" in report_text

    def test_fig4_improvement_line(self, report_text):
        assert "paper: ~8% improvement" in report_text

    def test_speedups_parse_as_numbers(self, report_text):
        lines = report_text.splitlines()
        idx = next(i for i, l in enumerate(lines) if "Figure 6" in l)
        for line in lines[idx + 2:]:
            if not line.strip():
                break
            parts = line.split()
            float(parts[1]), float(parts[2])  # real/ideal columns


class TestBandwidthColumnsOnEveryJobCount:
    def test_serial_and_pooled_reports_are_byte_identical(self):
        """The Figure 6 searches run as one campaign on either route, and
        every threshold is its sequential walk's, so the whole report
        prints the same text."""
        serial, pooled = (
            full_report(nranks=8, apps=("cg", "bt"), jobs=jobs)
            for jobs in (1, 2)
        )
        assert serial == pooled
        rows = serial.split("== Figure 6: overlap benefits ==\n")[1]
        header, cg, bt = rows.splitlines()[:3]
        assert "equivBW(ideal)" in header
        for row in (cg, bt):
            assert len(row.split()) == 7 and "FAILED" not in row


class TestModuleEntryPoint:
    def test_module_main_is_repro_report(self, tmp_path, monkeypatch, capsys):
        """``python -m repro.experiments.report`` parses like
        ``repro-report`` (here ``--list-runs``, a repro-report option)
        and exits with its code."""
        from repro.experiments import report

        monkeypatch.setattr("sys.argv", [
            "report", "--list-runs", "--obs-dir", str(tmp_path)])
        with pytest.raises(SystemExit) as ei:
            report.main()
        assert ei.value.code == 0
        assert capsys.readouterr().out.strip() == "no runs found"

    def test_module_run_prints_no_warning(self, tmp_path):
        """Running the module imports its package first, which must not
        import the module itself: runpy would warn on every run."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.experiments.report", "--list-runs",
             "--obs-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
