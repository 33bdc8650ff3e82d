"""CLI entry point tests (run in-process with argv lists)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main_overlap, main_simulate, main_trace
from repro.trace import dim

#: sha256 of the 8-rank CG trace ``repro-trace cg -n 8`` writes, and of
#: the ``.dim`` files ``repro-overlap`` writes from it, without and with
#: ``--ideal``.
CG8_SHA256 = "a57042278470afb6d57ac884cb6d2b3d469c6b47e2545e4c938e8f474866078a"
OVERLAP_SHA256 = {
    "real": "af2a5c841abb87eacf28a10605ea2796927f9bed20fd7b1ad6b7958acdd4140d",
    "ideal": "08978fb819cb83b84c079b1574fd473d004fb5fb84b33002168deff5b9464378",
}


@pytest.fixture
def traced_file(tmp_path):
    path = tmp_path / "cg.dim"
    rc = main_trace(["cg", "-n", "4", "-o", str(path)])
    assert rc == 0
    return path


class TestTraceCommand:
    def test_writes_parseable_trace(self, traced_file):
        ts = dim.load(traced_file)
        assert ts.nranks == 4
        assert ts.meta["app"] == "cg"

    def test_unknown_app_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main_trace(["linpack", "-o", str(tmp_path / "x.dim")])

    def test_streams_flag(self, tmp_path):
        path = tmp_path / "s.dim"
        assert main_trace(["alya", "-n", "2", "-o", str(path),
                           "--streams"]) == 0
        assert path.exists()

    def test_custom_mips_recorded(self, tmp_path):
        path = tmp_path / "m.dim"
        main_trace(["alya", "-n", "2", "-o", str(path), "--mips", "1000"])
        assert dim.load(path).meta["mips"] == 1000.0


class TestOverlapCommand:
    def test_real_transform(self, traced_file, tmp_path, capsys):
        out = tmp_path / "ov.dim"
        assert main_overlap([str(traced_file), "-o", str(out)]) == 0
        assert "transformed" in capsys.readouterr().out
        ts = dim.load(out)
        assert ts.meta["overlap"]["schedule"] == "real"

    def test_ideal_transform(self, traced_file, tmp_path):
        out = tmp_path / "id.dim"
        main_overlap([str(traced_file), "-o", str(out), "--ideal",
                      "--chunks", "2"])
        meta = dim.load(out).meta["overlap"]
        assert meta["schedule"] == "ideal" and meta["chunks"] == 2

    def test_no_double_buffering_flag(self, traced_file, tmp_path):
        out = tmp_path / "sb.dim"
        main_overlap([str(traced_file), "-o", str(out),
                      "--no-double-buffering"])
        assert dim.load(out).meta["overlap"]["double_buffering"] is False

    @pytest.mark.parametrize("variant", sorted(OVERLAP_SHA256))
    def test_output_bytes_locked(self, tmp_path, capsys, variant):
        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        src = tmp_path / "cg8.dim"
        assert main_trace(["cg", "-n", "8", "-o", str(src)]) == 0
        assert sha(src) == CG8_SHA256
        out = tmp_path / f"{variant}.dim"
        flags = ["--ideal"] if variant == "ideal" else []
        assert main_overlap([str(src), "-o", str(out)] + flags) == 0
        assert sha(out) == OVERLAP_SHA256[variant]


class TestSimulateCommand:
    def test_reports_makespan(self, traced_file, capsys):
        assert main_simulate([str(traced_file), "--buses", "6"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "parallel efficiency" in out

    def test_gantt_and_profile(self, traced_file, capsys):
        main_simulate([str(traced_file), "--gantt", "--state-profile",
                       "--width", "40"])
        out = capsys.readouterr().out
        assert "rank   0 |" in out and "Running" in out

    def test_prv_and_svg_export(self, traced_file, tmp_path, capsys):
        prv_path = tmp_path / "out.prv"
        svg_path = tmp_path / "out.svg"
        main_simulate([str(traced_file), "--prv", str(prv_path),
                       "--svg", str(svg_path)])
        assert prv_path.read_text().startswith("#Paraver")
        assert (tmp_path / "out.pcf").exists()
        assert svg_path.read_text().startswith("<svg")

    def test_bandwidth_changes_result(self, traced_file, capsys):
        main_simulate([str(traced_file), "--bandwidth", "10"])
        slow = capsys.readouterr().out
        main_simulate([str(traced_file), "--bandwidth", "10000"])
        fast = capsys.readouterr().out
        def makespan(s):
            return float(s.split("makespan ")[1].split(" us")[0])
        assert makespan(slow) > makespan(fast)


class TestEndToEndCli:
    def test_trace_overlap_simulate_chain(self, traced_file, tmp_path, capsys):
        ov = tmp_path / "ov.dim"
        main_overlap([str(traced_file), "-o", str(ov)])
        main_simulate([str(traced_file), "--buses", "6"])
        orig = capsys.readouterr().out
        main_simulate([str(ov), "--buses", "6"])
        over = capsys.readouterr().out
        def makespan(s):
            return float(s.split("makespan ")[1].split(" us")[0])
        assert makespan(over) <= makespan(orig) * 1.1


class TestAnalyzeCommand:
    def test_patterns_and_stats(self, traced_file, capsys):
        from repro.cli import main_analyze
        assert main_analyze([str(traced_file)]) == 0
        out = capsys.readouterr().out
        assert "production pattern" in out
        assert "phase potential" in out
        assert "channel 0" in out

    def test_trace_summary_counts(self, traced_file, capsys):
        from repro.cli import main_analyze
        from repro.trace.records import CpuBurst, ISend, Send
        trace = dim.load(traced_file)
        sends = [r for p in trace for r in p if isinstance(r, (Send, ISend))]
        assert main_analyze([str(traced_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert trace.nranks == 4 and sends
        assert lines[0] == (
            f"trace: 4 ranks, {trace.total_records()} records, "
            f"{len(sends)} messages, "
            f"{trace.total_virtual_compute() * 1e3:.3f} ms compute")
        assert trace.total_virtual_compute() > 0
        assert any(isinstance(r, CpuBurst) for p in trace for r in p)
        app_bytes = sum(r.size for r in sends if r.channel == 0)
        assert f"  channel 0 (application): {app_bytes} bytes" in lines

    def test_simulate_adds_profile_and_critical_path(self, traced_file, capsys):
        from repro.cli import main_analyze
        main_analyze([str(traced_file), "--simulate", "--buses", "6"])
        out = capsys.readouterr().out
        assert "critical path" in out and "Running" in out

    def test_channel_filter(self, traced_file, capsys):
        from repro.cli import main_analyze
        main_analyze([str(traced_file), "--channel", "1"])
        out = capsys.readouterr().out
        assert "production pattern" in out

    def test_json_export(self, traced_file, tmp_path, capsys):
        import json
        path = tmp_path / "out.json"
        main_simulate([str(traced_file), "--json", str(path)])
        parsed = json.loads(path.read_text())
        assert parsed["nranks"] == 4 and parsed["duration"] > 0


class TestInterruptUniformity:
    """Every entry point maps Ctrl-C to the conventional 128+SIGINT
    exit status (130), never a stack trace (docs/ROBUSTNESS.md §6)."""

    ENTRY_POINTS = (
        "main_trace", "main_overlap", "main_simulate", "main_analyze",
        "main_explain", "main_resilience", "main_report", "main_verify",
    )

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_sigint_exits_130(self, name, monkeypatch, capsys):
        import argparse

        from repro import cli

        def interrupt(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            interrupt)
        assert getattr(cli, name)([]) == cli.EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err


class TestBrokenPipe:
    def test_closed_stdout_exits_141_quietly(self, traced_file):
        """A reader that went away (``repro-analyze t.dim | head``) ends
        the command with 128+SIGPIPE and no traceback."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys; from repro.cli import main_analyze; "
                "sys.exit(main_analyze(sys.argv[1:]))")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code, str(traced_file)],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr.decode()
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr


class TestResilienceCommand:
    def test_list_scenarios(self, capsys):
        from repro.cli import main_resilience
        assert main_resilience(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for kind in ("bandwidth-sag", "latency-spike", "outage-stall",
                     "outage-restart", "cpu-noise", "straggler"):
            assert kind in out

    def test_unknown_inputs_rejected(self, capsys):
        from repro.cli import main_resilience
        with pytest.raises(SystemExit) as ei:
            main_resilience(["nosuchapp"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit):
            main_resilience(["cg", "--scenarios", "meteor"])

    def test_end_to_end_json(self, tmp_path, capsys):
        import json as _json
        import sys as _sys
        from pathlib import Path as _Path

        from repro.cli import main_resilience
        out = tmp_path / "resilience.json"
        rc = main_resilience(["cg", "-n", "4", "--chunks", "2",
                              "--scenarios", "straggler",
                              "--json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "straggler" in text and "resilience" in text.lower()
        doc = _json.loads(out.read_text())
        assert doc["schema"] == "repro-resilience/1"
        _sys.path.insert(0, str(
            _Path(__file__).resolve().parent.parent / "tools"))
        from validate_schema import validate
        schema = _json.loads((
            _Path(__file__).resolve().parent.parent
            / "docs/schema/repro-resilience.schema.json").read_text())
        assert validate(doc, schema) == []
