"""The simulation integrity layer: auditor, certification, hardening.

Companion of ``tests/test_audit_property.py`` (the hypothesis side)
and ``tests/fuzz/`` (the mutational side): these are the deterministic
unit tests for ``repro.audit`` and its wiring into the replay engine,
the parsers (resource caps, quarantine-load mode), and the
``repro-verify`` / ``--audit`` CLI surface.
"""

from __future__ import annotations

import json

import pytest

from repro.audit import (
    AuditConfig,
    IntegrityError,
    InvariantAuditor,
    certify_trace,
    divergence,
    ingest_limits,
    resolve_level,
    result_digest,
)
from repro.cli import EXIT_INTEGRITY, main_simulate, main_verify
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.dimemas.results import SimResult
from repro.trace import dim
from repro.trace.columnar import ColumnarFormatError, columnar_of, decode
from repro.trace.dim import TraceFormatError


# --------------------------------------------------------------------------- #
# Levels and configuration.
# --------------------------------------------------------------------------- #

class TestLevels:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert resolve_level(None) == "off"

    def test_env_resolves(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "full")
        assert resolve_level(None) == "full"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "full")
        assert resolve_level("basic") == "basic"

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown audit level"):
            resolve_level("paranoid")

    def test_coerce(self):
        assert AuditConfig.coerce(None) is None
        assert AuditConfig.coerce("off") is None
        assert AuditConfig.coerce(AuditConfig(level="off")) is None
        cfg = AuditConfig.coerce("full")
        assert cfg is not None and cfg.level == "full"
        same = AuditConfig(level="basic", strict=True)
        assert AuditConfig.coerce(same) is same


# --------------------------------------------------------------------------- #
# Audited replays of a correct engine are clean.
# --------------------------------------------------------------------------- #

class TestAuditedReplay:
    def test_basic_clean(self, pipeline_trace, machine):
        cfg = AuditConfig(level="basic")
        simulate(pipeline_trace, machine, audit=cfg)
        report = cfg.report
        assert report is not None and report.ok
        assert report.nranks == 4
        assert len(report.checks) == 6
        assert "duration.burst" not in report.checks
        assert "clean" in report.render()

    def test_full_adds_plan_check(self, pipeline_trace, machine):
        cfg = AuditConfig(level="full")
        simulate(pipeline_trace, machine, audit=cfg)
        assert cfg.report.ok
        assert len(cfg.report.checks) == 7
        assert "duration.burst" in cfg.report.checks

    def test_audit_accepts_level_string(self, pipeline_trace, machine):
        r0 = simulate(pipeline_trace, machine)
        r1 = simulate(pipeline_trace, machine, audit="full")
        # Auditing must never perturb the simulation itself.
        assert result_digest(r0) == result_digest(r1)

    def test_report_to_dict_round_trip(self, pipeline_trace, machine):
        cfg = AuditConfig(level="full")
        simulate(pipeline_trace, machine, audit=cfg)
        doc = cfg.report.to_dict()
        assert doc["ok"] is True and doc["level"] == "full"
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_strict_raises_on_violation(self, pipeline_trace, machine,
                                        monkeypatch):
        def bad_quiescence(self, sim):
            self._checks.append("quiescence")
            self._add("quiescence", "synthetic leftover transfer", (2,))

        monkeypatch.setattr(InvariantAuditor, "_check_quiescence",
                            bad_quiescence)
        cfg = AuditConfig(level="basic", strict=True)
        with pytest.raises(IntegrityError, match="quiescence") as exc_info:
            simulate(pipeline_trace, machine, audit=cfg)
        report = exc_info.value.report
        assert not report.ok
        assert report.for_rank(2) and not report.for_rank(0)

    def test_non_strict_reports_without_raising(self, pipeline_trace,
                                                machine, monkeypatch):
        def bad_quiescence(self, sim):
            self._checks.append("quiescence")
            self._add("quiescence", "synthetic leftover transfer", (2,))

        monkeypatch.setattr(InvariantAuditor, "_check_quiescence",
                            bad_quiescence)
        cfg = AuditConfig(level="basic", strict=False)
        simulate(pipeline_trace, machine, audit=cfg)
        assert not cfg.report.ok

    def test_clock_check_catches_tampered_timeline(self, pipeline_trace,
                                                   machine):
        result = simulate(pipeline_trace, machine)
        aud = InvariantAuditor(AuditConfig(level="basic"))
        aud._check_clocks(result)
        assert not aud.violations  # ground truth is clean
        # Make rank 1's second interval start before its first ends.
        label, t0, t1 = result.states[1][1]
        result.states[1][1] = (label, -0.5 * result.states[1][0][2], t1)
        aud = InvariantAuditor(AuditConfig(level="basic"))
        aud._check_clocks(result)
        assert any(v.code == "clock.monotonicity" and v.ranks == (1,)
                   for v in aud.violations)


# --------------------------------------------------------------------------- #
# Determinism certification primitives.
# --------------------------------------------------------------------------- #

class TestCertify:
    def test_result_digest_deterministic(self, pipeline_trace, machine):
        a = simulate(pipeline_trace, machine)
        b = simulate(pipeline_trace, machine)
        assert result_digest(a) == result_digest(b)
        assert len(result_digest(a)) == 24

    def test_result_digest_sensitive_to_platform(self, pipeline_trace,
                                                 machine):
        a = simulate(pipeline_trace, machine)
        slower = MachineConfig(bandwidth_mbps=machine.bandwidth_mbps / 2,
                               latency=machine.latency, buses=machine.buses)
        b = simulate(pipeline_trace, slower)
        assert result_digest(a) != result_digest(b)

    def test_divergence_clean_against_itself(self, pipeline_trace, machine):
        a = simulate(pipeline_trace, machine)
        b = simulate(pipeline_trace, machine)
        assert divergence(a, b) == []

    def test_divergence_attributes_ranks(self, pipeline_trace, machine):
        a = simulate(pipeline_trace, machine)
        b = simulate(pipeline_trace, machine)
        b.rank_end[3] += 1e-3
        found = divergence(a, b)
        assert found and all(v.code == "determinism.divergence"
                             for v in found)
        assert any(v.ranks == (3,) for v in found)

    def test_certify_trace_clean_with_double_replay(self, pipeline_trace,
                                                    machine):
        report = certify_trace(pipeline_trace, machine=machine,
                               level="full", double_replay=True)
        assert report.ok
        assert "determinism.double_replay" in report.checks
        assert "validate.structure" in report.checks
        assert report.trace_digest


# --------------------------------------------------------------------------- #
# Hardened ingestion: caps and the quarantine load mode.
# --------------------------------------------------------------------------- #

class TestIngestion:
    def test_limits_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_TRACE_MB", "1")
        monkeypatch.setenv("REPRO_MAX_RANKS", "0")        # 0 disables
        monkeypatch.setenv("REPRO_MAX_RECORDS", "junk")   # unparseable
        limits = ingest_limits()
        assert limits.max_trace_bytes == 1024 * 1024
        assert limits.max_ranks == float("inf")
        assert limits.max_records == 20_000_000  # unparseable -> default

    def test_trace_byte_cap(self, pipeline_trace, monkeypatch):
        text = dim.dumps(pipeline_trace)
        monkeypatch.setenv("REPRO_MAX_TRACE_MB",
                           str(max(1, len(text) // (1024 * 1024)) / 1024))
        with pytest.raises(TraceFormatError, match="REPRO_MAX_TRACE_MB"):
            dim.loads(text)

    def test_rank_cap(self, pipeline_trace, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RANKS", "2")
        with pytest.raises(TraceFormatError, match="REPRO_MAX_RANKS"):
            dim.loads(dim.dumps(pipeline_trace))

    def test_record_cap(self, pipeline_trace, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RECORDS", "5")
        with pytest.raises(TraceFormatError, match="REPRO_MAX_RECORDS"):
            dim.loads(dim.dumps(pipeline_trace))

    def test_line_length_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_LINE_LEN", "24")
        with pytest.raises(TraceFormatError, match="REPRO_MAX_LINE_LEN"):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\nB:" + "9" * 50 + ":-\n")

    def test_columnar_caps(self, pipeline_trace, monkeypatch):
        blob = columnar_of(pipeline_trace).encode()
        monkeypatch.setenv("REPRO_MAX_RANKS", "2")
        with pytest.raises(ColumnarFormatError, match="REPRO_MAX_RANKS"):
            decode(blob)
        monkeypatch.delenv("REPRO_MAX_RANKS")
        monkeypatch.setenv("REPRO_MAX_RECORDS", "3")
        with pytest.raises(ColumnarFormatError, match="REPRO_MAX_RECORDS"):
            decode(blob)
        monkeypatch.delenv("REPRO_MAX_RECORDS")
        restored = decode(blob).to_traceset()
        assert restored.total_records() == pipeline_trace.total_records()

    def test_quarantine_mode_attributes_dropped_records(self,
                                                        pipeline_trace):
        lines = dim.dumps(pipeline_trace).splitlines()
        target = next(i for i, ln in enumerate(lines)
                      if ln.startswith("S:"))
        lines[target] = "S:not:a:number"
        text = "\n".join(lines) + "\n"
        with pytest.raises(TraceFormatError):
            dim.loads(text)  # raise mode: typed, line-attributed
        trace = dim.loads(text, errors="quarantine")
        dropped = trace.meta["quarantined_records"]
        # The broken send goes, and so does the orphaned access
        # profile that followed it (it must not attach to the record
        # *before* the dropped one).
        assert [d["kind"] for d in dropped] == ["S", "AP"]
        entry = dropped[0]
        assert entry["line"] == target + 1
        assert isinstance(entry["rank"], int)
        assert "not" in entry["text"] and "malformed" in entry["reason"]

    def test_unknown_errors_mode_rejected(self):
        with pytest.raises(ValueError, match="errors"):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\n", errors="ignore")

    def test_inconsistent_process_table_is_typed(self):
        # Regression: the fuzzer got a bare ValueError out of TraceSet
        # when mutated 'P' headers skipped a rank.
        with pytest.raises(TraceFormatError, match="process table"):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\nP:2\n")


# --------------------------------------------------------------------------- #
# Satellite: SimResult accessor guards.
# --------------------------------------------------------------------------- #

class TestResultGuards:
    def _empty(self) -> SimResult:
        return SimResult(nranks=4, duration=0.0, rank_end=[],
                         states=[], messages=[], events=[])

    def test_time_in_state_out_of_range_rank(self, pipeline_trace, machine):
        res = simulate(pipeline_trace, machine)
        assert res.time_in_state("Running", rank=99) == 0.0
        assert res.time_in_state("Running", rank=-7) == 0.0

    def test_time_in_state_short_states_list(self):
        res = self._empty()
        assert res.time_in_state("Running") == 0.0
        assert res.time_in_state("Running", rank=0) == 0.0

    def test_event_times_out_of_range_rank(self):
        assert self._empty().event_times("iteration", rank=0) == []
        assert self._empty().event_times("iteration", rank=-3) == []

    def test_parallel_efficiency_zero_time(self):
        assert self._empty().parallel_efficiency == 0.0


# --------------------------------------------------------------------------- #
# CLI surface: repro-verify and --audit.
# --------------------------------------------------------------------------- #

class TestVerifyCli:
    def test_verify_passes_clean_dim_and_rct(self, tmp_path,
                                             pipeline_trace, capsys):
        dimf = tmp_path / "ok.dim"
        dim.dump(pipeline_trace, str(dimf))
        rctf = tmp_path / "ok.rct"
        rctf.write_bytes(columnar_of(pipeline_trace).encode())
        assert main_verify([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2 and "2 passed, 0 failed" in out

    def test_verify_fails_broken_trace(self, tmp_path, pipeline_trace,
                                       capsys):
        text = dim.dumps(pipeline_trace)
        lines = text.splitlines()
        target = next(i for i, ln in enumerate(lines)
                      if ln.startswith("S:"))
        parts = lines[target].split(":")
        parts[3] = str(int(parts[3]) + 12345)  # torn size header
        lines[target] = ":".join(parts)
        bad = tmp_path / "bad.dim"
        bad.write_text("\n".join(lines) + "\n")
        assert main_verify([str(bad)]) == EXIT_INTEGRITY
        out = capsys.readouterr().out
        assert "FAIL" in out and "violation" in out

    def test_verify_unreadable_is_a_failure(self, tmp_path, capsys):
        junk = tmp_path / "junk.rct"
        junk.write_bytes(b"not a columnar trace")
        assert main_verify([str(junk)]) == EXIT_INTEGRITY
        assert "unreadable" in capsys.readouterr().out

    def test_simulate_audit_strict_clean(self, tmp_path, pipeline_trace):
        dimf = tmp_path / "t.dim"
        dim.dump(pipeline_trace, str(dimf))
        assert main_simulate([str(dimf), "--audit", "full",
                              "--strict-audit"]) == 0
