"""Observability layer: spans, metrics, manifests, exporters, CLI."""

from __future__ import annotations

import io
import json
import logging
import math
import sys

import pytest

from repro import obs
from repro.obs import logs as logs_mod
from repro.obs import spans as spans_mod
from repro.obs.export import span_summary_table, spans_to_chrome
from repro.obs.manifest import (
    RunContext,
    collect_worker_payload,
    configure_worker,
    current_run,
    new_run_id,
    worker_config,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Span collection off and drained before and after every test."""
    spans_mod.disable()
    spans_mod.flush()
    yield
    spans_mod.disable()
    spans_mod.flush()


# --------------------------------------------------------------------------- #
# Spans.
# --------------------------------------------------------------------------- #

class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert obs.span("a") is obs.span("b") is spans_mod.NULL_SPAN
        with obs.span("a") as sp:
            sp.annotate(x=1)  # no-op, must not raise
        assert spans_mod.flush() == []

    def test_records_interval_and_attrs(self):
        obs.enable()
        with obs.span("stage.one", nranks=4) as sp:
            sp.annotate(events=7)
        (rec,) = spans_mod.flush()
        assert rec.name == "stage.one"
        assert rec.t1 >= rec.t0
        assert rec.attrs == {"nranks": 4, "events": 7}
        assert rec.parent is None

    def test_nesting_links_parent_ids(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        recs = {r.name: r for r in spans_mod.flush()}
        assert recs["inner"].parent == outer.sid
        assert recs["outer"].parent is None
        # Children finish first: the records list is exit-ordered.
        assert recs["inner"].sid != recs["outer"].sid

    def test_sibling_spans_share_parent(self):
        obs.enable()
        with obs.span("root") as root:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        recs = {r.name: r for r in spans_mod.flush()}
        assert recs["a"].parent == root.sid
        assert recs["b"].parent == root.sid

    def test_exception_annotates_and_propagates(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("nope")
        (rec,) = spans_mod.flush()
        assert rec.attrs["error"] == "ValueError"

    def test_traced_decorator(self):
        calls = []

        @obs.traced("fn.label")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2  # disabled: no span, function still runs
        assert spans_mod.flush() == []
        obs.enable()
        assert fn(2) == 3
        (rec,) = spans_mod.flush()
        assert rec.name == "fn.label"
        assert calls == [1, 2]

    def test_to_dict_is_wall_clock(self):
        obs.enable()
        with obs.span("x"):
            pass
        (rec,) = spans_mod.flush()
        d = rec.to_dict()
        # Wall-clock epoch seconds, not raw perf_counter values.
        assert d["t0"] > 1e9
        assert d["t1"] >= d["t0"]


# --------------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------------- #

class TestHistogram:
    def test_nearest_rank_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_small_sets_and_empty(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert math.isnan(h.percentile(50))
        h.observe(3.0)
        assert h.percentile(50) == 3.0
        h.observe(1.0)
        assert h.percentile(50) == 1.0  # nearest rank: ceil(0.5*2)=1st
        assert h.percentile(99) == 3.0

    def test_summary_fields(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 2.0 and s["max"] == 6.0
        assert s["mean"] == pytest.approx(4.0)
        assert reg.histogram("empty").summary() == {"count": 0}

    def test_percentile_range_checked(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)


class TestFunnel:
    def test_flush_delta_then_merge_equals_direct(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.counter("c").inc(5)
        worker.gauge("g").set(2.5)
        worker.histogram("h").observe(1.0)
        worker.histogram("h").observe(9.0)
        parent.merge_delta(worker.flush_delta())
        assert parent.counter("c").value == 5
        assert parent.gauge("g").value == 2.5
        assert parent.histogram("h").values == [1.0, 9.0]

    def test_second_flush_only_ships_new_activity(self):
        worker = MetricsRegistry()
        worker.counter("c").inc(3)
        worker.histogram("h").observe(1.0)
        worker.flush_delta()
        empty = worker.flush_delta()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}
        worker.counter("c").inc(2)
        worker.histogram("h").observe(7.0)
        delta = worker.flush_delta()
        assert delta["counters"] == {"c": 2}
        assert delta["histograms"] == {"h": [7.0]}
        # Totals in the worker itself are unaffected by flushing.
        assert worker.counter("c").value == 5

    def test_merge_is_order_independent(self):
        deltas = []
        for incs in ((1, [1.0, 2.0]), (4, [3.0]), (2, [])):
            w = MetricsRegistry()
            w.counter("c").inc(incs[0])
            for v in incs[1]:
                w.histogram("h").observe(v)
            deltas.append(w.flush_delta())
        a, b = MetricsRegistry(), MetricsRegistry()
        for d in deltas:
            a.merge_delta(d)
        for d in reversed(deltas):
            b.merge_delta(d)
        assert a.counter("c").value == b.counter("c").value == 7
        assert sorted(a.histogram("h").values) == sorted(b.histogram("h").values)
        assert a.histogram("h").percentile(50) == b.histogram("h").percentile(50)

    def test_merge_none_and_empty_are_noops(self):
        reg = MetricsRegistry()
        reg.merge_delta(None)
        reg.merge_delta({})
        assert reg.snapshot()["counters"] == {}

    def test_worker_payload_roundtrip(self):
        """collect_worker_payload -> absorb via a parent registry."""
        obs.enable()
        with obs.span("worker.stage"):
            pass
        obs.get_registry().counter("test.obs.payload").inc(2)
        payload = collect_worker_payload(events=[{"what": "x"}])
        assert payload["pid"] > 0
        assert payload["metrics"]["counters"]["test.obs.payload"] == 2
        assert [s["name"] for s in payload["spans"]] == ["worker.stage"]
        assert payload["events"] == [{"what": "x"}]

    def test_worker_config_controls_spans(self):
        configure_worker({"spans": True})
        assert obs.is_enabled()
        configure_worker(None)
        assert not obs.is_enabled()
        assert worker_config() == {"spans": False}


# --------------------------------------------------------------------------- #
# Run manifests.
# --------------------------------------------------------------------------- #

class TestRunContext:
    def test_manifest_and_event_log(self, tmp_path):
        run = RunContext(tmp_path, command="test-cmd", argv=["x"], seed=7)
        assert current_run() is run
        run.record("custom", detail=1)
        manifest = run.finalize(status="ok", extra_field=3)
        assert current_run() is None
        on_disk = json.loads((run.dir / "manifest.json").read_text())
        for doc in (manifest, on_disk):
            assert doc["run_id"] == run.run_id
            assert doc["command"] == "test-cmd"
            assert doc["seed"] == 7
            assert doc["status"] == "ok"
            assert doc["extra_field"] == 3
            assert doc["wall_seconds"] >= 0
            assert "metrics" in doc
        kinds = [json.loads(l)["kind"]
                 for l in (run.dir / "events.jsonl").read_text().splitlines()]
        assert kinds == ["run_start", "custom", "run_end"]

    def test_absorb_worker_merges_everything(self, tmp_path):
        before = obs.get_registry().counter("test.obs.absorb").value
        run = RunContext(tmp_path, command="t")
        run.absorb_worker({
            "pid": 4242,
            "metrics": {"counters": {"test.obs.absorb": 3}, "gauges": {},
                        "histograms": {}},
            "spans": [{"name": "w.stage", "t0": 1.0, "t1": 2.0,
                       "parent": None, "sid": 1, "tid": 1, "attrs": {}}],
            "events": [{"kind2": "cache_hit"}],
        })
        run.absorb_worker(None)  # tolerated
        manifest = run.finalize()
        assert obs.get_registry().counter("test.obs.absorb").value == before + 3
        assert manifest["worker_pids"] == [4242]
        assert manifest["worker_events"] == 1
        assert any(s["name"] == "w.stage" and s["pid"] == 4242
                   for s in run.spans)

    def test_local_spans_get_this_pid(self, tmp_path):
        import os
        obs.enable()
        run = RunContext(tmp_path, command="t")
        with obs.span("local.stage"):
            pass
        spans = run.drain_spans()
        assert any(s["name"] == "local.stage" and s["pid"] == os.getpid()
                   for s in spans)
        run.finalize()

    def test_run_ids_unique_and_sortable(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        assert len(a.split("-")) == 3


# --------------------------------------------------------------------------- #
# Exporters.
# --------------------------------------------------------------------------- #

def _spandict(name, t0, t1, pid=100, attrs=None, sid=1, parent=None):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent, "sid": sid,
            "tid": 1, "attrs": attrs or {}, "pid": pid}


class TestChromeExport:
    def test_empty(self):
        assert spans_to_chrome([]) == {"traceEvents": [],
                                       "displayTimeUnit": "ms"}

    def test_events_shape(self):
        doc = spans_to_chrome([
            _spandict("replay.simulate", 10.0, 10.5),
            _spandict("trace.build", 10.5, 10.6, pid=200, sid=2),
        ])
        ev = doc["traceEvents"]
        xs = [e for e in ev if e["ph"] == "X"]
        ms = [e for e in ev if e["ph"] == "M"]
        assert len(xs) == 2 and ms  # metadata + complete events
        sim = next(e for e in xs if e["name"] == "replay.simulate")
        assert sim["ts"] == 0.0 and sim["dur"] == pytest.approx(0.5e6)
        assert sim["cat"] == "replay"
        assert {e["pid"] for e in xs} == {100, 200}
        # Metadata events sort before timed events (Perfetto wants this).
        assert [e["ph"] for e in ev[:len(ms)]] == ["M"] * len(ms)

    def test_sim_overlay_track(self):
        doc = spans_to_chrome([
            _spandict("replay.simulate", 10.0, 10.5,
                      attrs={"sim_seconds": 2.0}),
        ])
        sims = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "simulated"]
        assert len(sims) == 1
        assert sims[0]["dur"] == pytest.approx(2.0e6)
        assert sims[0]["name"] == "replay.simulate [simulated]"
        plain = spans_to_chrome(
            [_spandict("replay.simulate", 10.0, 10.5,
                       attrs={"sim_seconds": 2.0})],
            sim_overlay=False,
        )["traceEvents"]
        assert not any(e.get("cat") == "simulated" for e in plain)
        assert not any(e.get("tid") == 999_999 for e in plain)

    def test_accepts_span_record_objects(self):
        obs.enable()
        with obs.span("mix.native"):
            pass
        (rec,) = spans_mod.flush()
        doc = spans_to_chrome([rec, _spandict("mix.dict", rec.t0, rec.t1)])
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert names == {"mix.native", "mix.dict"}

    def test_json_serializable(self, tmp_path):
        obs.enable()
        with obs.span("ser.stage", nranks=4):
            pass
        path = obs.write_chrome_trace(
            tmp_path / "trace.json", [r.to_dict() for r in spans_mod.flush()]
        )
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]


class TestTextSummaries:
    def test_span_summary_table(self):
        table = span_summary_table([
            _spandict("replay.simulate", 0.0, 2.0),
            _spandict("replay.simulate", 2.0, 3.0),
            _spandict("trace.build", 0.0, 0.5),
        ])
        assert "replay.simulate" in table and "trace.build" in table
        lines = table.splitlines()
        # Sorted by total time: replay.simulate (3 s) before trace.build.
        assert lines[1].startswith("replay.simulate")
        assert "2" in lines[1].split()[1]  # two calls
        assert span_summary_table([]) == "(no spans recorded)"

    def test_write_metrics(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = obs.write_metrics(tmp_path / "m.json", reg, run_id="rid")
        doc = json.loads(path.read_text())
        assert doc["run_id"] == "rid"
        assert doc["metrics"]["counters"]["c"] == 1


# --------------------------------------------------------------------------- #
# Logging.
# --------------------------------------------------------------------------- #

class TestLogging:
    def test_handler_writes_to_the_current_stderr(self, monkeypatch):
        """A stream swapped out and closed after ``configure`` (a test's
        capture, say) is never written to: a later warning goes to
        whatever ``sys.stderr`` is then."""
        root = logging.getLogger("repro")
        saved = (logs_mod._HANDLER, root.handlers[:], root.level,
                 root.propagate)
        try:
            logs_mod._HANDLER = None
            root.handlers[:] = []
            first = io.StringIO()
            monkeypatch.setattr(sys, "stderr", first)
            obs.configure_logging()
            first.close()
            second = io.StringIO()
            monkeypatch.setattr(sys, "stderr", second)
            logging.getLogger("repro.test").warning("after the swap")
            text = second.getvalue()
            assert "WARNING repro.test: after the swap" in text
            assert "Logging error" not in text
        finally:
            logs_mod._HANDLER = saved[0]
            root.handlers[:] = saved[1]
            root.setLevel(saved[2])
            root.propagate = saved[3]


# --------------------------------------------------------------------------- #
# End to end: the report CLI with workers, profiling, and artifacts.
# --------------------------------------------------------------------------- #

class TestCliAcceptance:
    def test_report_run_produces_all_artifacts(self, tmp_path, capsys):
        from repro.cli import main_report

        obs_dir = tmp_path / "obs"
        rc = main_report([
            "--jobs", "2", "--nranks", "4", "--apps", "cg",
            "--no-bandwidth", "--profile",
            "--metrics-out", str(tmp_path / "m.json"),
            "--obs-dir", str(obs_dir),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        report = capsys.readouterr().out
        assert "== Figure 6: overlap benefits ==" in report
        assert "cache:" in report and "hits" in report

        (run_dir,) = [p for p in obs_dir.iterdir() if p.is_dir()]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["command"] == "repro-report"
        assert manifest["spans"] > 0
        # The pool ran: worker processes funneled their observability
        # payloads (metrics deltas + spans) back through task results.
        assert manifest["worker_pids"]

        metrics = json.loads((tmp_path / "m.json").read_text())
        assert metrics["run_id"] == manifest["run_id"]
        counters = metrics["metrics"]["counters"]
        assert counters["cache.replay.misses"] > 0
        assert counters["replay.runs"] > 0
        hists = metrics["metrics"]["histograms"]
        assert hists["engine.point_wall_seconds"]["count"] > 0
        assert hists["replay.wall_seconds"]["count"] > 0

        trace = json.loads((run_dir / "trace.json").read_text())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs
        # Worker spans made it into the merged Perfetto trace: more
        # than one process track.
        assert len({e["pid"] for e in xs}) >= 2
        assert any(e["cat"] == "simulated" for e in xs)

        kinds = [json.loads(l)["kind"] for l in
                 (run_dir / "events.jsonl").read_text().splitlines()]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        # Spans are off again after the CLI run.
        assert not obs.is_enabled()

    def test_cache_counters_aggregate_without_run_dir(self, tmp_path):
        """Satellite: worker cache hits/misses survive the pool even
        when no observability flags are given."""
        from repro.experiments.parallel import ExperimentEngine, expand_grid

        reg = obs.get_registry()
        before = reg.counter("cache.replay.misses").value
        points = expand_grid(["cg"], variants=("original", "real"), nranks=4)
        with ExperimentEngine(jobs=2, cache_dir=tmp_path / "cache") as eng:
            durs = eng.durations(points)
        assert all(d > 0 for d in durs)
        assert reg.counter("cache.replay.misses").value > before
