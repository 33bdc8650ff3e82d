"""The disabled-observability fast path stays near-zero cost.

The contract (docs/OBSERVABILITY.md): with collection off, every
instrumentation point costs one module-global check — no allocation,
no clock read — and the replay's event loop carries no
instrumentation at all.  Wall-clock assertions use deliberately
generous bounds so the tests pin down the *shape* of the fast path
(shared singleton, spans per stage) without becoming flaky on loaded
CI machines.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro import obs
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.obs import spans as spans_mod


@pytest.fixture(autouse=True)
def _clean_tracer():
    spans_mod.disable()
    spans_mod.flush()
    yield
    spans_mod.disable()
    spans_mod.flush()


def _cg_trace(nranks=4):
    from repro.apps import get_app
    return get_app("cg").trace(nranks=nranks).trace


class TestDisabledShape:
    def test_disabled_span_is_shared_singleton(self):
        """No per-call allocation: every disabled span() is one object."""
        seen = {id(obs.span(f"n{i}", k=i)) for i in range(100)}
        assert seen == {id(spans_mod.NULL_SPAN)}

    def test_enabled_replay_records_its_spans(self):
        obs.enable()
        simulate(_cg_trace(), MachineConfig(bandwidth_mbps=250.0))
        obs.disable()
        spans = {r.name: r for r in spans_mod.flush()}
        assert spans["replay.simulate"].attrs["events"] > 0
        assert spans["replay.simulate"].attrs["sim_seconds"] > 0
        assert "replay.drain_queue" in spans


class TestDisabledCost:
    def test_disabled_span_call_is_cheap(self):
        """Best-of-5 mean under 3 us/call — an order of magnitude of
        headroom over the measured cost, tight enough to catch an
        accidental allocation or clock read sneaking into the path."""
        n = 20_000
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                obs.span("bench.stage")
            best = min(best, (time.perf_counter() - t0) / n)
        assert best < 3e-6, f"disabled span() costs {best * 1e9:.0f} ns"

    def test_disabled_replay_throughput_within_budget(self):
        """Replay with instrumentation compiled in but disabled runs at
        the same speed run-to-run (<2% systematic budget; the assertion
        allows generous noise).  Both runs exercise the identical code
        path, so a real regression would have to come from the obs
        hooks themselves — the run-to-run spread bounds their cost
        together with the machine noise.

        One replay takes about 1.5 ms, within reach of a single
        scheduler hiccup, so each sample sums a loop of replays lasting
        at least 50 ms.  The two runs' replays alternate within the
        loop, so a drift in the host's speed slows both alike, and the
        collector is paused during a sample, so one collection cannot
        land on one run only."""
        trace = _cg_trace()
        machine = MachineConfig(bandwidth_mbps=250.0)
        simulate(trace, machine)  # warm plan memo + allocations

        def replay() -> float:
            t0 = time.perf_counter()
            simulate(trace, machine)
            return time.perf_counter() - t0

        def paused_gc(loop):
            gc.collect()
            gc.disable()
            try:
                return loop()
            finally:
                gc.enable()

        def calibrate() -> int:
            reps, spent = 0, 0.0
            while spent < 0.05:
                spent += replay()
                reps += 1
            return reps

        reps = paused_gc(calibrate)

        def sample() -> tuple[float, float]:
            a = b = 0.0
            for _ in range(reps):
                a += replay()
                b += replay()
            return a, b

        a = b = float("inf")
        for _ in range(3):  # best of 3 per run
            sa, sb = paused_gc(sample)
            a, b = min(a, sa), min(b, sb)
        assert abs(a - b) / max(a, b) < 0.25, (
            f"replay wall-clock unstable: {a:.4f}s vs {b:.4f}s"
        )

    def test_enabled_overhead_is_bounded(self):
        """Even with spans on, stage-granularity collection stays far
        from the replay's own cost (wide 1.5x tolerance)."""
        trace = _cg_trace()
        machine = MachineConfig(bandwidth_mbps=250.0)
        simulate(trace, machine)  # warm

        def best_of(k):
            best = float("inf")
            for _ in range(k):
                t0 = time.perf_counter()
                simulate(trace, machine)
                best = min(best, time.perf_counter() - t0)
            return best

        off = best_of(3)
        obs.enable()
        on = best_of(3)
        obs.disable()
        spans_mod.flush()
        assert on < off * 1.5 + 0.05, (
            f"enabled replay {on:.4f}s vs disabled {off:.4f}s"
        )
