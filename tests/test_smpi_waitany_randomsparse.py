"""Tests of waitany/testall and the RandomSparse fuzz application."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ideal import ideal_transform
from repro.core.transform import overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.smpi import Runtime
from repro.trace.validate import validate
from tests.apps import RandomSparse

CFG = MachineConfig(bandwidth_mbps=100.0, latency=5e-6, buses=4)


class TestWaitany:
    def test_returns_first_completed(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(1, tag=t) for t in (1, 2)]
                i, val = comm.waitany(reqs)
                j, val2 = comm.waitany([reqs[1 - i]])
                return [(i, val), (j, val2)]
            comm.send("second", 0, tag=2)
            comm.send("first", 0, tag=1)
        out = Runtime(2, main).run()[0]
        # tag=2 was sent first; its request completes; ties by index
        vals = {v for _, v in out}
        assert vals == {"first", "second"}

    def test_empty_rejected(self):
        from repro.smpi import RankFailedError
        def main(comm):
            comm.waitany([])
        with pytest.raises(RankFailedError):
            Runtime(1, main).run()

    def test_traced_waitany_validates(self):
        from repro.tracer import run_traced
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(1, tag=t) for t in (1, 2)]
                comm.waitany(reqs)
                comm.waitall([r for r in reqs if not r.done])
            else:
                comm.send(1, 0, tag=1)
                comm.send(2, 0, tag=2)
        tr = run_traced(main, 2).trace
        validate(tr, strict=True)
        assert simulate(tr, CFG).duration >= 0


class TestTestall:
    def test_polling_loop(self):
        def main(comm):
            if comm.rank == 0:
                reqs = [comm.irecv(1, tag=t) for t in (1, 2)]
                assert not comm.testall(reqs)
                comm.send("go", 1)
                comm.recv(1, tag=9)  # yield; rank 1 makes progress
                assert comm.testall(reqs)
                return [r.value for r in reqs]
            comm.recv(0)
            comm.send("x", 0, tag=1)
            comm.send("y", 0, tag=2)
            comm.send(None, 0, tag=9)
        out = Runtime(2, main).run()
        assert out[0] == ["x", "y"]

    def test_traced_testall_validates(self):
        from repro.tracer import run_traced
        def main(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=1)
                comm.recv(1, tag=2)   # yields; rank 1 sends both messages
                assert comm.testall([req])
            else:
                comm.send(5, 0, tag=1)
                comm.send(None, 0, tag=2)
        tr = run_traced(main, 2).trace
        validate(tr, strict=True)


class TestRandomSparse:
    def test_topology_connected_and_deterministic(self):
        import networkx as nx
        app = RandomSparse(seed=3)
        g1, g2 = app.topology(12), app.topology(12)
        assert nx.is_connected(g1)
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_runs_and_validates(self):
        app = RandomSparse(seed=1, iterations=2)
        run = app.trace(nranks=8)
        validate(run.trace, strict=True)
        assert all(r["degree"] >= 1 for r in run.results)

    def test_single_rank(self):
        RandomSparse(seed=0).trace(nranks=1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RandomSparse(degree=0)
        with pytest.raises(ValueError):
            RandomSparse(min_elements=10, max_elements=5)
        with pytest.raises(ValueError):
            RandomSparse(late_production=1.5)

    @given(seed=st.integers(0, 1000), nranks=st.integers(2, 10),
           degree=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_property_pipeline_robust_on_random_graphs(self, seed, nranks, degree):
        """Any random topology survives the full pipeline."""
        app = RandomSparse(seed=seed, degree=degree, iterations=2,
                           max_elements=256, work=200_000)
        tr = app.trace(nranks=nranks).trace
        validate(tr, strict=True)
        base = simulate(tr, CFG).duration
        for transform in (overlap_transform, ideal_transform):
            out, _ = transform(tr)
            validate(out, strict=True)
            assert simulate(out, CFG).duration <= base * 1.5
