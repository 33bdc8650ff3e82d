"""Unit tests of the event loop and the network resource model."""

import pytest

from repro.dimemas.engine import EventLoop
from repro.dimemas.machine import MachineConfig
from repro.dimemas.network import Network, Transfer


def nothing(_arg) -> None:
    """An event that does nothing with its argument."""


class TestEventLoop:
    def test_time_order(self):
        loop, out = EventLoop(), []
        loop.at(2e-6, out.append, "b")
        loop.at(1e-6, out.append, "a")
        loop.run()
        assert out == ["a", "b"]

    def test_fifo_on_ties(self):
        loop, out = EventLoop(), []
        for k in range(5):
            loop.at(1e-6, out.append, k)
        loop.run()
        assert out == [0, 1, 2, 3, 4]

    def test_events_carry_their_argument(self):
        # Two events at one time run in push order, each called with
        # its own argument; ``after`` passes its argument on.
        loop, seen = EventLoop(), []

        def note(tag):
            seen.append((tag, loop.now))

        def chain(tag):
            note(tag)
            loop.after(2e-6, note, tag + "-later")

        loop.at(1e-6, chain, "first")
        loop.at(1e-6, note, "second")
        loop.run()
        assert seen == [("first", 1e-6), ("second", 1e-6),
                        ("first-later", 1e-6 + 2e-6)]

    def test_now_advances(self):
        loop = EventLoop()
        seen = []
        loop.at(5e-6, lambda _: seen.append(loop.now), None)
        end = loop.run()
        assert seen == [5e-6] and end == 5e-6

    def test_after_relative(self):
        loop, seen = EventLoop(), []
        def first(_):
            loop.after(3e-6, lambda _: seen.append(loop.now), None)
        loop.at(1e-6, first, None)
        loop.run()
        assert seen == [pytest.approx(4e-6)]

    def test_scheduling_into_past_rejected(self):
        loop = EventLoop()
        loop.at(1e-3, nothing, None)
        def bad(_):
            loop.at(0.0, nothing, None)
        loop.at(2e-3, bad, None)
        with pytest.raises(ValueError, match="past"):
            loop.run()

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().at(float("nan"), nothing, None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventLoop().after(-1.0, nothing, None)

    def test_executed_counter(self):
        loop = EventLoop()
        for _ in range(3):
            loop.at(0.0, nothing, None)
        loop.run()
        assert loop.executed == 3 and loop.pending == 0


def make_net(loop, nranks=4, **over):
    cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, **over)
    return Network(loop, nranks, cfg), cfg


class TestNetwork:
    def test_uncontended_transfer_timing(self):
        loop = EventLoop()
        net, cfg = make_net(loop)
        tr = Transfer(src=0, dst=1, size=1000)
        times = {}
        tr.on_arrived(lambda t: times.__setitem__("arr", t))
        loop.at(0.0, net.submit, tr)
        loop.run()
        assert tr.inject_time == pytest.approx(10e-6)   # 1000 B / 100 MB/s
        assert times["arr"] == pytest.approx(20e-6)     # + 10 us latency

    def test_zero_size_costs_latency_only(self):
        loop = EventLoop()
        net, _ = make_net(loop)
        tr = Transfer(src=0, dst=1, size=0)
        arr = []
        tr.on_arrived(arr.append)
        loop.at(0.0, net.submit, tr)
        loop.run()
        assert arr == [pytest.approx(10e-6)]

    def test_self_message_is_instant(self):
        loop = EventLoop()
        net, _ = make_net(loop)
        tr = Transfer(src=2, dst=2, size=4096)
        arr = []
        tr.on_arrived(arr.append)
        loop.at(0.0, net.submit, tr)
        loop.run()
        assert arr == [pytest.approx(0.0)]

    def test_in_port_serializes_same_destination(self):
        loop = EventLoop()
        net, _ = make_net(loop)
        t1 = Transfer(src=0, dst=2, size=1000)
        t2 = Transfer(src=1, dst=2, size=1000)
        arr = {}
        t1.on_arrived(lambda t: arr.__setitem__(1, t))
        t2.on_arrived(lambda t: arr.__setitem__(2, t))
        for t in (t1, t2):
            loop.at(0.0, net.submit, t)
        loop.run()
        assert arr[1] == pytest.approx(20e-6)
        assert arr[2] == pytest.approx(30e-6)  # queued 10 us on the in-port

    def test_out_port_serializes_same_source(self):
        loop = EventLoop()
        net, _ = make_net(loop)
        t1 = Transfer(src=0, dst=1, size=1000)
        t2 = Transfer(src=0, dst=2, size=1000)
        arr = {}
        t1.on_arrived(lambda t: arr.__setitem__(1, t))
        t2.on_arrived(lambda t: arr.__setitem__(2, t))
        for t in (t1, t2):
            loop.at(0.0, net.submit, t)
        loop.run()
        assert sorted(arr.values()) == [pytest.approx(20e-6), pytest.approx(30e-6)]

    def test_single_bus_serializes_disjoint_pairs(self):
        loop = EventLoop()
        net, _ = make_net(loop, buses=1)
        t1 = Transfer(src=0, dst=1, size=1000)
        t2 = Transfer(src=2, dst=3, size=1000)
        arr = {}
        t1.on_arrived(lambda t: arr.__setitem__(1, t))
        t2.on_arrived(lambda t: arr.__setitem__(2, t))
        for t in (t1, t2):
            loop.at(0.0, net.submit, t)
        loop.run()
        assert arr[1] == pytest.approx(20e-6) and arr[2] == pytest.approx(30e-6)

    def test_two_buses_allow_parallel_disjoint_pairs(self):
        loop = EventLoop()
        net, _ = make_net(loop, buses=2)
        t1 = Transfer(src=0, dst=1, size=1000)
        t2 = Transfer(src=2, dst=3, size=1000)
        arr = {}
        t1.on_arrived(lambda t: arr.__setitem__(1, t))
        t2.on_arrived(lambda t: arr.__setitem__(2, t))
        for t in (t1, t2):
            loop.at(0.0, net.submit, t)
        loop.run()
        assert arr[1] == arr[2] == pytest.approx(20e-6)

    def test_port_blocked_transfer_does_not_block_others(self):
        """FIFO with per-resource pass: a later transfer on free ports
        may start while the head waits for a busy port."""
        loop = EventLoop()
        net, _ = make_net(loop, buses=10)
        a = Transfer(src=0, dst=1, size=2000)   # occupies 0->1 for 20 us
        b = Transfer(src=0, dst=2, size=1000)   # blocked on out-port of 0
        c = Transfer(src=3, dst=2, size=1000)   # free to go
        arr = {}
        for key, t in (("a", a), ("b", b), ("c", c)):
            t.on_arrived(lambda tt, key=key: arr.__setitem__(key, tt))
        for t in (a, b, c):
            loop.at(0.0, net.submit, t)
        loop.run()
        assert arr["a"] == pytest.approx(30e-6)
        assert arr["c"] == pytest.approx(20e-6)   # went ahead of b
        assert arr["b"] == pytest.approx(40e-6)

    def test_waiters_after_completion_fire_immediately(self):
        loop = EventLoop()
        net, _ = make_net(loop)
        tr = Transfer(src=0, dst=1, size=0)
        loop.at(0.0, net.submit, tr)
        loop.run()
        got = []
        tr.on_arrived(got.append)
        assert got == [tr.arrival_time]

    def test_diagnostics(self):
        loop = EventLoop()
        net, _ = make_net(loop, buses=2)
        for (s, d) in ((0, 1), (2, 3)):
            loop.at(0.0, net.submit, Transfer(src=s, dst=d, size=1000))
        loop.run()
        assert net.peak_active == 2
        assert net.busy_seconds == pytest.approx(20e-6)


class TestMachineConfig:
    def test_paper_testbed_values(self):
        cfg = MachineConfig.paper_testbed("cg")
        assert cfg.bandwidth_mbps == 250.0 and cfg.buses == 6

    def test_paper_testbed_unknown_app(self):
        with pytest.raises(KeyError):
            MachineConfig.paper_testbed("linpack")

    def test_linear_cost(self):
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=5e-6)
        assert cfg.linear_cost(1000) == pytest.approx(15e-6)

    def test_with_bandwidth(self):
        cfg = MachineConfig(buses=7).with_bandwidth(10.0)
        assert cfg.bandwidth_mbps == 10.0 and cfg.buses == 7

    @pytest.mark.parametrize("kw", [
        {"bandwidth_mbps": 0}, {"latency": -1}, {"buses": 0},
        {"input_ports": 0}, {"cpu_ratio": 0}, {"eager_threshold": -1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            MachineConfig(**kw)

    # Every validated field, with the message its out-of-range values
    # get: NaN compares false to any bound, so it must fail the test in
    # its positive form rather than slip past ``x <= 0``.
    @pytest.mark.parametrize("field, message", [
        ("bandwidth_mbps", "bandwidth must be positive"),
        ("latency", "latency must be >= 0"),
        ("buses", "buses must be >= 1 or None"),
        ("input_ports", "port counts must be >= 1"),
        ("output_ports", "port counts must be >= 1"),
        ("cpu_ratio", "cpu_ratio must be positive"),
        ("cores_per_node", "cores_per_node must be >= 1"),
        ("intra_latency", "intra_latency must be >= 0"),
        ("intra_bandwidth_mbps", "intra_bandwidth_mbps must be positive or None"),
        ("eager_threshold", "eager_threshold must be >= 0"),
        ("max_events", "max_events must be >= 1 or None"),
        ("max_sim_time", "max_sim_time must be positive or None"),
    ])
    def test_nan_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            MachineConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", [
        "bandwidth_mbps", "latency", "buses", "input_ports", "output_ports",
        "cpu_ratio", "cores_per_node", "intra_latency",
        "intra_bandwidth_mbps", "eager_threshold", "max_events",
        "max_sim_time",
    ])
    def test_infinity_stays_legal(self, field):
        assert getattr(MachineConfig(**{field: float("inf")}), field) == float("inf")
