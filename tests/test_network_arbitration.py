"""Per-resource network arbitration against a full FIFO rescan.

:class:`~repro.dimemas.network.Network` wakes only the transfers a
release can unblock.  These tests drive it and a reference arbiter that
restarts a FIFO scan at the queue head after every start (the obvious
reading of Dimemas' queueing rule) with the same random traffic, and
require the same replay log: the same queued, start and release
entries, in the same order, at the same times.  A perturbed network
without outages is held to the same log as one that serves its whole
queue in FIFO order on every submit and release.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dimemas.engine import EventLoop
from repro.dimemas.machine import MachineConfig
from repro.dimemas.network import Network, PerturbedNetwork, Transfer
from repro.dimemas.replay import log_entries
from repro.perturb import BandwidthWindow, LatencyWindow, PerturbationSchedule

NRANKS = 5


def _rescan(net):
    """Restart a FIFO scan at the queue head after every start, until
    nothing queued can start."""
    while True:
        for seq, t in net._queue.items():
            if net._resources_free(t):
                break
        else:
            return
        Network._pass(net, [(seq, t)])


class RescanNetwork(Network):
    """Network arbitrated by a full rescan on every submit and release."""

    def _admit(self, transfer):
        # The newcomer joins the tail of the FIFO, so the scan reaches
        # it only once nothing queued ahead of it can start.
        _rescan(self)
        super()._admit(transfer)

    def _wake(self, released):
        _rescan(self)


class FullPassPerturbedNetwork(PerturbedNetwork):
    """A perturbed network that serves its whole queue in FIFO order on
    every submit and release, whether its schedule has outages or not."""

    def _admit(self, transfer):
        self._pass(list(self._queue.items()))
        Network._admit(self, transfer)

    def _wake(self, released=None):
        self._pass(list(self._queue.items()))


def arbitrate(cls, traffic, *args, **platform):
    """Submit ``traffic`` — ``(slot, src, dst, size)`` tuples, a slot
    being 5 us — to ``cls(loop, nranks, cfg, *args)`` and return the
    network and everything it decided."""
    loop = EventLoop()
    cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, **platform)
    net = cls(loop, NRANKS, cfg, *args)
    net.log = []
    transfers = []
    for i, (slot, src, dst, size) in enumerate(traffic):
        tr = Transfer(src=src, dst=dst, size=size, tag=i)
        transfers.append(tr)
        loop.at(slot * 5e-6, net.submit, tr)
    loop.run()
    return net, {
        # Every queued, start and release entry, its transfer named by
        # its tag.
        "log": [(kind, t, tr.tag, *rest)
                for kind, t, tr, *rest in log_entries(net.log)],
        "times": [(t.start_time, t.inject_time, t.arrival_time)
                  for t in transfers],
    }


_message = st.tuples(
    st.integers(0, 6), st.integers(0, NRANKS - 1),
    st.integers(0, NRANKS - 1), st.sampled_from((1000, 2000, 3000)),
).filter(lambda m: m[1] != m[2])


@settings(max_examples=150, deadline=None)
@given(
    traffic=st.lists(_message, min_size=1, max_size=30),
    buses=st.sampled_from((1, 2, 3, None)),
    ports=st.sampled_from((1, 2)),
)
def test_same_schedule_as_full_rescan(traffic, buses, ports):
    platform = dict(buses=buses, input_ports=ports, output_ports=ports)
    net, got = arbitrate(Network, traffic, **platform)
    _ref, want = arbitrate(RescanNetwork, traffic, **platform)
    assert got == want
    assert not net._queue
    assert not any(net._out_wait) and not any(net._in_wait)


@settings(max_examples=100, deadline=None)
@given(
    traffic=st.lists(_message, min_size=1, max_size=30),
    buses=st.sampled_from((1, 2, None)),
    ports=st.sampled_from((1, 2)),
    window=st.tuples(st.integers(0, 8), st.integers(1, 12)),
    factor=st.sampled_from((0.25, 0.5, 3.0)),
    extra=st.sampled_from((0.0, 20e-6)),
)
def test_perturbed_without_outage_arbitrates_per_port(
        traffic, buses, ports, window, factor, extra):
    """Degraded bandwidth and latency spikes free no resource outside a
    release, so the per-port wake decides what a full pass decides."""
    t0, t1 = window[0] * 5e-6, (window[0] + window[1]) * 5e-6
    schedule = PerturbationSchedule(
        bandwidth=(BandwidthWindow(t0, t1, factor),),
        latency=(LatencyWindow(t0, t1, extra),) if extra else (),
    )
    platform = dict(buses=buses, input_ports=ports, output_ports=ports)
    net, got = arbitrate(PerturbedNetwork, traffic, schedule, **platform)
    ref, want = arbitrate(FullPassPerturbedNetwork, traffic, schedule,
                          **platform)
    assert got == want
    assert net.scan_steps <= ref.scan_steps


def test_scan_steps_count_queued_checks_only():
    # One bus, three transfers at t=0: the first starts on submit, and
    # each of the two releases hands the bus to the queue head.
    net, _ = arbitrate(Network, [(0, 0, 1, 1000), (0, 2, 3, 1000),
                                 (0, 0, 2, 1000)], buses=1)
    assert net.scan_steps == 2
