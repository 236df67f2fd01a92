"""Links: latency, up/down, endpoint wiring."""

import pytest

from repro.dataplane import Link, Network
from repro.netpkt import Frame
from repro.sim import Simulator


class SinkEndpoint:
    def __init__(self, name):
        self.name = name
        self.frames = []

    @property
    def endpoint_name(self):
        return self.name

    def handle_frame(self, frame):
        self.frames.append(frame.raw)


def test_transmit_both_directions():
    sim = Simulator()
    a, b = SinkEndpoint("a"), SinkEndpoint("b")
    link = Link(sim, a, b)
    link.transmit(a, Frame(b"to-b"))
    link.transmit(b, Frame(b"to-a"))
    sim.run()
    assert b.frames == [b"to-b"]
    assert a.frames == [b"to-a"]
    assert link.tx_frames == 2


def test_latency_delays_delivery():
    sim = Simulator()
    a, b = SinkEndpoint("a"), SinkEndpoint("b")
    link = Link(sim, a, b, latency=0.25)
    link.transmit(a, Frame(b"x"))
    sim.run_until(0.2)
    assert b.frames == []
    sim.run_until(0.3)
    assert b.frames == [b"x"]


def test_down_link_drops_and_counts():
    sim = Simulator()
    a, b = SinkEndpoint("a"), SinkEndpoint("b")
    link = Link(sim, a, b)
    link.set_up(False)
    link.transmit(a, Frame(b"lost"))
    sim.run()
    assert b.frames == []
    assert link.dropped_frames == 1
    link.set_up(True)
    link.transmit(a, Frame(b"ok"))
    sim.run()
    assert b.frames == [b"ok"]


def test_peer_of_and_foreign_endpoint():
    sim = Simulator()
    a, b, c = SinkEndpoint("a"), SinkEndpoint("b"), SinkEndpoint("c")
    link = Link(sim, a, b)
    assert link.peer_of(a) is b
    assert link.peer_of(b) is a
    with pytest.raises(ValueError):
        link.peer_of(c)


def test_negative_latency_rejected():
    sim = Simulator()
    a, b = SinkEndpoint("a"), SinkEndpoint("b")
    with pytest.raises(ValueError):
        Link(sim, a, b, latency=-1)


def test_repr_shows_endpoints_and_state():
    sim = Simulator()
    a, b = SinkEndpoint("a"), SinkEndpoint("b")
    link = Link(sim, a, b)
    assert "a <-> b" in repr(link) and "up" in repr(link)
    link.set_up(False)
    assert "down" in repr(link)


def test_network_default_latency_applies():
    net = Network(Simulator(), default_latency=0.123)
    s1, s2 = net.add_switch(), net.add_switch()
    net.link_switches(s1, s2)
    assert net.links[0].latency == 0.123
    net.link_switches(s1, s2, latency=0.5)
    assert net.links[1].latency == 0.5
