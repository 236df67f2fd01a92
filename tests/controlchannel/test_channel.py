"""Control-channel byte streams."""

from repro.controlchannel import connect
from repro.perf import PerfCounters
from repro.sim import Simulator


def test_bidirectional_delivery():
    sim = Simulator()
    a, b = connect(sim)
    a.send(b"to-b")
    b.send(b"to-a")
    sim.run_for(0.01)
    assert b.drain() == b"to-b"
    assert a.drain() == b"to-a"


def test_in_order_delivery():
    sim = Simulator()
    a, b = connect(sim)
    for index in range(10):
        a.send(bytes([index]))
    sim.run_for(0.01)
    assert b.drain() == bytes(range(10))


def test_latency_applies():
    sim = Simulator()
    a, b = connect(sim, latency=0.5)
    a.send(b"x")
    sim.run_for(0.4)
    assert b.rx_buffer == b""
    sim.run_for(0.2)
    assert b.drain() == b"x"


def test_handler_consumes_instead_of_buffering():
    sim = Simulator()
    a, b = connect(sim)
    seen = []
    b.on_data = seen.append
    a.send(b"handled")
    sim.run_for(0.01)
    assert seen == [b"handled"]
    assert b.rx_buffer == b""


def test_close_stops_both_directions():
    sim = Simulator()
    a, b = connect(sim)
    a.close()
    a.send(b"lost")
    b.send(b"also lost")
    sim.run_for(0.01)
    assert a.drain() == b"" and b.drain() == b""


def test_in_flight_data_dropped_on_close():
    sim = Simulator()
    a, b = connect(sim, latency=0.5)
    a.send(b"in flight")
    b.close()
    sim.run_for(1.0)
    assert b.drain() == b""


def test_a_close_delivers_what_was_already_sent():
    """The closing end stops at once; the peer receives what was sent before the close, then hangs up."""
    sim = Simulator()
    a, b = connect(sim, latency=0.5)
    a.send(b"last words")
    a.close()
    assert b.connected
    sim.run_for(1.0)
    assert b.drain() == b"last words" and not b.connected
    b.send(b"too late")
    sim.run_for(1.0)
    assert a.drain() == b"" and b.tx_bytes == 0


def test_counters_track_traffic():
    sim = Simulator()
    counters = PerfCounters()
    a, b = connect(sim, counters=counters)
    a.send(b"12345")
    sim.run_for(0.01)
    assert counters.get("openflow.tx") == 1
    assert counters.get("openflow.rx") == 1
    assert counters.get("openflow.tx_bytes") == 5
    assert a.tx_bytes == 5 and b.rx_bytes == 5
