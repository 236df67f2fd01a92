"""Lost framing on the control channel: both ends drop the bytes and go on.

An OpenFlow header's length counts the header itself, so a length below 8
cannot start a message: the stream's framing is lost.  Each end answers
with one ``BAD_REQUEST``/``BAD_LEN`` error, drops what it has buffered,
counts the loss and returns.  Before, a zero length left the buffer as it
was and the reassembly loop never ended, taking every other switch's
session down with it.  Every test here runs under an alarm, so a hang fails
the test instead of the suite.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controlchannel import connect
from repro.dataplane import Match, Network, Output, build_linear
from repro.openflow import SwitchAgent
from repro.openflow import messages as m
from repro.openflow import of10
from repro.openflow.codec import decode_any
from repro.runtime import YancController
from repro.sim import Simulator

ZERO_LENGTH = b"\x01\x00\x00\x00\x00\x00\x00\x01"


class Hang(Exception):
    """The code under test did not return in time."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`Hang` in the body after ``seconds`` of wall time."""

    def fire(_signum, _frame):
        raise Hang(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _agent_rig():
    sim = Simulator()
    switch = Network(sim).add_switch("s")
    driver_end, agent_end = connect(sim)
    return sim, SwitchAgent(switch, agent_end), driver_end


def _decode_all(data: bytes) -> list[m.Message]:
    out = []
    while data:
        msg, _version, data = decode_any(data)
        out.append(msg)
    return out


def test_the_agent_drops_a_zero_length_header_with_one_bad_len_error():
    sim, agent, driver_end = _agent_rig()
    with deadline(2):
        agent._on_data(ZERO_LENGTH + b"more bytes that cannot be framed")
    assert agent.errors_sent == 1 and agent._rx == b""
    driver_end.send(of10.encode(m.Hello(version=1)))
    driver_end.send(of10.encode(m.FeaturesRequest(xid=5)))
    sim.run_for(0.01)
    received = _decode_all(driver_end.drain())
    errors = [msg for msg in received if isinstance(msg, m.ErrorMsg)]
    assert [(e.err_type, e.err_code) for e in errors] == [(m.OFPET_BAD_REQUEST, m.OFPBRC_BAD_LEN)]
    assert errors[0].data.startswith(ZERO_LENGTH)
    assert any(isinstance(msg, m.FeaturesReply) and msg.xid == 5 for msg in received)


def test_every_short_length_loses_the_framing_once():
    for length in range(8):
        _sim, agent, _driver_end = _agent_rig()
        header = bytes([1, 2]) + length.to_bytes(2, "big") + b"\x00\x00\x00\x07"
        with deadline(2):
            agent._on_data(header + b"\x01\x02\x00\x08\x00\x00\x00\x09")
        assert agent.errors_sent == 1 and agent._rx == b"", length


def test_the_driver_drops_a_zero_length_header_and_counts_it():
    ctl = YancController(build_linear(1)).start()
    driver = ctl.drivers[0]
    binding = driver.bindings[1]
    with deadline(5):
        binding.on_data(ZERO_LENGTH)
        ctl.run(0.05)
    assert binding.framing_errors == 1 and binding._rx == b""
    assert f"openflow.framing_lost.{driver.proc_name} 1\n" in ctl.host.root_sc.read_text("/proc/counters")
    # the session goes on: a committed flow still reaches the switch
    ctl.client().create_flow("sw1", "f", Match(dl_type=0x800), [Output(1)], priority=7)
    with deadline(5):
        ctl.run(0.2)
    assert [e.priority for e in ctl.net.switches["sw1"].table.entries()] == [7]


#: Raw bytes interleaved with well-framed messages of either version whose
#: type and body are arbitrary, so decodable hostile messages occur too.
_FRAMED = st.builds(
    lambda version, msg_type, body: bytes([version, msg_type]) + (len(body) + 8).to_bytes(2, "big") + b"\0\0\0\1" + body,
    st.sampled_from([1, 4]),
    st.integers(min_value=0, max_value=30),
    st.binary(max_size=80),
)
_STREAMS = st.lists(st.one_of(_FRAMED, st.binary(max_size=24)), max_size=4).map(b"".join)
_CUTS = st.lists(st.integers(min_value=0, max_value=400), max_size=6)


def _chunked(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[a:b] for a, b in zip(points, points[1:])]


@settings(max_examples=150, deadline=None)
@given(data=_STREAMS, cuts=_CUTS)
@example(data=ZERO_LENGTH * 2, cuts=[3, 9])
def test_the_agent_returns_from_any_bytes_in_any_chunking(data, cuts):
    sim, agent, _driver_end = _agent_rig()
    with deadline(2):
        for chunk in _chunked(data, cuts):
            agent._on_data(chunk)
        sim.run_for(0.01)
    assert len(agent._rx) < 8 or len(agent._rx) < int.from_bytes(agent._rx[2:4], "big")  # only a partial message waits


@settings(max_examples=60, deadline=None)
@given(data=_STREAMS, cuts=_CUTS)
@example(data=ZERO_LENGTH * 2, cuts=[3, 9])
def test_the_driver_returns_from_any_bytes_in_any_chunking(data, cuts):
    ctl = YancController(build_linear(1)).start()
    binding = ctl.drivers[0].bindings[1]
    with deadline(5):
        for chunk in _chunked(data, cuts):
            binding.on_data(chunk)
        ctl.run(0.05)
    assert len(binding._rx) < 8 or len(binding._rx) < int.from_bytes(binding._rx[2:4], "big")


def test_garbage_on_one_switch_leaves_the_others_flowing():
    ctl = YancController(build_linear(3)).start()
    driver = ctl.drivers[0]
    yc = ctl.client()
    for name in ("sw1", "sw2", "sw3"):
        yc.subscribe_events(name, "watcher")
    garbled = driver.bindings[1]
    hosts = list(ctl.net.hosts.values())
    packet_ins, flow_mods = driver.packet_ins_handled, driver.flow_mods_sent
    with deadline(10):
        garbled.agent.conn.send(ZERO_LENGTH)  # sw1's side of the channel sends garbage
        hosts[1].send_udp(hosts[2].ip, 1, 2, b"to sw3")  # a table miss at sw2
        yc.create_flow("sw3", "f", Match(dl_type=0x800), [Output(1)], priority=9)
        ctl.run(0.5)
    assert garbled.framing_errors == 1
    assert driver.packet_ins_handled > packet_ins
    assert yc.sc.listdir(yc.events_path("sw2", "watcher"))
    assert driver.flow_mods_sent > flow_mods
    assert [e.priority for e in ctl.net.switches["sw3"].table.entries()] == [9]
    # the garbled switch's own session reads on from the next message
    yc.create_flow("sw1", "g", Match(dl_type=0x806), [Output(1)], priority=4)
    with deadline(10):
        ctl.run(0.5)
    assert [e.priority for e in ctl.net.switches["sw1"].table.entries()] == [4]
