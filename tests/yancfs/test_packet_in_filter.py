"""§3.5 filtered at the source: a buffer's ``user.packet_in.dl_type`` declaration decides what the fan-out writes into it.

The contract is the unfiltered fan-out: over random frames (LLDP, ARP,
IPv4 over UDP, TCP and ICMP, 802.1Q-tagged, unknown ethertypes, headers
too short to decode) and random buffer sets (declarations absent, valid
or garbage), each buffer receives exactly the unfiltered fan-out's
events its declaration admits, in the same order; the backpressure
bound is judged over admitting buffers only; and every in-tree app's
handler does nothing with a frame its declaration withholds.  The
declarations' meaning is stated here structurally, not by parsing the
xattr again.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ArpResponder, DhcpServer, LearningSwitchApp, LoadBalancer, RouterDaemon, TopologyDaemon
from repro.dataplane import build_linear
from repro.netpkt import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_LLDP,
    ETH_TYPE_VLAN,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    Arp,
    Ethernet,
    Icmp,
    IPv4,
    Lldp,
    MacAddress,
    Tcp,
    Udp,
    Vlan,
    ip,
)
from repro.netpkt.packet import build_frame
from repro.runtime import ControllerHost, YancController
from repro.vfs.cred import ROOT
from repro.yancfs import translate
from repro.yancfs.client import DL_TYPE_XATTR, PacketInEvent, YancClient, dl_type_filter, packet_in_files
from repro.yancfs.translate import fan_out_packet_ins

_A, _B = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")

#: frame kind -> (its ethertype, the layers above Ethernet)
_LAYERS = {
    "lldp": (ETH_TYPE_LLDP, lambda: [Lldp(chassis_id="s9", port_id="4")]),
    "arp": (ETH_TYPE_ARP, lambda: [Arp.request(_A, ip("10.0.0.1"), ip("10.0.0.2"))]),
    "udp": (ETH_TYPE_IPV4, lambda: [IPv4(ip("10.0.0.1"), ip("10.0.0.2"), IPPROTO_UDP), Udp(68, 67, payload=b"DISCOVER")]),
    "tcp": (ETH_TYPE_IPV4, lambda: [IPv4(ip("10.0.0.1"), ip("10.0.0.2"), IPPROTO_TCP), Tcp(1000, 80)]),
    "icmp": (ETH_TYPE_IPV4, lambda: [IPv4(ip("10.0.0.1"), ip("10.0.0.2"), IPPROTO_ICMP), Icmp.echo_request(1, 1)]),
}


def _framed(kind: str, vid: int | None) -> tuple[int, bytes]:
    eth_type, layers = _LAYERS[kind]
    return eth_type, build_frame(Ethernet(dst=_B, src=_A, eth_type=eth_type, vlan=None if vid is None else Vlan(vid)), *layers())


#: ``(the ethertype a handler's parse_frame sees, or None: the header does not decode; the frame)``
_FRAMES = st.one_of(
    st.builds(_framed, st.sampled_from(sorted(_LAYERS)), st.none() | st.integers(0, 4095)),
    st.builds(
        lambda eth_type, payload: (eth_type, Ethernet(dst=_B, src=_A, eth_type=eth_type, payload=payload).pack()),
        st.integers(0, 0xFFFF).filter(lambda eth_type: eth_type != ETH_TYPE_VLAN),
        st.binary(max_size=8),
    ),
    st.binary(max_size=13).map(lambda raw: (None, raw)),
    st.just((None, Ethernet(dst=_B, src=_A, eth_type=ETH_TYPE_VLAN).pack())),  # a tag announced, not there
)

_TYPES = st.sampled_from([ETH_TYPE_LLDP, ETH_TYPE_ARP, ETH_TYPE_IPV4]) | st.integers(0, 0xFFFF)
_GARBAGE = [b"", b"!", b"lldp", b"0x", b"0xZZ", b"0x12345", b"88cc", b"0x88cc,", b",0x0800", b"!!0x0800", b"0x0800;0x0806", b"\xff\xfe", b"0x88cc 0x0800"]


_SPELLINGS = ("0x{:x}", "0x{:04X}", "0x{:04x}")


def _valid(exclude: bool, types: list[int], style: int) -> tuple[bytes, tuple[bool, frozenset[int]]]:
    text = ("!" if exclude else "") + (", " if style == 1 else ",").join(_SPELLINGS[style].format(eth_type) for eth_type in types)
    return text.encode(), (exclude, frozenset(types))


#: ``None`` (nothing declared) or ``(the xattr value, its meaning: (exclude, ethertypes), or None for "admits everything")``
_DECLARATIONS = st.one_of(
    st.none(),
    st.builds(_valid, st.booleans(), st.lists(_TYPES, min_size=1, max_size=3), st.integers(0, 2)),
    st.sampled_from(_GARBAGE).map(lambda value: (value, None)),
)


def _admits(declaration, eth_type: int | None) -> bool:
    """What a buffer with this ``_DECLARATIONS`` draw receives."""
    return _means(None if declaration is None else declaration[1], eth_type)


def _means(meaning: tuple[bool, frozenset[int]] | None, eth_type: int | None) -> bool:
    if meaning is None:
        return True
    exclude, types = meaning
    return eth_type is not None and exclude != (eth_type in types)


def _world(declarations: list) -> YancClient:
    """One switch, a buffer per declaration (``b0``, ``b1``, ...), each declaration set as its xattr."""
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    for index, declaration in enumerate(declarations):
        path = yc.subscribe_events("s1", f"b{index}")
        if declaration is not None:
            yc.sc.setxattr(path, DL_TYPE_XATTR, declaration[0])
    return yc


def _publish(yc: YancClient, frames: list[tuple[int | None, bytes]]) -> tuple[int, int]:
    """Each frame through the one fan-out, in order; the summed ``(published, dropped)``."""
    published = dropped = 0
    for seq, (_eth_type, data) in enumerate(frames):
        result = fan_out_packet_ins(yc.sc, yc, [("s1", seq, None, packet_in_files(1, "no_match", 0, len(data), data))])
        published, dropped = published + result[0], dropped + sum(result[1])
    return published, dropped


def _held(yc: YancClient, buffer: str) -> list[tuple[int, bytes]]:
    return [(event.seq, event.data) for event in yc.read_events("s1", buffer, consume=False)]


@settings(max_examples=40, deadline=None)
@given(st.lists(_DECLARATIONS, min_size=1, max_size=4), st.lists(_FRAMES, max_size=8))
def test_each_buffer_gets_what_the_unfiltered_fan_out_gave_it_that_its_declaration_admits(declarations, frames):
    filtered, unfiltered = _world(declarations), _world([None] * len(declarations))
    assert _publish(filtered, frames)[1] == _publish(unfiltered, frames)[1] == 0
    withheld = 0
    for index, declaration in enumerate(declarations):
        admitted = {seq for seq, (eth_type, _data) in enumerate(frames) if _admits(declaration, eth_type)}
        assert _held(filtered, f"b{index}") == [event for event in _held(unfiltered, f"b{index}") if event[0] in admitted]
        withheld += len(frames) - len(admitted)
    counters = filtered.sc.vfs.counters
    assert counters.get(f"events.filtered.{filtered.sc.proc_name}") == withheld
    assert unfiltered.sc.vfs.counters.get(f"events.filtered.{unfiltered.sc.proc_name}") == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(_DECLARATIONS, min_size=1, max_size=4), st.lists(_FRAMES, max_size=8), st.integers(1, 3))
def test_the_bound_is_judged_over_admitting_buffers_only(declarations, frames, bound):
    """A buffer keeps the first ``bound`` frames it admits; only an admitted frame it had no room for is a drop."""
    yc = _world(declarations)
    with mock.patch.object(translate, "MAX_PENDING_EVENTS", bound):
        published, dropped = _publish(yc, frames)
    expected_dropped = 0
    for index, declaration in enumerate(declarations):
        admitted = [(seq, data) for seq, (eth_type, data) in enumerate(frames) if _admits(declaration, eth_type)]
        assert _held(yc, f"b{index}") == admitted[:bound]
        expected_dropped += max(0, len(admitted) - bound)
    assert dropped == expected_dropped == yc.sc.vfs.counters.get(f"events.dropped.{yc.sc.proc_name}")
    assert published == sum(len(_held(yc, f"b{index}")) for index in range(len(declarations)))


#: What each in-tree app's handler tests, as ``(exclude, ethertypes)``.
_APP_DECLARATIONS = {
    TopologyDaemon: (False, frozenset({ETH_TYPE_LLDP})),
    ArpResponder: (False, frozenset({ETH_TYPE_ARP})),
    RouterDaemon: (True, frozenset({ETH_TYPE_LLDP})),
    LearningSwitchApp: (True, frozenset({ETH_TYPE_LLDP})),
    DhcpServer: (False, frozenset({ETH_TYPE_IPV4})),
    LoadBalancer: (False, frozenset({ETH_TYPE_IPV4})),
}


def test_every_in_tree_app_declares_what_its_handler_tests():
    assert {cls: dl_type_filter(cls.dl_types.encode()) for cls in _APP_DECLARATIONS} == _APP_DECLARATIONS


@settings(max_examples=15, deadline=None)
@given(st.lists(_FRAMES, min_size=1, max_size=12))
def test_no_in_tree_handler_acts_on_a_frame_its_declaration_withholds(frames):
    ctl = YancController(build_linear(2)).start()
    extra = {LoadBalancer: {"vip": "10.0.0.2"}, RouterDaemon: {"record_hosts": False}}
    apps = [cls(ctl.host.process(), ctl.sim, **extra.get(cls, {})).start() for cls in _APP_DECLARATIONS]
    ctl.run(0.1)
    switch = ctl.fs_name_of("sw1")
    for app in apps:
        for seq, (eth_type, data) in enumerate(frames):
            if _means(_APP_DECLARATIONS[type(app)], eth_type):
                continue
            state, counters = repr(sorted(vars(app).items())), app.sc.meter.counters.snapshot()
            app.handle_packet_in(PacketInEvent(switch=switch, seq=seq, in_port=1, reason="no_match", buffer_id=0, total_len=len(data), data=data))
            assert app.sc.meter.counters.snapshot().delta(counters) == {}, type(app).__name__
            assert repr(sorted(vars(app).items())) == state, type(app).__name__


# -- the grammar --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, meaning",
    [
        (b"0x88cc", (False, {ETH_TYPE_LLDP})),
        (b"!0x88cc", (True, {ETH_TYPE_LLDP})),
        (b"0x0800,0x0806", (False, {ETH_TYPE_IPV4, ETH_TYPE_ARP})),
        (b"!0x800, 0x806\n", (True, {ETH_TYPE_IPV4, ETH_TYPE_ARP})),  # whitespace is not part of the value
        (b"0X88CC", None),
        (b"88cc", None),
        (b"0x12345", None),
        (b"0x88cc,", None),
        (b"!", None),
        (b"", None),
        (b"lldp", None),
        (b"\xff", None),
    ],
)
def test_a_declaration_parses_to_its_meaning_or_admits_everything(value, meaning):
    assert dl_type_filter(value) == (None if meaning is None else (meaning[0], frozenset(meaning[1])))


def test_subscribing_an_existing_buffer_keeps_its_events_and_declares_in_two_syscalls():
    """EAFP: the ``mkdir`` that finds the buffer costs what the ``exists`` it replaces did."""
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    path = yc.subscribe_events("s1", "arpd")
    yc.write_packet_in("s1", "arpd", 1, in_port=1, reason="no_match", buffer_id=0, total_len=1, data=b"x")
    before = yc.sc.meter.counters.snapshot()
    assert yc.subscribe_events("s1", "arpd", "0x0806") == path
    assert {name: count for name, count in yc.sc.meter.counters.snapshot().delta(before).items() if name.startswith("syscall.")} == {
        "syscall.mkdir": 1,
        "syscall.setxattr": 1,
        "syscall.total": 2,
    }
    assert yc.sc.getxattr(path, DL_TYPE_XATTR) == b"0x0806"
    assert [event.seq for event in yc.read_events("s1", "arpd", consume=False)] == [1]
    yc.subscribe_events("s1", "arpd")  # declaring nothing leaves the declaration
    assert yc.sc.getxattr(path, DL_TYPE_XATTR) == b"0x0806"
