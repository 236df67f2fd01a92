"""One parsed frame per datagram: parity with the per-hop re-parsing pipeline.

A link carries a :class:`~repro.netpkt.Frame`; the first switch parses it,
every later hop reuses that parse, and a switch that rewrites headers works
on a private copy.  :class:`ReparsingSwitch` keeps the pipeline this
replaced as the executable reference: every hop parses the bytes it
received, rewrites accumulate on that parse, and every output puts plain
bytes (a fresh, unparsed frame) on the wire.  Driving both over the same
line of switches must deliver the same bytes and count the same packets.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataplane.host
import repro.dataplane.switch
import repro.netpkt.packet
from repro.dataplane import FlowEntry, Link, Match, Network, Output
from repro.dataplane.actions import (
    ALL,
    FLOOD,
    IN_PORT,
    LOCAL,
    TO_CONTROLLER,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlan,
    StripVlan,
)
from repro.dataplane.switch import PacketInReason, SwitchSim
from repro.netpkt import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_LLDP,
    Arp,
    Ethernet,
    Frame,
    Icmp,
    IPv4,
    Lldp,
    MacAddress,
    Tcp,
    Udp,
    ip,
    parse_frame,
)
from repro.netpkt.ethernet import Vlan
from repro.netpkt.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.netpkt.packet import build_frame
from repro.sim import Simulator


class ReparsingSwitch(SwitchSim):
    """The reference pipeline: a parse per hop, bytes on the wire."""

    def ingress(self, port, frame):
        try:
            parsed = parse_frame(frame.raw)
        except ValueError:
            self.rx_errors += 1
            return
        entry = self.table.lookup(parsed.key, port.port_no)
        if entry is None:
            self._punt(port.port_no, frame.raw, PacketInReason.NO_MATCH)
            return
        entry.hit(self.sim.now, len(frame.raw))
        self._apply(entry.actions, parsed, port.port_no)

    def apply_actions(self, actions, frame, in_port):
        self._apply(actions, parse_frame(frame.raw), in_port)

    def _apply(self, actions, parsed, in_port):
        dirty = False
        for action in actions:
            if isinstance(action, Output):
                raw = parsed.repack() if dirty else parsed.raw
                dirty = False
                self._output(action.port, Frame(raw), in_port)
            else:
                action.apply(parsed)
                dirty = True


class Sink:
    """A host-side endpoint that keeps every frame delivered to it."""

    def __init__(self, name):
        self.name = name
        self.link = None
        self.frames = []

    @property
    def endpoint_name(self):
        return self.name

    def handle_frame(self, frame):
        self.frames.append(frame)

    def send(self, raw):
        self.link.transmit(self, Frame(raw))


class RecordingController:
    def __init__(self):
        self.packet_ins = []

    def packet_in(self, switch, in_port, reason, buffer_id, data, total_len):
        self.packet_ins.append((switch.name, in_port, reason, buffer_id, data, total_len))

    def flow_removed(self, switch, entry, reason):
        pass

    def port_status(self, switch, port, reason):
        pass


def _line(switch_cls, tables):
    """s1 - s2 - s3, two sinks on each switch; ``tables[i]`` is s(i+1)'s entries.

    Ports: s1 p1 -> s2, s1 p2/p3 sinks; s2 p1 -> s1, p2 -> s3, p3/p4 sinks;
    s3 p1 -> s2, p2/p3 sinks.
    """
    sim = Simulator()
    switches = [switch_cls(dpid, f"s{dpid}", sim) for dpid in (1, 2, 3)]
    ctl = RecordingController()

    def wire(a, b):
        link = Link(sim, a, b, latency=1e-3)
        a.link = b.link = link

    for left, right in zip(switches, switches[1:]):
        wire(left.add_port(), right.add_port())
    sinks = {}
    for switch in switches:
        for n in range(2):
            sink = sinks[f"{switch.name}h{n}"] = Sink(f"{switch.name}h{n}")
            wire(switch.add_port(), sink)
        switch.controller = ctl
    for switch, entries in zip(switches, tables):
        for match, priority, actions in entries:
            switch.install_flow(FlowEntry(match=match, actions=list(actions), priority=priority))
    return sim, switches, sinks, ctl


MACS = [MacAddress(0x02_00_00_00_00_01 + i) for i in range(3)]
IPS = [ip(f"10.0.0.{i}") for i in range(1, 4)]


def _frames() -> st.SearchStrategy[bytes]:
    eth = st.builds(
        Ethernet,
        dst=st.sampled_from(MACS),
        src=st.sampled_from(MACS),
        eth_type=st.just(0),
        vlan=st.one_of(st.none(), st.builds(Vlan, vid=st.integers(0, 7), pcp=st.integers(0, 7))),
    )
    ipv4 = st.builds(IPv4, src=st.sampled_from(IPS), dst=st.sampled_from(IPS), proto=st.just(0), tos=st.integers(0, 3))
    port = st.integers(1, 3)
    payload = st.binary(max_size=24)

    def framed(eth_type, *layers):
        return st.tuples(eth, *layers).map(lambda parts: _build(eth_type, parts))

    return st.one_of(
        framed(ETH_TYPE_IPV4, ipv4, st.builds(Udp, port, port, payload), st.just(IPPROTO_UDP)),
        framed(ETH_TYPE_IPV4, ipv4, st.builds(Tcp, port, port, payload=payload), st.just(IPPROTO_TCP)),
        framed(ETH_TYPE_IPV4, ipv4, st.builds(Icmp, st.sampled_from([0, 8]), ident=port, seq=port, payload=payload), st.just(IPPROTO_ICMP)),
        framed(ETH_TYPE_ARP, st.builds(Arp.request, st.sampled_from(MACS), st.sampled_from(IPS), st.sampled_from(IPS))),
        framed(ETH_TYPE_LLDP, st.builds(Lldp, chassis_id=st.sampled_from(["s1", "s2"]), port_id=st.sampled_from(["1", "2"]))),
        # Framed but not parseable below layer 2, then not even framed.
        framed(ETH_TYPE_IPV4, st.binary(max_size=30)),
        st.binary(max_size=13),
    )


def _build(eth_type, parts):
    eth, *layers = parts
    eth.eth_type = eth_type
    if eth_type == ETH_TYPE_IPV4 and len(layers) == 3:
        ipv4, inner, proto = layers
        ipv4.proto = proto
        return build_frame(eth, ipv4, inner)
    return build_frame(eth, *layers)


OUTPUTS = [1, 2, 3, 4, FLOOD, ALL, IN_PORT, LOCAL, TO_CONTROLLER]


def _action_lists() -> st.SearchStrategy[list]:
    one = st.one_of(
        st.builds(Output, st.sampled_from(OUTPUTS)),
        st.builds(SetDlSrc, st.sampled_from(MACS)),
        st.builds(SetDlDst, st.sampled_from(MACS)),
        st.builds(SetNwSrc, st.sampled_from(IPS)),
        st.builds(SetNwDst, st.sampled_from(IPS)),
        st.builds(SetTpSrc, st.integers(1, 3)),
        st.builds(SetTpDst, st.integers(1, 3)),
        st.builds(SetVlan, st.integers(1, 5)),
        st.just(StripVlan()),
    )
    return st.lists(one, max_size=6)


def _tables():
    entry = st.tuples(
        st.sampled_from([Match(), Match(dl_type=ETH_TYPE_IPV4), Match(in_port=1), Match(dl_dst=MACS[0]), Match(dl_vlan=3)]),
        st.integers(0, 3),
        _action_lists(),
    )
    return st.lists(st.lists(entry, max_size=3), min_size=3, max_size=3)


def _observe(switches, sinks, ctl):
    """Everything a datagram can change, by endpoint."""
    return {
        "delivered": {name: [frame.raw for frame in sink.frames] for name, sink in sinks.items()},
        "ports": {(sw.name, no): port.counters() for sw in switches for no, port in sw.ports.items()},
        "flows": {sw.name: [(e.packet_count, e.byte_count) for e in sw.table.entries()] for sw in switches},
        "rx_errors": {sw.name: sw.rx_errors for sw in switches},
        "packet_ins": ctl.packet_ins,
    }


#: Events stepped per run: the random tables may loop a frame between switches forever.
STEPS = 300


@settings(max_examples=150, deadline=None)
@given(
    tables=_tables(),
    sends=st.lists(st.tuples(st.sampled_from(["s1h0", "s2h1", "s3h0"]), _frames()), min_size=1, max_size=4),
)
def test_parse_once_matches_the_reparsing_pipeline(tables, sends):
    observed = []
    for switch_cls in (ReparsingSwitch, SwitchSim):
        sim, switches, sinks, ctl = _line(switch_cls, tables)
        for name, raw in sends:
            sinks[name].send(raw)
        for _ in range(STEPS):
            if not sim.step():
                break
        observed.append(_observe(switches, sinks, ctl))
        # A frame's parse, however many hops shared it, is the parse of its bytes.
        for sink in sinks.values():
            for frame in sink.frames:
                try:
                    fresh = parse_frame(frame.raw)
                except ValueError:
                    fresh = None
                if fresh is not None:
                    assert frame.parse() == fresh
                    assert frame.parse().key == fresh.key
    reference, change = observed
    assert change == reference


def test_a_rewrite_on_one_flood_branch_leaves_the_other_alone():
    net = Network(Simulator())
    s1, s2 = net.add_switch("s1"), net.add_switch("s2")
    net.link_switches(s1, s2)  # port 1 on both
    ha, hb, src = net.add_host(), net.add_host(), net.add_host()
    net.attach_host(ha, s1)  # s1 port 2
    net.attach_host(src, s1)  # s1 port 3
    net.attach_host(hb, s2)  # s2 port 2
    s1.install_flow(FlowEntry(match=Match(), actions=[Output(FLOOD)]))
    s2.install_flow(FlowEntry(match=Match(), actions=[SetNwDst(hb.ip), SetDlDst(hb.mac), Output(2)]))
    raw = build_frame(
        Ethernet(dst=ha.mac, src=src.mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=src.ip, dst=ha.ip, proto=IPPROTO_UDP),
        Udp(1, 2, payload=b"both"),
    )
    src.send_raw(raw)
    net.run(0.01)
    assert [frame.raw for frame in ha.received] == [raw]
    assert ha.received[0] == parse_frame(raw)
    assert ha.received[0].ipv4.dst == ha.ip
    assert ha.udp_received[0][1].payload == b"both"
    rewritten = hb.received[0]
    assert rewritten.ipv4.dst == hb.ip and rewritten.eth.dst == hb.mac
    assert rewritten == parse_frame(rewritten.raw)


def test_a_flood_hands_every_port_the_same_frame():
    sim = Simulator()
    switch = SwitchSim(1, "s1", sim)
    sinks = [Sink(f"h{n}") for n in range(3)]
    for sink in sinks:
        link = Link(sim, switch.add_port(), sink)
        link.a.link = sink.link = link
    switch.install_flow(FlowEntry(match=Match(), actions=[Output(FLOOD)]))
    raw = build_frame(Ethernet(dst=MACS[1], src=MACS[0], eth_type=ETH_TYPE_ARP), Arp.request(MACS[0], IPS[0], IPS[1]))
    sinks[0].send(raw)
    sim.run()
    first, second = sinks[1].frames[0], sinks[2].frames[0]
    assert first is second and first.raw == raw


def test_a_datagram_across_five_switches_is_parsed_once(monkeypatch):
    net = Network(Simulator())
    switches = [net.add_switch() for _ in range(5)]
    for left, right in zip(switches, switches[1:]):
        net.link_switches(left, right)
    src, dst = net.add_host(), net.add_host()
    net.attach_host(src, switches[0])
    dst_port = net.attach_host(dst, switches[-1]).port_no
    for i, switch in enumerate(switches):
        # Port 1 faces left (on s1, right); port 2 faces right.
        out = dst_port if switch is switches[-1] else (1 if i == 0 else 2)
        switch.install_flow(FlowEntry(match=Match(nw_dst=f"{dst.ip}/32"), actions=[Output(out)]))
    src.arp_table[dst.ip] = dst.mac
    parses = []

    def counted(raw):
        parses.append(raw)
        return parse_frame(raw)

    for module in (repro.netpkt.packet, repro.dataplane.switch, repro.dataplane.host):
        monkeypatch.setattr(module, "parse_frame", counted)
    src.send_udp(dst.ip, 4000, 5000, b"five hops")
    net.run(0.1)
    assert [datagram.payload for _, datagram in dst.udp_received] == [b"five hops"]
    assert [switch.table.entries()[0].packet_count for switch in switches] == [1] * 5
    assert len(parses) == 1
