"""The switch pipeline: forwarding, punts, buffers, ports."""

import pytest

from repro.dataplane import (
    FLOOD,
    TO_CONTROLLER,
    FlowEntry,
    FlowRemovedReason,
    Match,
    Network,
    Output,
    PacketInReason,
    SetNwDst,
)
from repro.dataplane.switch import NO_BUFFER
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, Frame, IPv4, MacAddress, Udp, ip, parse_frame
from repro.netpkt.packet import build_frame
from repro.sim import Simulator


class RecordingController:
    """Captures the hooks a driver would receive."""

    def __init__(self):
        self.packet_ins = []
        self.removed = []
        self.port_events = []

    def packet_in(self, switch, in_port, reason, buffer_id, data, total_len):
        self.packet_ins.append((switch.name, in_port, reason, buffer_id, data, total_len))

    def flow_removed(self, switch, entry, reason):
        self.removed.append((switch.name, entry, reason))

    def port_status(self, switch, port, reason):
        self.port_events.append((switch.name, port.port_no, reason))


def _udp_frame(dst_ip="10.0.0.2", payload=b"x", dst_mac=None):
    return build_frame(
        Ethernet(dst=dst_mac or MacAddress(2), src=MacAddress(1), eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("10.0.0.1"), dst=ip(dst_ip), proto=17),
        Udp(src_port=1, dst_port=2, payload=payload),
    )


@pytest.fixture
def wired():
    """Two switches joined by a link, a host port on each side."""
    net = Network(Simulator())
    a = net.add_switch("a")
    b = net.add_switch("b")
    net.link_switches(a, b)  # port 1 on both
    ha = net.add_host()
    hb = net.add_host()
    net.attach_host(ha, a)  # port 2 on a
    net.attach_host(hb, b)  # port 2 on b
    return net, a, b, ha, hb


def test_miss_punts_to_controller(wired):
    net, a, _b, ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert len(ctl.packet_ins) == 1
    name, in_port, reason, buffer_id, data, total_len = ctl.packet_ins[0]
    assert (name, in_port, reason) == ("a", 2, PacketInReason.NO_MATCH)
    assert buffer_id != NO_BUFFER
    assert total_len == len(_udp_frame())


def test_miss_without_controller_drops(wired):
    net, a, _b, ha, hb = wired
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert hb.rx_frames == 0


def test_matching_entry_forwards(wired):
    net, a, b, ha, hb = wired
    for sw in (a, b):
        sw.install_flow(FlowEntry(match=Match(), actions=[Output(FLOOD)], priority=1))
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert hb.rx_frames == 1


def test_flood_excludes_ingress_and_down_ports(wired):
    net, a, _b, ha, _hb = wired
    a.install_flow(FlowEntry(match=Match(), actions=[Output(FLOOD)], priority=1))
    a.ports[1].set_admin_up(False)
    before = a.ports[1].tx_packets
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert a.ports[1].tx_packets == before  # down port skipped
    assert a.ports[2].tx_packets == 0  # ingress skipped


def test_action_rewrite_then_output(wired):
    net, a, _b, ha, hb = wired
    a.install_flow(FlowEntry(match=Match(), actions=[SetNwDst(ip("9.9.9.9")), Output(1)], priority=1))
    _b, b = None, net.switches["b"]
    b.install_flow(FlowEntry(match=Match(), actions=[Output(2)], priority=1))
    ha.send_raw(_udp_frame(dst_mac=hb.mac))
    net.run(0.01)
    assert hb.rx_frames == 1
    assert parse_frame(hb.received[-1].raw).key.nw_dst == ip("9.9.9.9")


def test_output_to_controller_action(wired):
    net, a, _b, ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    a.install_flow(FlowEntry(match=Match(), actions=[Output(TO_CONTROLLER)], priority=1))
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert ctl.packet_ins[0][2] == PacketInReason.ACTION


def test_counters_on_hit(wired):
    net, a, _b, ha, _hb = wired
    entry = a.install_flow(FlowEntry(match=Match(), actions=[Output(1)], priority=1))
    ha.send_raw(_udp_frame())
    ha.send_raw(_udp_frame(payload=b"yy"))
    net.run(0.01)
    assert entry.packet_count == 2
    assert entry.byte_count > 0


def test_buffered_packet_released_by_flow_install(wired):
    net, a, _b, ha, hb = wired
    ctl = RecordingController()
    a.controller = ctl
    ha.send_raw(_udp_frame())
    net.run(0.01)
    buffer_id = ctl.packet_ins[0][3]
    a.install_flow(FlowEntry(match=Match(), actions=[Output(1)], priority=1), buffer_id=buffer_id)
    net.switches["b"].install_flow(FlowEntry(match=Match(), actions=[Output(2)], priority=1))
    net.run(0.01)
    assert hb.rx_frames == 1


def test_packet_out_with_raw_data(wired):
    net, a, _b, _ha, hb = wired
    a.install_flow(FlowEntry(match=Match(), actions=[], priority=1))  # drop everything inline
    net.switches["b"].install_flow(FlowEntry(match=Match(), actions=[Output(2)], priority=1))
    a.packet_out([Output(1)], data=_udp_frame())
    net.run(0.01)
    assert hb.rx_frames == 1


def test_packet_out_unknown_buffer_is_noop(wired):
    net, a, _b, _ha, hb = wired
    a.packet_out([Output(1)], buffer_id=12345)
    net.run(0.01)
    assert hb.rx_frames == 0


def test_expiry_sweep_notifies(wired):
    net, a, _b, _ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    a.install_flow(FlowEntry(match=Match(), actions=[Output(1)], priority=1, hard_timeout=0.5))
    a.start_expiry(interval=0.25)
    net.run(1.0)
    assert len(ctl.removed) == 1
    assert ctl.removed[0][2] is FlowRemovedReason.HARD_TIMEOUT
    a.stop_expiry()


def test_port_status_hooks(wired):
    _net, a, _b, _ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    port = a.add_port()
    port.set_admin_up(False)
    assert ("a", port.port_no, "add") in ctl.port_events
    assert ("a", port.port_no, "modify") in ctl.port_events


def test_admin_down_port_drops_rx(wired):
    net, a, _b, ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    a.ports[2].set_admin_up(False)
    ha.send_raw(_udp_frame())
    net.run(0.01)
    assert ctl.packet_ins == []


def test_duplicate_port_number_rejected(wired):
    _net, a, *_ = wired
    with pytest.raises(ValueError):
        a.add_port(1)


def test_malformed_frame_counted_not_crashing(wired):
    net, a, _b, _ha, _hb = wired
    a.ports[2].handle_frame(Frame(b"\x01"))
    assert a.rx_errors == 1


def test_delete_flows_with_notify(wired):
    _net, a, _b, _ha, _hb = wired
    ctl = RecordingController()
    a.controller = ctl
    a.install_flow(FlowEntry(match=Match(tp_dst=22), actions=[Output(1)], priority=5))
    count = a.delete_flows(Match(), notify=True)
    assert count == 1
    assert ctl.removed[0][2] is FlowRemovedReason.DELETE
