"""Hosts (ARP/ping/UDP) and topology builders."""

import pytest

from repro.dataplane import (
    FLOOD,
    FlowEntry,
    Match,
    Network,
    Output,
    build_fat_tree,
    build_linear,
    build_ring,
    build_tree,
)
from repro.sim import Simulator


def _flood_everything(net: Network) -> None:
    for switch in net.switches.values():
        switch.install_flow(FlowEntry(match=Match(), actions=[Output(FLOOD)], priority=1))


def test_hosts_resolve_arp_then_ping():
    net = build_linear(2)
    _flood_everything(net)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    seq = h1.ping(h2.ip)
    net.run(1.0)
    assert h1.reachable(seq)
    assert h2.ip in h1.arp_table
    assert h1.ip in h2.arp_table


def test_ping_rtt_scales_with_hops():
    short = build_linear(2)
    long = build_linear(6)
    for net in (short, long):
        _flood_everything(net)
    s1, s2 = short.hosts["h1"], short.hosts["h2"]
    l1, l6 = long.hosts["h1"], long.hosts["h6"]
    seq_s = s1.ping(s2.ip)
    seq_l = l1.ping(l6.ip)
    short.run(2.0)
    long.run(2.0)
    assert s1.reachable(seq_s) and l1.reachable(seq_l)
    assert l1.ping_results[-1].rtt > s1.ping_results[-1].rtt


def test_udp_delivery_and_payload():
    net = build_linear(2)
    _flood_everything(net)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    h1.send_udp(h2.ip, 5000, 53, b"query")
    net.run(1.0)
    assert len(h2.udp_received) == 1
    src, datagram = h2.udp_received[0]
    assert src == h1.ip
    assert datagram.payload == b"query"


def test_pending_packets_flushed_after_arp():
    net = build_linear(2)
    _flood_everything(net)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    for index in range(3):
        h1.send_udp(h2.ip, 5000, 53, f"m{index}".encode())
    net.run(1.0)
    assert len(h2.udp_received) == 3


def test_host_ignores_foreign_unicast():
    net = build_linear(2)
    _flood_everything(net)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    # craft a frame addressed to a third MAC; h2 must not process it
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, MacAddress, Udp
    from repro.netpkt.packet import build_frame

    raw = build_frame(
        Ethernet(dst=MacAddress(0xDEAD), src=h1.mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=h1.ip, dst=h2.ip, proto=17),
        Udp(src_port=1, dst_port=2),
    )
    h1.send_raw(raw)
    net.run(1.0)
    assert h2.udp_received == []


def test_linear_topology_shape():
    net = build_linear(4, hosts_per_switch=2)
    assert len(net.switches) == 4
    assert len(net.hosts) == 8
    assert len(net.links) == 3 + 8


def test_ring_topology_shape():
    net = build_ring(5)
    assert len(net.switches) == 5
    inter = [l for l in net.links if l not in []]
    assert len(net.links) == 5 + 5  # ring links + host links


def test_ring_minimum_size():
    with pytest.raises(ValueError):
        build_ring(2)


def test_tree_topology_shape():
    net = build_tree(3, 2)
    assert len(net.switches) == 1 + 2 + 4
    assert len(net.hosts) == 4


def test_fat_tree_shape():
    net = build_fat_tree(4)
    assert len(net.switches) == 4 + 8 + 8  # cores + agg + edge
    assert len(net.hosts) == 16
    assert len(net.links) == 48


def test_fat_tree_odd_k_rejected():
    with pytest.raises(ValueError):
        build_fat_tree(3)


def test_switch_port_peers_symmetry():
    net = build_tree(2, 3)
    peers = net.switch_port_peers()
    for key, value in peers.items():
        assert peers[value] == key


def test_host_ports_mapping():
    net = build_linear(2)
    mapping = net.host_ports()
    assert set(mapping) == {"h1", "h2"}
    assert mapping["h1"][0] == "sw1"


def test_duplicate_names_rejected():
    net = Network(Simulator())
    net.add_switch("x")
    with pytest.raises(ValueError):
        net.add_switch("x")
    net.add_host("h")
    with pytest.raises(ValueError):
        net.add_host("h")


def test_link_down_drops_frames():
    net = build_linear(2)
    _flood_everything(net)
    link = net.links[0]  # sw1<->sw2
    link.set_up(False)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    seq = h1.ping(h2.ip)
    net.run(1.0)
    assert not h1.reachable(seq)
    assert h2.rx_frames == 0
