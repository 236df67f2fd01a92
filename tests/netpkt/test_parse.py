"""Full-frame parsing and the flow key."""

import pytest

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

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def _tcp_frame(**tcp_kwargs):
    return build_frame(
        Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("10.0.0.1"), dst=ip("10.0.0.2"), proto=IPPROTO_TCP),
        Tcp(src_port=1000, dst_port=22, **tcp_kwargs),
    )


def test_parse_tcp_key():
    key = parse_frame(_tcp_frame()).key
    assert key.dl_type == ETH_TYPE_IPV4
    assert key.nw_proto == IPPROTO_TCP
    assert (key.tp_src, key.tp_dst) == (1000, 22)
    assert key.nw_src == ip("10.0.0.1")


def test_parse_udp_inner():
    raw = build_frame(
        Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("10.0.0.1"), dst=ip("10.0.0.2"), proto=IPPROTO_UDP),
        Udp(src_port=67, dst_port=68, payload=b"dhcp"),
    )
    frame = parse_frame(raw)
    assert isinstance(frame.inner, Udp)
    assert frame.inner.payload == b"dhcp"


def test_parse_icmp_overloads_tp_fields():
    raw = build_frame(
        Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("10.0.0.1"), dst=ip("10.0.0.2"), proto=IPPROTO_ICMP),
        Icmp.echo_request(1, 1),
    )
    key = parse_frame(raw).key
    assert (key.tp_src, key.tp_dst) == (8, 0)  # type/code


def test_parse_arp_key_uses_sender_target():
    raw = build_frame(
        Ethernet(dst=MacAddress("ff:ff:ff:ff:ff:ff"), src=MAC_A, eth_type=ETH_TYPE_ARP),
        Arp.request(MAC_A, ip("10.0.0.1"), ip("10.0.0.9")),
    )
    key = parse_frame(raw).key
    assert key.nw_src == ip("10.0.0.1")
    assert key.nw_dst == ip("10.0.0.9")
    assert key.nw_proto == 1  # opcode


def test_parse_lldp():
    raw = build_frame(
        Ethernet(dst=MacAddress("01:80:c2:00:00:0e"), src=MAC_A, eth_type=ETH_TYPE_LLDP),
        Lldp(chassis_id="sw9", port_id="2"),
    )
    frame = parse_frame(raw)
    assert isinstance(frame.inner, Lldp)
    assert frame.inner.chassis_id == "sw9"


def test_parse_vlan_in_key():
    eth = Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4, vlan=Vlan(vid=42, pcp=3))
    raw = build_frame(eth, IPv4(src=ip("1.1.1.1"), dst=ip("2.2.2.2"), proto=IPPROTO_TCP), Tcp(src_port=1, dst_port=2))
    key = parse_frame(raw).key
    assert (key.dl_vlan, key.dl_vlan_pcp) == (42, 3)


def test_parse_garbage_payload_degrades_gracefully():
    eth = Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4, payload=b"\xde\xad")
    frame = parse_frame(eth.pack())
    assert frame.ipv4 is None
    assert frame.inner == b"\xde\xad"
    assert frame.key.nw_src is None


def test_unknown_ethertype_keeps_raw_payload():
    eth = Ethernet(dst=MAC_B, src=MAC_A, eth_type=0x9999, payload=b"opaque")
    frame = parse_frame(eth.pack())
    assert frame.inner == b"opaque"


def test_repack_after_field_rewrite():
    frame = parse_frame(_tcp_frame())
    frame.ipv4.dst = ip("10.9.9.9")
    frame.inner.dst_port = 2222
    reparsed = parse_frame(frame.repack())
    assert reparsed.key.nw_dst == ip("10.9.9.9")
    assert reparsed.key.tp_dst == 2222


def test_key_is_computed_once_and_repack_forgets_it():
    frame = parse_frame(_tcp_frame())
    assert frame.key is frame.key
    frame.ipv4.dst = ip("10.9.9.9")
    frame.repack()
    assert frame.key.nw_dst == ip("10.9.9.9")


def test_a_wire_frame_is_parsed_on_first_use_only():
    raw = _tcp_frame()
    wire = Frame(raw)
    assert wire.parse() is wire.parse()
    assert wire.parse() == parse_frame(raw)
    broken = Frame(b"\x01")
    for _ in range(2):
        with pytest.raises(ValueError):
            broken.parse()


def test_repack_recomputes_ip_checksum():
    frame = parse_frame(_tcp_frame())
    frame.ipv4.ttl = 5
    parse_frame(frame.repack())  # would raise on a bad checksum


def test_build_frame_preserves_inner_payload():
    raw = build_frame(
        Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("1.1.1.1"), dst=ip("2.2.2.2"), proto=IPPROTO_UDP),
        Udp(src_port=1, dst_port=2, payload=b"keepme"),
    )
    frame = parse_frame(raw)
    assert frame.inner.payload == b"keepme"


def test_field_values_excludes_wildcards():
    eth = Ethernet(dst=MAC_B, src=MAC_A, eth_type=0x9999)
    values = parse_frame(eth.pack()).key.field_values()
    assert set(values) == {"dl_src", "dl_dst", "dl_type"}
