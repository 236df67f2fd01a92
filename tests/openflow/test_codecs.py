"""OF 1.0 and 1.3 wire codecs: round trips and error handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.openflow.of10 as of10
import repro.openflow.of13 as of13
from repro.dataplane import (
    FLOOD,
    Match,
    Output,
    SetDlDst,
    SetNwSrc,
    SetTpDst,
    SetVlan,
    StripVlan,
)
from repro.netpkt import MacAddress, cidr, ip
from repro.openflow import messages as m
from repro.openflow.of10 import CodecError

CODECS = [of10, of13]
RICH_MATCH = Match(
    in_port=3,
    dl_src=MacAddress("02:00:00:00:00:01"),
    dl_dst=MacAddress("02:00:00:00:00:02"),
    dl_type=0x0800,
    dl_vlan=100,
    dl_vlan_pcp=5,
    nw_src=cidr("10.1.0.0/16"),
    nw_dst=cidr("10.2.3.4/32"),
    nw_proto=6,
    tp_src=1000,
    tp_dst=22,
)


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_match_roundtrip_rich(codec):
    if codec is of10:
        packed = codec.pack_match(RICH_MATCH)
        assert codec.unpack_match(packed) == RICH_MATCH
    else:
        packed = codec.pack_match(RICH_MATCH)
        match, consumed = codec.unpack_match(packed)
        assert consumed == len(packed)
        assert match == RICH_MATCH


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_match_roundtrip_wildcard(codec):
    packed = codec.pack_match(Match())
    if codec is of10:
        assert codec.unpack_match(packed) == Match()
    else:
        assert codec.unpack_match(packed)[0] == Match()


def test_of10_match_is_fixed_40_bytes():
    assert len(of10.pack_match(Match())) == 40
    assert len(of10.pack_match(RICH_MATCH)) == 40


def test_of13_match_size_scales_with_fields():
    assert len(of13.pack_match(Match())) < len(of13.pack_match(RICH_MATCH))
    assert len(of13.pack_match(RICH_MATCH)) % 8 == 0


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_actions_roundtrip(codec):
    actions = [
        SetDlDst(MacAddress(7)),
        SetNwSrc(ip("1.2.3.4")),
        SetTpDst(443),
        SetVlan(12),
        StripVlan(),
        Output(4),
        Output(FLOOD),
    ]
    assert codec.unpack_actions(codec.pack_actions(actions)) == actions


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
@pytest.mark.parametrize(
    "msg",
    [
        m.Hello(version=1),
        m.EchoRequest(payload=b"probe"),
        m.EchoReply(payload=b"probe"),
        m.ErrorMsg(err_type=1, err_code=2, data=b"prefix"),
        m.FeaturesRequest(),
        m.BarrierRequest(),
        m.BarrierReply(),
        m.PortMod(port_no=2, down=True),
        m.PacketOut(buffer_id=5, in_port=1, actions=[Output(2)], data=b"frame"),
        m.FlowMod(match=Match(tp_dst=22, nw_proto=6, dl_type=0x800), actions=[Output(1)], priority=7, idle_timeout=3),
        m.FlowRemoved(match=Match(dl_type=0x800), cookie=9, priority=4, packet_count=10, byte_count=1000),
        m.PortStatsRequest(port_no=0xFFFF),
        m.AggregateStatsReply(packet_count=1, byte_count=2, flow_count=3),
    ],
    ids=lambda msg: type(msg).__name__,
)
def test_message_roundtrip(codec, msg):
    raw = codec.encode(msg)
    decoded, rest = codec.decode(raw)
    assert rest == b""
    assert decoded.xid == msg.xid
    for attr in ("payload", "match", "actions", "priority", "data", "buffer_id", "packet_count", "port_no", "down"):
        if hasattr(msg, attr):
            assert getattr(decoded, attr) == getattr(msg, attr), attr


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_packet_in_roundtrip(codec):
    msg = m.PacketIn(buffer_id=77, total_len=1500, in_port=9, reason=m.PacketInReasonWire.ACTION, data=b"\x01" * 60)
    decoded, _ = codec.decode(codec.encode(msg))
    assert decoded.buffer_id == 77
    assert decoded.in_port == 9
    assert decoded.reason is m.PacketInReasonWire.ACTION
    assert decoded.data == b"\x01" * 60


def test_of10_features_reply_with_ports():
    msg = m.FeaturesReply(
        dpid=0xABCDEF,
        n_buffers=128,
        n_tables=2,
        capabilities=7,
        ports=[
            m.PortDesc(1, b"\x02" * 6, "eth1"),
            m.PortDesc(2, b"\x03" * 6, "eth2", config_down=True, link_down=True),
        ],
    )
    decoded, _ = of10.decode(of10.encode(msg))
    assert decoded.dpid == 0xABCDEF
    assert [p.port_no for p in decoded.ports] == [1, 2]
    assert decoded.ports[1].config_down and decoded.ports[1].link_down


def test_of13_port_desc_multipart():
    msg = m.PortDescReply(ports=[m.PortDesc(4, b"\x09" * 6, "p4")])
    decoded, _ = of13.decode(of13.encode(msg))
    assert isinstance(decoded, m.PortDescReply)
    assert decoded.ports[0].name == "p4"


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_flow_stats_roundtrip(codec):
    reply = m.FlowStatsReply(
        entries=[
            m.FlowStatsEntry(
                match=Match(dl_type=0x800, tp_dst=80, nw_proto=6),
                priority=5,
                duration_sec=10,
                idle_timeout=30,
                cookie=99,
                packet_count=1000,
                byte_count=64000,
                actions=[Output(2)],
            ),
            m.FlowStatsEntry(match=Match(), priority=1, actions=[]),
        ]
    )
    decoded, _ = codec.decode(codec.encode(reply))
    assert len(decoded.entries) == 2
    first = decoded.entries[0]
    assert first.match == reply.entries[0].match
    assert (first.packet_count, first.byte_count, first.cookie) == (1000, 64000, 99)
    assert first.actions == [Output(2)]


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_port_stats_roundtrip(codec):
    reply = m.PortStatsReply(entries=[m.PortStatsEntry(port_no=3, rx_packets=5, tx_packets=6, rx_bytes=7, tx_bytes=8, tx_dropped=1)])
    decoded, _ = codec.decode(codec.encode(reply))
    entry = decoded.entries[0]
    assert (entry.port_no, entry.rx_packets, entry.tx_bytes, entry.tx_dropped) == (3, 5, 8, 1)


@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_flow_mod_command_flags(codec):
    for command in m.FlowModCommand:
        msg = m.FlowMod(match=Match(dl_type=0x800), command=command, send_flow_rem=True)
        decoded, _ = codec.decode(codec.encode(msg))
        assert decoded.command is command
        assert decoded.send_flow_rem


def test_decode_truncated_header():
    with pytest.raises(CodecError):
        of10.decode(b"\x01\x00")


def test_decode_wrong_version():
    raw = of10.encode(m.Hello(version=1))
    with pytest.raises(CodecError):
        of13.decode(raw)


def test_decode_truncated_body():
    raw = of10.encode(m.FlowMod(match=Match()))
    with pytest.raises(CodecError):
        of10.decode(raw[: len(raw) - 4])


def test_stream_of_messages_decodes_sequentially():
    stream = of10.encode(m.Hello(version=1, xid=1)) + of10.encode(m.EchoRequest(payload=b"x", xid=2))
    first, rest = of10.decode(stream)
    second, rest = of10.decode(rest)
    assert isinstance(first, m.Hello) and isinstance(second, m.EchoRequest)
    assert rest == b""


@given(
    dl_type=st.sampled_from([None, 0x0800, 0x0806]),
    addr=st.integers(min_value=0, max_value=2**32 - 1),
    prefix=st.integers(min_value=0, max_value=32),
    tp_dst=st.one_of(st.none(), st.integers(min_value=0, max_value=65535)),
    priority=st.integers(min_value=0, max_value=0xFFFF),
)
@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_flowmod_roundtrip_property(codec, dl_type, addr, prefix, tp_dst, priority):
    from ipaddress import IPv4Network

    network = IPv4Network((addr, prefix), strict=False) if prefix else None
    match = Match(
        dl_type=dl_type,
        nw_dst=network,
        nw_proto=6 if tp_dst is not None else None,
        tp_dst=tp_dst,
    )
    msg = m.FlowMod(match=match, actions=[Output(1)], priority=priority)
    decoded, _ = codec.decode(codec.encode(msg))
    assert decoded.match == match
    assert decoded.priority == priority


@given(src=st.integers(min_value=0, max_value=2**32 - 1), dst=st.integers(min_value=0, max_value=2**32 - 1))
@pytest.mark.parametrize("codec", CODECS, ids=["of10", "of13"])
def test_a_decoded_prefix_equals_the_dotted_string_one(codec, src, dst):
    """Each prefix length 0-32 decodes to the network the dotted ``"a.b.c.d/len"`` spelling builds."""
    from ipaddress import IPv4Address, IPv4Network

    def spelled(addr, prefix_len):
        if codec is of10 and prefix_len == 0:
            return None  # OF1.0 carries a /0 as a wildcard
        return IPv4Network(f"{IPv4Address(addr)}/{prefix_len}", strict=False)

    for prefix_len in range(33):
        match = Match(dl_type=0x0800, nw_src=spelled(src, prefix_len), nw_dst=spelled(dst, 32 - prefix_len))
        packed = codec.pack_match(match)
        decoded = codec.unpack_match(packed) if codec is of10 else codec.unpack_match(packed)[0]
        assert decoded == match
