"""OpenFlow 1.3 wire codec (version byte 0x04).

The second driver protocol: TLV (OXM) matches with prefix masks,
instruction lists carrying actions, and the multipart stats family.  This
is the "newer protocol" a subset of the fleet is upgraded to live in the
paper's section 4.1 story.
"""

from __future__ import annotations

import struct
from ipaddress import IPv4Address, IPv4Network

from repro.dataplane.actions import (
    Action,
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlan,
    StripVlan,
)
from repro.dataplane.match import Match
from repro.netpkt.addr import MacAddress
from repro.netpkt.ipv4 import IPPROTO_UDP
from repro.openflow import messages as m
from repro.openflow.of10 import CodecError

VERSION = 0x04

OFPT_HELLO = 0
OFPT_ERROR = 1
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_FLOW_REMOVED = 11
OFPT_PORT_STATUS = 12
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14
OFPT_PORT_MOD = 16
OFPT_MULTIPART_REQUEST = 18
OFPT_MULTIPART_REPLY = 19
OFPT_BARRIER_REQUEST = 20
OFPT_BARRIER_REPLY = 21

OFPMP_FLOW = 1
OFPMP_AGGREGATE = 2
OFPMP_PORT_STATS = 4
OFPMP_PORT_DESC = 13

# OXM: class openflow-basic, fields we support.
OXM_CLASS_BASIC = 0x8000
OXM_IN_PORT = 0
OXM_ETH_DST = 3
OXM_ETH_SRC = 4
OXM_ETH_TYPE = 5
OXM_VLAN_VID = 6
OXM_VLAN_PCP = 7
OXM_IP_DSCP = 8
OXM_IP_PROTO = 10
OXM_IPV4_SRC = 11
OXM_IPV4_DST = 12
OXM_TCP_SRC = 13
OXM_TCP_DST = 14
OXM_UDP_SRC = 15
OXM_UDP_DST = 16

OFPVID_PRESENT = 0x1000

OFPAT_OUTPUT = 0
OFPAT_POP_VLAN = 18
OFPAT_PUSH_VLAN = 17
OFPAT_SET_FIELD = 25

OFPIT_APPLY_ACTIONS = 4

OFPP_CONTROLLER = 0xFFFFFFFD
OFPP_FLOOD = 0xFFFFFFFB
OFPP_ALL = 0xFFFFFFFC
OFPP_IN_PORT = 0xFFFFFFF8
OFPP_ANY = 0xFFFFFFFF

# dataplane reserved ports (16-bit) <-> OF1.3 reserved ports (32-bit).
_PORT_TO_WIRE = {0xFFF8: OFPP_IN_PORT, 0xFFFB: OFPP_FLOOD, 0xFFFC: OFPP_ALL, 0xFFFD: OFPP_CONTROLLER}
_PORT_FROM_WIRE = {v: k for k, v in _PORT_TO_WIRE.items()}

OFPPC_PORT_DOWN = 1 << 0
OFPPS_LINK_DOWN = 1 << 0

OFPFF_SEND_FLOW_REM = 1 << 0

_HEADER = struct.Struct("!BBHI")
_FEATURES = struct.Struct("!QIBB2xII")
_PORT = struct.Struct("!I4x6s2x16sIIIIIIII")
_FLOW_MOD_HEAD = struct.Struct("!QQBBHHHIIIH2x")
_PACKET_IN_HEAD = struct.Struct("!IHBBQ")
_PACKET_OUT_HEAD = struct.Struct("!IIH6x")
_FLOW_REMOVED_HEAD = struct.Struct("!QHBBIIHHQQ")
_PORT_STATUS_HEAD = struct.Struct("!B7x")
_PORT_MOD = struct.Struct("!I4x6s2xIII4x")
_MULTIPART_HEAD = struct.Struct("!HH4x")
_PORT_STATS_REQ = struct.Struct("!I4x")
_PORT_STATS_ENTRY = struct.Struct("!I4xQQQQQQQQQQQQII")
_FLOW_STATS_REQ_HEAD = struct.Struct("!B3xII4xQQ")
_FLOW_STATS_ENTRY_HEAD = struct.Struct("!HBxIIHHHH4xQQQ")
_AGG_REPLY = struct.Struct("!QQI4x")


def _wire_port(port: int) -> int:
    return _PORT_TO_WIRE.get(port, port)


def _local_port(port: int) -> int:
    return _PORT_FROM_WIRE.get(port, port)


def _pack_header(msg_type: int, body: bytes, xid: int) -> bytes:
    return _HEADER.pack(VERSION, msg_type, _HEADER.size + len(body), xid) + body


def _pad8(data: bytes) -> bytes:
    remainder = len(data) % 8
    return data if not remainder else data + b"\x00" * (8 - remainder)


# -- OXM match ---------------------------------------------------------------------


def _oxm(field: int, value: bytes, mask: bytes | None = None) -> bytes:
    has_mask = mask is not None
    payload = value + (mask or b"")
    header = struct.pack("!HBB", OXM_CLASS_BASIC, field << 1 | int(has_mask), len(payload))
    return header + payload


def pack_match(match: Match) -> bytes:
    """Encode as an ofp_match TLV (type OXM), padded to 8 bytes."""
    tlvs = b""
    if match.in_port is not None:
        tlvs += _oxm(OXM_IN_PORT, struct.pack("!I", match.in_port))
    if match.dl_dst is not None:
        tlvs += _oxm(OXM_ETH_DST, match.dl_dst.packed)
    if match.dl_src is not None:
        tlvs += _oxm(OXM_ETH_SRC, match.dl_src.packed)
    if match.dl_type is not None:
        tlvs += _oxm(OXM_ETH_TYPE, struct.pack("!H", match.dl_type))
    if match.dl_vlan is not None:
        tlvs += _oxm(OXM_VLAN_VID, struct.pack("!H", match.dl_vlan | OFPVID_PRESENT))
    if match.dl_vlan_pcp is not None:
        tlvs += _oxm(OXM_VLAN_PCP, bytes([match.dl_vlan_pcp]))
    if match.nw_tos is not None:
        tlvs += _oxm(OXM_IP_DSCP, bytes([match.nw_tos >> 2]))
    if match.nw_proto is not None:
        tlvs += _oxm(OXM_IP_PROTO, bytes([match.nw_proto]))
    for field_id, network in ((OXM_IPV4_SRC, match.nw_src), (OXM_IPV4_DST, match.nw_dst)):
        if network is None:
            continue
        value = struct.pack("!I", int(network.network_address))
        if network.prefixlen == 32:
            tlvs += _oxm(field_id, value)
        else:
            tlvs += _oxm(field_id, value, struct.pack("!I", int(network.netmask)))
    if match.tp_src is not None or match.tp_dst is not None:
        src_field, dst_field = _tp_fields(match.nw_proto)
        if match.tp_src is not None:
            tlvs += _oxm(src_field, struct.pack("!H", match.tp_src))
        if match.tp_dst is not None:
            tlvs += _oxm(dst_field, struct.pack("!H", match.tp_dst))
    head = struct.pack("!HH", 1, 4 + len(tlvs))  # type OFPMT_OXM
    return _pad8(head + tlvs)


def _tp_fields(nw_proto: int | None) -> tuple[int, int]:
    if nw_proto == IPPROTO_UDP:
        return OXM_UDP_SRC, OXM_UDP_DST
    # TCP is the default carrier for port matches (including unspecified).
    return OXM_TCP_SRC, OXM_TCP_DST


def unpack_match(data: bytes, offset: int = 0) -> tuple[Match, int]:
    """Decode an OXM match; returns (match, bytes consumed incl. padding)."""
    if len(data) - offset < 4:
        raise CodecError("truncated ofp_match")
    match_type, length = struct.unpack_from("!HH", data, offset)
    if match_type != 1:
        raise CodecError(f"unsupported match type {match_type}")
    end = offset + length
    if end > len(data):
        raise CodecError("truncated OXM match body")
    kwargs: dict[str, object] = {}
    cursor = offset + 4
    while cursor + 4 <= end:
        oxm_class, type_byte, oxm_len = struct.unpack_from("!HBB", data, cursor)
        field_id, has_mask = type_byte >> 1, bool(type_byte & 1)
        cursor += 4
        if cursor + oxm_len > end:
            raise CodecError("OXM TLV overruns the match")
        payload = data[cursor : cursor + oxm_len]
        cursor += oxm_len
        if oxm_class != OXM_CLASS_BASIC:
            continue  # skip experimenter/unknown classes
        value_len = oxm_len // 2 if has_mask else oxm_len
        value, mask = payload[:value_len], payload[value_len:] if has_mask else None
        _apply_oxm(kwargs, field_id, value, mask)
    consumed = _pad8_len(length)
    return Match(**kwargs), consumed  # type: ignore[arg-type]


def _pad8_len(length: int) -> int:
    remainder = length % 8
    return length if not remainder else length + 8 - remainder


def _apply_oxm(kwargs: dict[str, object], field_id: int, value: bytes, mask: bytes | None) -> None:
    if field_id == OXM_IN_PORT:
        kwargs["in_port"] = _local_port(struct.unpack("!I", value)[0])
    elif field_id == OXM_ETH_DST:
        kwargs["dl_dst"] = MacAddress(value)
    elif field_id == OXM_ETH_SRC:
        kwargs["dl_src"] = MacAddress(value)
    elif field_id == OXM_ETH_TYPE:
        kwargs["dl_type"] = struct.unpack("!H", value)[0]
    elif field_id == OXM_VLAN_VID:
        kwargs["dl_vlan"] = struct.unpack("!H", value)[0] & ~OFPVID_PRESENT
    elif field_id == OXM_VLAN_PCP:
        kwargs["dl_vlan_pcp"] = value[0]
    elif field_id == OXM_IP_DSCP:
        kwargs["nw_tos"] = value[0] << 2
    elif field_id == OXM_IP_PROTO:
        kwargs["nw_proto"] = value[0]
    elif field_id in (OXM_IPV4_SRC, OXM_IPV4_DST):
        raw = struct.unpack("!I", value)[0]
        prefix_len = 32 if mask is None else bin(struct.unpack("!I", mask)[0]).count("1")
        network = IPv4Network((raw, prefix_len), strict=False)
        kwargs["nw_src" if field_id == OXM_IPV4_SRC else "nw_dst"] = network
    elif field_id in (OXM_TCP_SRC, OXM_UDP_SRC):
        kwargs["tp_src"] = struct.unpack("!H", value)[0]
    elif field_id in (OXM_TCP_DST, OXM_UDP_DST):
        kwargs["tp_dst"] = struct.unpack("!H", value)[0]


# -- actions / instructions -----------------------------------------------------------


def pack_actions(actions: list[Action]) -> bytes:
    """Encode an action list (set-field based)."""
    out = b""
    for action in actions:
        if isinstance(action, Output):
            out += struct.pack("!HHIH6x", OFPAT_OUTPUT, 16, _wire_port(action.port), 0xFFFF)
        elif isinstance(action, StripVlan):
            out += struct.pack("!HH4x", OFPAT_POP_VLAN, 8)
        elif isinstance(action, SetVlan):
            out += _set_field(OXM_VLAN_VID, struct.pack("!H", action.vid | OFPVID_PRESENT))
        elif isinstance(action, SetDlSrc):
            out += _set_field(OXM_ETH_SRC, action.mac.packed)
        elif isinstance(action, SetDlDst):
            out += _set_field(OXM_ETH_DST, action.mac.packed)
        elif isinstance(action, SetNwSrc):
            out += _set_field(OXM_IPV4_SRC, struct.pack("!I", int(action.addr)))
        elif isinstance(action, SetNwDst):
            out += _set_field(OXM_IPV4_DST, struct.pack("!I", int(action.addr)))
        elif isinstance(action, SetTpSrc):
            out += _set_field(OXM_TCP_SRC, struct.pack("!H", action.port))
        elif isinstance(action, SetTpDst):
            out += _set_field(OXM_TCP_DST, struct.pack("!H", action.port))
        else:
            raise CodecError(f"OpenFlow 1.3 cannot encode {type(action).__name__}")
    return out


def _set_field(field_id: int, value: bytes) -> bytes:
    oxm = _oxm(field_id, value)
    body = struct.pack("!HH", OFPAT_SET_FIELD, _pad8_len(4 + len(oxm))) + oxm
    return _pad8(body)


def unpack_actions(data: bytes) -> list[Action]:
    """Decode an action list."""
    actions: list[Action] = []
    offset = 0
    while offset + 4 <= len(data):
        act_type, act_len = struct.unpack_from("!HH", data, offset)
        if act_len < 8 or offset + act_len > len(data):
            raise CodecError(f"bad action length {act_len}")
        body = data[offset + 4 : offset + act_len]
        if act_type == OFPAT_OUTPUT:
            port, _max_len = struct.unpack_from("!IH", body)
            actions.append(Output(_local_port(port)))
        elif act_type == OFPAT_POP_VLAN:
            actions.append(StripVlan())
        elif act_type == OFPAT_SET_FIELD:
            oxm_class, type_byte, oxm_len = struct.unpack_from("!HBB", body)
            field_id = type_byte >> 1
            value = body[4 : 4 + oxm_len]
            actions.append(_set_field_action(oxm_class, field_id, value))
        else:
            raise CodecError(f"unknown OpenFlow 1.3 action type {act_type}")
        offset += act_len
    return actions


def _set_field_action(oxm_class: int, field_id: int, value: bytes) -> Action:
    if oxm_class != OXM_CLASS_BASIC:
        raise CodecError(f"unsupported set-field class {oxm_class:#x}")
    if field_id == OXM_VLAN_VID:
        return SetVlan(struct.unpack("!H", value)[0] & ~OFPVID_PRESENT)
    if field_id == OXM_ETH_SRC:
        return SetDlSrc(MacAddress(value))
    if field_id == OXM_ETH_DST:
        return SetDlDst(MacAddress(value))
    if field_id == OXM_IPV4_SRC:
        return SetNwSrc(IPv4Address(struct.unpack("!I", value)[0]))
    if field_id == OXM_IPV4_DST:
        return SetNwDst(IPv4Address(struct.unpack("!I", value)[0]))
    if field_id in (OXM_TCP_SRC, OXM_UDP_SRC):
        return SetTpSrc(struct.unpack("!H", value)[0])
    if field_id in (OXM_TCP_DST, OXM_UDP_DST):
        return SetTpDst(struct.unpack("!H", value)[0])
    raise CodecError(f"unsupported set-field target {field_id}")


def _pack_instructions(actions: list[Action]) -> bytes:
    body = pack_actions(actions)
    return struct.pack("!HH4x", OFPIT_APPLY_ACTIONS, 8 + len(body)) + body


def _unpack_instructions(data: bytes) -> list[Action]:
    actions: list[Action] = []
    offset = 0
    while offset + 8 <= len(data):
        inst_type, inst_len = struct.unpack_from("!HH", data, offset)
        if inst_len < 8 or offset + inst_len > len(data):
            raise CodecError(f"bad instruction length {inst_len}")
        if inst_type == OFPIT_APPLY_ACTIONS:
            actions.extend(unpack_actions(data[offset + 8 : offset + inst_len]))
        offset += inst_len
    return actions


# -- ports ---------------------------------------------------------------------------


def _pack_port(port: m.PortDesc) -> bytes:
    config = OFPPC_PORT_DOWN if port.config_down else 0
    state = OFPPS_LINK_DOWN if port.link_down else 0
    return _PORT.pack(
        port.port_no,
        port.hw_addr,
        port.name.encode()[:16].ljust(16, b"\x00"),
        config,
        state,
        0,
        0,
        0,
        0,
        0,
        0,
    )


def _unpack_port(data: bytes, offset: int) -> m.PortDesc:
    values = _PORT.unpack_from(data, offset)
    return m.PortDesc(
        port_no=values[0],
        hw_addr=values[1],
        name=values[2].rstrip(b"\x00").decode(),
        config_down=bool(values[3] & OFPPC_PORT_DOWN),
        link_down=bool(values[4] & OFPPS_LINK_DOWN),
    )


# -- encode ----------------------------------------------------------------------------


def encode(msg: m.Message) -> bytes:
    """Serialize a message to OpenFlow 1.3 wire bytes."""
    xid = msg.xid
    if isinstance(msg, m.Hello):
        return _pack_header(OFPT_HELLO, b"", xid)
    if isinstance(msg, m.EchoRequest):
        return _pack_header(OFPT_ECHO_REQUEST, msg.payload, xid)
    if isinstance(msg, m.EchoReply):
        return _pack_header(OFPT_ECHO_REPLY, msg.payload, xid)
    if isinstance(msg, m.ErrorMsg):
        return _pack_header(OFPT_ERROR, struct.pack("!HH", msg.err_type, msg.err_code) + msg.data, xid)
    if isinstance(msg, m.FeaturesRequest):
        return _pack_header(OFPT_FEATURES_REQUEST, b"", xid)
    if isinstance(msg, m.FeaturesReply):
        body = _FEATURES.pack(msg.dpid, msg.n_buffers, msg.n_tables, 0, msg.capabilities, 0)
        return _pack_header(OFPT_FEATURES_REPLY, body, xid)
    if isinstance(msg, m.PortDescRequest):
        return _pack_header(OFPT_MULTIPART_REQUEST, _MULTIPART_HEAD.pack(OFPMP_PORT_DESC, 0), xid)
    if isinstance(msg, m.PortDescReply):
        body = _MULTIPART_HEAD.pack(OFPMP_PORT_DESC, 0)
        for port in msg.ports:
            body += _pack_port(port)
        return _pack_header(OFPT_MULTIPART_REPLY, body, xid)
    if isinstance(msg, m.PacketIn):
        match = pack_match(Match(in_port=msg.in_port))
        body = _PACKET_IN_HEAD.pack(msg.buffer_id, msg.total_len, msg.reason.value, 0, 0) + match + b"\x00\x00" + msg.data
        return _pack_header(OFPT_PACKET_IN, body, xid)
    if isinstance(msg, m.PacketOut):
        actions = pack_actions(msg.actions)
        body = _PACKET_OUT_HEAD.pack(msg.buffer_id, _wire_port(msg.in_port), len(actions)) + actions + msg.data
        return _pack_header(OFPT_PACKET_OUT, body, xid)
    if isinstance(msg, m.FlowMod):
        flags = OFPFF_SEND_FLOW_REM if msg.send_flow_rem else 0
        head = _FLOW_MOD_HEAD.pack(
            msg.cookie,
            0,
            msg.table_id,
            msg.command.value,
            msg.idle_timeout,
            msg.hard_timeout,
            msg.priority,
            msg.buffer_id,
            OFPP_ANY,
            0xFFFFFFFF,
            flags,
        )
        body = head + pack_match(msg.match) + _pack_instructions(msg.actions)
        return _pack_header(OFPT_FLOW_MOD, body, xid)
    if isinstance(msg, m.FlowRemoved):
        head = _FLOW_REMOVED_HEAD.pack(
            msg.cookie,
            msg.priority,
            msg.reason.value,
            0,
            msg.duration_sec,
            0,
            msg.idle_timeout,
            0,
            msg.packet_count,
            msg.byte_count,
        )
        return _pack_header(OFPT_FLOW_REMOVED, head + pack_match(msg.match), xid)
    if isinstance(msg, m.PortStatus):
        body = _PORT_STATUS_HEAD.pack(msg.reason.value) + _pack_port(msg.port)
        return _pack_header(OFPT_PORT_STATUS, body, xid)
    if isinstance(msg, m.PortMod):
        config = OFPPC_PORT_DOWN if msg.down else 0
        body = _PORT_MOD.pack(msg.port_no, msg.hw_addr, config, OFPPC_PORT_DOWN, 0)
        return _pack_header(OFPT_PORT_MOD, body, xid)
    if isinstance(msg, m.BarrierRequest):
        return _pack_header(OFPT_BARRIER_REQUEST, b"", xid)
    if isinstance(msg, m.BarrierReply):
        return _pack_header(OFPT_BARRIER_REPLY, b"", xid)
    if isinstance(msg, m.PortStatsRequest):
        port_no = OFPP_ANY if msg.port_no in (0xFFFF, OFPP_ANY) else msg.port_no
        body = _MULTIPART_HEAD.pack(OFPMP_PORT_STATS, 0) + _PORT_STATS_REQ.pack(port_no)
        return _pack_header(OFPT_MULTIPART_REQUEST, body, xid)
    if isinstance(msg, m.PortStatsReply):
        body = _MULTIPART_HEAD.pack(OFPMP_PORT_STATS, 0)
        for entry in msg.entries:
            body += _PORT_STATS_ENTRY.pack(
                entry.port_no,
                entry.rx_packets,
                entry.tx_packets,
                entry.rx_bytes,
                entry.tx_bytes,
                0,
                entry.tx_dropped,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            )
        return _pack_header(OFPT_MULTIPART_REPLY, body, xid)
    if isinstance(msg, m.FlowStatsRequest):
        head = _FLOW_STATS_REQ_HEAD.pack(msg.table_id, OFPP_ANY, 0xFFFFFFFF, 0, 0)
        body = _MULTIPART_HEAD.pack(OFPMP_FLOW, 0) + head + pack_match(msg.match)
        return _pack_header(OFPT_MULTIPART_REQUEST, body, xid)
    if isinstance(msg, m.FlowStatsReply):
        body = _MULTIPART_HEAD.pack(OFPMP_FLOW, 0)
        for entry in msg.entries:
            match = pack_match(entry.match)
            instructions = _pack_instructions(entry.actions)
            length = _FLOW_STATS_ENTRY_HEAD.size + len(match) + len(instructions)
            body += _FLOW_STATS_ENTRY_HEAD.pack(
                length,
                0,
                entry.duration_sec,
                0,
                entry.priority,
                entry.idle_timeout,
                entry.hard_timeout,
                0,
                entry.cookie,
                entry.packet_count,
                entry.byte_count,
            )
            body += match + instructions
        return _pack_header(OFPT_MULTIPART_REPLY, body, xid)
    if isinstance(msg, m.AggregateStatsRequest):
        head = _FLOW_STATS_REQ_HEAD.pack(0xFF, OFPP_ANY, 0xFFFFFFFF, 0, 0)
        body = _MULTIPART_HEAD.pack(OFPMP_AGGREGATE, 0) + head + pack_match(msg.match)
        return _pack_header(OFPT_MULTIPART_REQUEST, body, xid)
    if isinstance(msg, m.AggregateStatsReply):
        body = _MULTIPART_HEAD.pack(OFPMP_AGGREGATE, 0) + _AGG_REPLY.pack(msg.packet_count, msg.byte_count, msg.flow_count)
        return _pack_header(OFPT_MULTIPART_REPLY, body, xid)
    raise CodecError(f"OpenFlow 1.3 cannot encode {type(msg).__name__}")


# -- decode -------------------------------------------------------------------------------


def decode(data: bytes) -> tuple[m.Message, bytes]:
    """Parse one message; returns (message, remaining bytes)."""
    if len(data) < _HEADER.size:
        raise CodecError("truncated OpenFlow header")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != VERSION:
        raise CodecError(f"not an OpenFlow 1.3 message (version {version})")
    if length < _HEADER.size or len(data) < length:
        raise CodecError("truncated OpenFlow message")
    body = data[_HEADER.size : length]
    rest = data[length:]
    try:
        msg = _decode_body(msg_type, body)
    except (struct.error, IndexError) as exc:
        raise CodecError(f"truncated message body: {exc}") from exc
    msg.xid = xid
    return msg, rest


def _decode_body(msg_type: int, body: bytes) -> m.Message:
    if msg_type == OFPT_HELLO:
        return m.Hello(version=VERSION)
    if msg_type == OFPT_ECHO_REQUEST:
        return m.EchoRequest(payload=body)
    if msg_type == OFPT_ECHO_REPLY:
        return m.EchoReply(payload=body)
    if msg_type == OFPT_ERROR:
        err_type, err_code = struct.unpack_from("!HH", body)
        return m.ErrorMsg(err_type=err_type, err_code=err_code, data=body[4:])
    if msg_type == OFPT_FEATURES_REQUEST:
        return m.FeaturesRequest()
    if msg_type == OFPT_FEATURES_REPLY:
        dpid, n_buffers, n_tables, _aux, capabilities, _reserved = _FEATURES.unpack_from(body)
        return m.FeaturesReply(dpid=dpid, n_buffers=n_buffers, n_tables=n_tables, capabilities=capabilities)
    if msg_type == OFPT_PACKET_IN:
        buffer_id, total_len, reason, _table, _cookie = _PACKET_IN_HEAD.unpack_from(body)
        match, consumed = unpack_match(body, _PACKET_IN_HEAD.size)
        data_start = _PACKET_IN_HEAD.size + consumed + 2
        return m.PacketIn(
            buffer_id=buffer_id,
            total_len=total_len,
            in_port=match.in_port or 0,
            reason=m.PacketInReasonWire(reason),
            data=body[data_start:],
        )
    if msg_type == OFPT_PACKET_OUT:
        buffer_id, in_port, actions_len = _PACKET_OUT_HEAD.unpack_from(body)
        offset = _PACKET_OUT_HEAD.size
        actions = unpack_actions(body[offset : offset + actions_len])
        return m.PacketOut(
            buffer_id=buffer_id,
            in_port=_local_port(in_port),
            actions=actions,
            data=body[offset + actions_len :],
        )
    if msg_type == OFPT_FLOW_MOD:
        (cookie, _cookie_mask, table_id, command, idle, hard, priority, buffer_id, _out_port, _out_group, flags) = _FLOW_MOD_HEAD.unpack_from(body)
        match, consumed = unpack_match(body, _FLOW_MOD_HEAD.size)
        actions = _unpack_instructions(body[_FLOW_MOD_HEAD.size + consumed :])
        return m.FlowMod(
            match=match,
            command=m.FlowModCommand(command),
            actions=actions,
            priority=priority,
            idle_timeout=idle,
            hard_timeout=hard,
            cookie=cookie,
            buffer_id=buffer_id,
            table_id=table_id,
            send_flow_rem=bool(flags & OFPFF_SEND_FLOW_REM),
        )
    if msg_type == OFPT_FLOW_REMOVED:
        (cookie, priority, reason, _table, dur_sec, _dur_nsec, idle, _hard, packets, octets) = _FLOW_REMOVED_HEAD.unpack_from(body)
        match, _consumed = unpack_match(body, _FLOW_REMOVED_HEAD.size)
        return m.FlowRemoved(
            match=match,
            cookie=cookie,
            priority=priority,
            reason=m.FlowRemovedReasonWire(reason),
            duration_sec=dur_sec,
            idle_timeout=idle,
            packet_count=packets,
            byte_count=octets,
        )
    if msg_type == OFPT_PORT_STATUS:
        (reason,) = _PORT_STATUS_HEAD.unpack_from(body)
        return m.PortStatus(reason=m.PortStatusReason(reason), port=_unpack_port(body, _PORT_STATUS_HEAD.size))
    if msg_type == OFPT_PORT_MOD:
        port_no, hw_addr, config, mask, _advertise = _PORT_MOD.unpack_from(body)
        down = bool(config & OFPPC_PORT_DOWN) if mask & OFPPC_PORT_DOWN else False
        return m.PortMod(port_no=port_no, hw_addr=hw_addr, down=down)
    if msg_type == OFPT_BARRIER_REQUEST:
        return m.BarrierRequest()
    if msg_type == OFPT_BARRIER_REPLY:
        return m.BarrierReply()
    if msg_type in (OFPT_MULTIPART_REQUEST, OFPT_MULTIPART_REPLY):
        return _decode_multipart(msg_type, body)
    raise CodecError(f"unknown OpenFlow 1.3 message type {msg_type}")


def _decode_multipart(msg_type: int, body: bytes) -> m.Message:
    mp_type, _flags = _MULTIPART_HEAD.unpack_from(body)
    payload = body[_MULTIPART_HEAD.size :]
    if msg_type == OFPT_MULTIPART_REQUEST:
        if mp_type == OFPMP_PORT_DESC:
            return m.PortDescRequest()
        if mp_type == OFPMP_PORT_STATS:
            (port_no,) = _PORT_STATS_REQ.unpack_from(payload)
            return m.PortStatsRequest(port_no=_local_port(port_no) if port_no != OFPP_ANY else 0xFFFF)
        if mp_type == OFPMP_FLOW:
            table_id, _out_port, _out_group, _cookie, _mask = _FLOW_STATS_REQ_HEAD.unpack_from(payload)
            match, _consumed = unpack_match(payload, _FLOW_STATS_REQ_HEAD.size)
            return m.FlowStatsRequest(match=match, table_id=table_id)
        if mp_type == OFPMP_AGGREGATE:
            match, _consumed = unpack_match(payload, _FLOW_STATS_REQ_HEAD.size)
            return m.AggregateStatsRequest(match=match)
        raise CodecError(f"unknown multipart request type {mp_type}")
    if mp_type == OFPMP_PORT_DESC:
        ports = []
        offset = 0
        while offset + _PORT.size <= len(payload):
            ports.append(_unpack_port(payload, offset))
            offset += _PORT.size
        return m.PortDescReply(ports=ports)
    if mp_type == OFPMP_PORT_STATS:
        entries = []
        offset = 0
        while offset + _PORT_STATS_ENTRY.size <= len(payload):
            values = _PORT_STATS_ENTRY.unpack_from(payload, offset)
            entries.append(
                m.PortStatsEntry(
                    port_no=values[0],
                    rx_packets=values[1],
                    tx_packets=values[2],
                    rx_bytes=values[3],
                    tx_bytes=values[4],
                    tx_dropped=values[6],
                )
            )
            offset += _PORT_STATS_ENTRY.size
        return m.PortStatsReply(entries=entries)
    if mp_type == OFPMP_FLOW:
        entries = []
        offset = 0
        while offset + _FLOW_STATS_ENTRY_HEAD.size <= len(payload):
            values = _FLOW_STATS_ENTRY_HEAD.unpack_from(payload, offset)
            length = values[0]
            if length < _FLOW_STATS_ENTRY_HEAD.size or offset + length > len(payload):
                raise CodecError("bad flow stats entry length")
            match, consumed = unpack_match(payload, offset + _FLOW_STATS_ENTRY_HEAD.size)
            inst_start = offset + _FLOW_STATS_ENTRY_HEAD.size + consumed
            actions = _unpack_instructions(payload[inst_start : offset + length])
            entries.append(
                m.FlowStatsEntry(
                    match=match,
                    priority=values[4],
                    duration_sec=values[2],
                    idle_timeout=values[5],
                    hard_timeout=values[6],
                    cookie=values[8],
                    packet_count=values[9],
                    byte_count=values[10],
                    actions=actions,
                )
            )
            offset += length
        return m.FlowStatsReply(entries=entries)
    if mp_type == OFPMP_AGGREGATE:
        packets, octets, flows = _AGG_REPLY.unpack_from(payload)
        return m.AggregateStatsReply(packet_count=packets, byte_count=octets, flow_count=flows)
    raise CodecError(f"unknown multipart reply type {mp_type}")
