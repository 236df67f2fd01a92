"""OpenFlow 1.0 wire codec (version byte 0x01).

Implements the 1.0 binary structures the paper's C++ driver speaks:
fixed 40-byte matches with a wildcard bitmap, inline action lists, and the
stats request/reply family.  Layouts follow the openflow.h of the 1.0.0
specification.
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
from repro.openflow import messages as m

VERSION = 0x01

# Message types (ofp_type).
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
OFPT_PORT_MOD = 15
OFPT_STATS_REQUEST = 16
OFPT_STATS_REPLY = 17
OFPT_BARRIER_REQUEST = 18
OFPT_BARRIER_REPLY = 19

# Stats types.
OFPST_FLOW = 1
OFPST_AGGREGATE = 2
OFPST_PORT = 4

# Wildcard bits (ofp_flow_wildcards).
OFPFW_IN_PORT = 1 << 0
OFPFW_DL_VLAN = 1 << 1
OFPFW_DL_SRC = 1 << 2
OFPFW_DL_DST = 1 << 3
OFPFW_DL_TYPE = 1 << 4
OFPFW_NW_PROTO = 1 << 5
OFPFW_TP_SRC = 1 << 6
OFPFW_TP_DST = 1 << 7
OFPFW_NW_SRC_SHIFT = 8
OFPFW_NW_DST_SHIFT = 14
OFPFW_DL_VLAN_PCP = 1 << 20
OFPFW_NW_TOS = 1 << 21

# Action types.
OFPAT_OUTPUT = 0
OFPAT_SET_VLAN_VID = 1
OFPAT_STRIP_VLAN = 3
OFPAT_SET_DL_SRC = 4
OFPAT_SET_DL_DST = 5
OFPAT_SET_NW_SRC = 6
OFPAT_SET_NW_DST = 7
OFPAT_SET_TP_SRC = 9
OFPAT_SET_TP_DST = 10

# Port config / state bits.
OFPPC_PORT_DOWN = 1 << 0
OFPPS_LINK_DOWN = 1 << 0

OFPP_NONE = 0xFFFF

_HEADER = struct.Struct("!BBHI")
_MATCH = struct.Struct("!IH6s6sHBxHBBxxIIHH")
_PHY_PORT = struct.Struct("!H6s16sIIIIII")
_FLOW_MOD_TAIL = struct.Struct("!QHHHHIHH")
_PACKET_IN_HEAD = struct.Struct("!IHHBx")
_PACKET_OUT_HEAD = struct.Struct("!IHH")
_FEATURES_HEAD = struct.Struct("!QIB3xII")
_FLOW_REMOVED_TAIL = struct.Struct("!QHBxIIH2xQQ")
_PORT_STATUS_HEAD = struct.Struct("!B7x")
_PORT_MOD = struct.Struct("!H6sIII4x")
_STATS_HEAD = struct.Struct("!HH")
_PORT_STATS_REQ = struct.Struct("!H6x")
_PORT_STATS_ENTRY = struct.Struct("!H6xQQQQQQQQQQQQ")
_FLOW_STATS_REQ_TAIL = struct.Struct("!BxH")
_FLOW_STATS_ENTRY_HEAD = struct.Struct("!HBx")
_FLOW_STATS_ENTRY_MID = struct.Struct("!IIHHH6xQQQ")
_AGG_REPLY = struct.Struct("!QQI4x")

OFPFF_SEND_FLOW_REM = 1 << 0


class CodecError(ValueError):
    """Raised on malformed wire bytes or unencodable messages."""


def _pack_header(msg_type: int, body: bytes, xid: int) -> bytes:
    return _HEADER.pack(VERSION, msg_type, _HEADER.size + len(body), xid) + body


# -- match ---------------------------------------------------------------------


def pack_match(match: Match) -> bytes:
    """Encode a Match as the 40-byte ofp_match."""
    wildcards = 0
    if match.in_port is None:
        wildcards |= OFPFW_IN_PORT
    if match.dl_vlan is None:
        wildcards |= OFPFW_DL_VLAN
    if match.dl_src is None:
        wildcards |= OFPFW_DL_SRC
    if match.dl_dst is None:
        wildcards |= OFPFW_DL_DST
    if match.dl_type is None:
        wildcards |= OFPFW_DL_TYPE
    if match.nw_proto is None:
        wildcards |= OFPFW_NW_PROTO
    if match.tp_src is None:
        wildcards |= OFPFW_TP_SRC
    if match.tp_dst is None:
        wildcards |= OFPFW_TP_DST
    if match.dl_vlan_pcp is None:
        wildcards |= OFPFW_DL_VLAN_PCP
    if match.nw_tos is None:
        wildcards |= OFPFW_NW_TOS
    nw_src_bits = 32 if match.nw_src is None else 32 - match.nw_src.prefixlen
    nw_dst_bits = 32 if match.nw_dst is None else 32 - match.nw_dst.prefixlen
    wildcards |= nw_src_bits << OFPFW_NW_SRC_SHIFT
    wildcards |= nw_dst_bits << OFPFW_NW_DST_SHIFT
    return _MATCH.pack(
        wildcards,
        match.in_port or 0,
        match.dl_src.packed if match.dl_src else b"\x00" * 6,
        match.dl_dst.packed if match.dl_dst else b"\x00" * 6,
        match.dl_vlan or 0,
        match.dl_vlan_pcp or 0,
        match.dl_type or 0,
        match.nw_tos or 0,
        match.nw_proto or 0,
        int(match.nw_src.network_address) if match.nw_src else 0,
        int(match.nw_dst.network_address) if match.nw_dst else 0,
        match.tp_src or 0,
        match.tp_dst or 0,
    )


def unpack_match(data: bytes, offset: int = 0) -> Match:
    """Decode a 40-byte ofp_match."""
    if len(data) - offset < _MATCH.size:
        raise CodecError("truncated ofp_match")
    (
        wildcards,
        in_port,
        dl_src,
        dl_dst,
        dl_vlan,
        dl_vlan_pcp,
        dl_type,
        nw_tos,
        nw_proto,
        nw_src,
        nw_dst,
        tp_src,
        tp_dst,
    ) = _MATCH.unpack_from(data, offset)
    nw_src_bits = min(32, wildcards >> OFPFW_NW_SRC_SHIFT & 0x3F)
    nw_dst_bits = min(32, wildcards >> OFPFW_NW_DST_SHIFT & 0x3F)

    def prefix(raw: int, wildcard_bits: int) -> IPv4Network | None:
        if wildcard_bits >= 32:
            return None
        return IPv4Network((raw, 32 - wildcard_bits), strict=False)

    return Match(
        in_port=None if wildcards & OFPFW_IN_PORT else in_port,
        dl_src=None if wildcards & OFPFW_DL_SRC else MacAddress(dl_src),
        dl_dst=None if wildcards & OFPFW_DL_DST else MacAddress(dl_dst),
        dl_type=None if wildcards & OFPFW_DL_TYPE else dl_type,
        dl_vlan=None if wildcards & OFPFW_DL_VLAN else dl_vlan,
        dl_vlan_pcp=None if wildcards & OFPFW_DL_VLAN_PCP else dl_vlan_pcp,
        nw_src=prefix(nw_src, nw_src_bits),
        nw_dst=prefix(nw_dst, nw_dst_bits),
        nw_proto=None if wildcards & OFPFW_NW_PROTO else nw_proto,
        nw_tos=None if wildcards & OFPFW_NW_TOS else nw_tos,
        tp_src=None if wildcards & OFPFW_TP_SRC else tp_src,
        tp_dst=None if wildcards & OFPFW_TP_DST else tp_dst,
    )


# -- actions --------------------------------------------------------------------


def pack_actions(actions: list[Action]) -> bytes:
    """Encode an action list."""
    out = b""
    for action in actions:
        if isinstance(action, Output):
            out += struct.pack("!HHHH", OFPAT_OUTPUT, 8, action.port, 0xFFFF)
        elif isinstance(action, SetVlan):
            out += struct.pack("!HHH2x", OFPAT_SET_VLAN_VID, 8, action.vid)
        elif isinstance(action, StripVlan):
            out += struct.pack("!HH4x", OFPAT_STRIP_VLAN, 8)
        elif isinstance(action, SetDlSrc):
            out += struct.pack("!HH6s6x", OFPAT_SET_DL_SRC, 16, action.mac.packed)
        elif isinstance(action, SetDlDst):
            out += struct.pack("!HH6s6x", OFPAT_SET_DL_DST, 16, action.mac.packed)
        elif isinstance(action, SetNwSrc):
            out += struct.pack("!HHI", OFPAT_SET_NW_SRC, 8, int(action.addr))
        elif isinstance(action, SetNwDst):
            out += struct.pack("!HHI", OFPAT_SET_NW_DST, 8, int(action.addr))
        elif isinstance(action, SetTpSrc):
            out += struct.pack("!HHH2x", OFPAT_SET_TP_SRC, 8, action.port)
        elif isinstance(action, SetTpDst):
            out += struct.pack("!HHH2x", OFPAT_SET_TP_DST, 8, action.port)
        else:
            raise CodecError(f"OpenFlow 1.0 cannot encode {type(action).__name__}")
    return out


def unpack_actions(data: bytes) -> list[Action]:
    """Decode an action list."""
    actions: list[Action] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < 4:
            raise CodecError("truncated action header")
        act_type, act_len = struct.unpack_from("!HH", data, offset)
        if act_len < 8 or offset + act_len > len(data):
            raise CodecError(f"bad action length {act_len}")
        body = data[offset + 4 : offset + act_len]
        if act_type == OFPAT_OUTPUT:
            port, _max_len = struct.unpack_from("!HH", body)
            actions.append(Output(port))
        elif act_type == OFPAT_SET_VLAN_VID:
            (vid,) = struct.unpack_from("!H", body)
            actions.append(SetVlan(vid))
        elif act_type == OFPAT_STRIP_VLAN:
            actions.append(StripVlan())
        elif act_type == OFPAT_SET_DL_SRC:
            actions.append(SetDlSrc(MacAddress(body[:6])))
        elif act_type == OFPAT_SET_DL_DST:
            actions.append(SetDlDst(MacAddress(body[:6])))
        elif act_type == OFPAT_SET_NW_SRC:
            (addr,) = struct.unpack_from("!I", body)
            actions.append(SetNwSrc(IPv4Address(addr)))
        elif act_type == OFPAT_SET_NW_DST:
            (addr,) = struct.unpack_from("!I", body)
            actions.append(SetNwDst(IPv4Address(addr)))
        elif act_type == OFPAT_SET_TP_SRC:
            (port,) = struct.unpack_from("!H", body)
            actions.append(SetTpSrc(port))
        elif act_type == OFPAT_SET_TP_DST:
            (port,) = struct.unpack_from("!H", body)
            actions.append(SetTpDst(port))
        else:
            raise CodecError(f"unknown OpenFlow 1.0 action type {act_type}")
        offset += act_len
    return actions


# -- ports ----------------------------------------------------------------------


def _pack_port(port: m.PortDesc) -> bytes:
    config = OFPPC_PORT_DOWN if port.config_down else 0
    state = OFPPS_LINK_DOWN if port.link_down else 0
    return _PHY_PORT.pack(
        port.port_no,
        port.hw_addr,
        port.name.encode()[:16].ljust(16, b"\x00"),
        config,
        state,
        0,
        0,
        0,
        0,
    )


def _unpack_port(data: bytes, offset: int) -> m.PortDesc:
    port_no, hw_addr, name, config, state, _c, _a, _s, _p = _PHY_PORT.unpack_from(data, offset)
    return m.PortDesc(
        port_no=port_no,
        hw_addr=hw_addr,
        name=name.rstrip(b"\x00").decode(),
        config_down=bool(config & OFPPC_PORT_DOWN),
        link_down=bool(state & OFPPS_LINK_DOWN),
    )


# -- encode ----------------------------------------------------------------------


def encode(msg: m.Message) -> bytes:
    """Serialize a message to OpenFlow 1.0 wire bytes."""
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
        body = _FEATURES_HEAD.pack(msg.dpid, msg.n_buffers, msg.n_tables, msg.capabilities, 0)
        for port in msg.ports:
            body += _pack_port(port)
        return _pack_header(OFPT_FEATURES_REPLY, body, xid)
    if isinstance(msg, m.PacketIn):
        body = _PACKET_IN_HEAD.pack(msg.buffer_id, msg.total_len, msg.in_port, msg.reason.value) + msg.data
        return _pack_header(OFPT_PACKET_IN, body, xid)
    if isinstance(msg, m.PacketOut):
        actions = pack_actions(msg.actions)
        body = _PACKET_OUT_HEAD.pack(msg.buffer_id, msg.in_port, len(actions)) + actions + msg.data
        return _pack_header(OFPT_PACKET_OUT, body, xid)
    if isinstance(msg, m.FlowMod):
        flags = OFPFF_SEND_FLOW_REM if msg.send_flow_rem else 0
        body = pack_match(msg.match) + _FLOW_MOD_TAIL.pack(
            msg.cookie,
            msg.command.value,
            msg.idle_timeout,
            msg.hard_timeout,
            msg.priority,
            msg.buffer_id,
            OFPP_NONE,
            flags,
        )
        return _pack_header(OFPT_FLOW_MOD, body + pack_actions(msg.actions), xid)
    if isinstance(msg, m.FlowRemoved):
        body = pack_match(msg.match) + _FLOW_REMOVED_TAIL.pack(
            msg.cookie,
            msg.priority,
            msg.reason.value,
            msg.duration_sec,
            0,
            msg.idle_timeout,
            msg.packet_count,
            msg.byte_count,
        )
        return _pack_header(OFPT_FLOW_REMOVED, body, xid)
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
        body = _STATS_HEAD.pack(OFPST_PORT, 0) + _PORT_STATS_REQ.pack(msg.port_no)
        return _pack_header(OFPT_STATS_REQUEST, body, xid)
    if isinstance(msg, m.PortStatsReply):
        body = _STATS_HEAD.pack(OFPST_PORT, 0)
        for entry in msg.entries:
            body += _PORT_STATS_ENTRY.pack(
                entry.port_no,
                entry.rx_packets,
                entry.tx_packets,
                entry.rx_bytes,
                entry.tx_bytes,
                entry.tx_dropped,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
            )
        return _pack_header(OFPT_STATS_REPLY, body, xid)
    if isinstance(msg, m.FlowStatsRequest):
        body = _STATS_HEAD.pack(OFPST_FLOW, 0) + pack_match(msg.match) + _FLOW_STATS_REQ_TAIL.pack(msg.table_id, OFPP_NONE)
        return _pack_header(OFPT_STATS_REQUEST, body, xid)
    if isinstance(msg, m.FlowStatsReply):
        body = _STATS_HEAD.pack(OFPST_FLOW, 0)
        for entry in msg.entries:
            actions = pack_actions(entry.actions)
            length = _FLOW_STATS_ENTRY_HEAD.size + _MATCH.size + _FLOW_STATS_ENTRY_MID.size + len(actions)
            body += _FLOW_STATS_ENTRY_HEAD.pack(length, 0)
            body += pack_match(entry.match)
            body += _FLOW_STATS_ENTRY_MID.pack(
                entry.duration_sec,
                0,
                entry.priority,
                entry.idle_timeout,
                entry.hard_timeout,
                entry.cookie,
                entry.packet_count,
                entry.byte_count,
            )
            body += actions
        return _pack_header(OFPT_STATS_REPLY, body, xid)
    if isinstance(msg, m.AggregateStatsRequest):
        body = _STATS_HEAD.pack(OFPST_AGGREGATE, 0) + pack_match(msg.match) + _FLOW_STATS_REQ_TAIL.pack(0xFF, OFPP_NONE)
        return _pack_header(OFPT_STATS_REQUEST, body, xid)
    if isinstance(msg, m.AggregateStatsReply):
        body = _STATS_HEAD.pack(OFPST_AGGREGATE, 0) + _AGG_REPLY.pack(msg.packet_count, msg.byte_count, msg.flow_count)
        return _pack_header(OFPT_STATS_REPLY, body, xid)
    raise CodecError(f"OpenFlow 1.0 cannot encode {type(msg).__name__}")


# -- decode ----------------------------------------------------------------------


def decode(data: bytes) -> tuple[m.Message, bytes]:
    """Parse one message from ``data``; returns (message, remaining bytes)."""
    if len(data) < _HEADER.size:
        raise CodecError("truncated OpenFlow header")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != VERSION:
        raise CodecError(f"not an OpenFlow 1.0 message (version {version})")
    if length < _HEADER.size or len(data) < length:
        raise CodecError("truncated OpenFlow message")
    body = data[_HEADER.size : length]
    rest = data[length:]
    try:
        msg = _decode_body(msg_type, body)
    except (struct.error, IndexError) as exc:
        # A lying length field or corrupted body: fail like any other
        # malformed message rather than leaking struct internals.
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
        dpid, n_buffers, n_tables, capabilities, _actions = _FEATURES_HEAD.unpack_from(body)
        ports = []
        offset = _FEATURES_HEAD.size
        while offset + _PHY_PORT.size <= len(body):
            ports.append(_unpack_port(body, offset))
            offset += _PHY_PORT.size
        return m.FeaturesReply(dpid=dpid, n_buffers=n_buffers, n_tables=n_tables, capabilities=capabilities, ports=ports)
    if msg_type == OFPT_PACKET_IN:
        buffer_id, total_len, in_port, reason = _PACKET_IN_HEAD.unpack_from(body)
        return m.PacketIn(
            buffer_id=buffer_id,
            total_len=total_len,
            in_port=in_port,
            reason=m.PacketInReasonWire(reason),
            data=body[_PACKET_IN_HEAD.size :],
        )
    if msg_type == OFPT_PACKET_OUT:
        buffer_id, in_port, actions_len = _PACKET_OUT_HEAD.unpack_from(body)
        offset = _PACKET_OUT_HEAD.size
        actions = unpack_actions(body[offset : offset + actions_len])
        return m.PacketOut(buffer_id=buffer_id, in_port=in_port, actions=actions, data=body[offset + actions_len :])
    if msg_type == OFPT_FLOW_MOD:
        match = unpack_match(body)
        offset = _MATCH.size
        cookie, command, idle, hard, priority, buffer_id, _out_port, flags = _FLOW_MOD_TAIL.unpack_from(body, offset)
        actions = unpack_actions(body[offset + _FLOW_MOD_TAIL.size :])
        return m.FlowMod(
            match=match,
            command=m.FlowModCommand(command),
            actions=actions,
            priority=priority,
            idle_timeout=idle,
            hard_timeout=hard,
            cookie=cookie,
            buffer_id=buffer_id,
            send_flow_rem=bool(flags & OFPFF_SEND_FLOW_REM),
        )
    if msg_type == OFPT_FLOW_REMOVED:
        match = unpack_match(body)
        cookie, priority, reason, dur_sec, _dur_nsec, idle, packets, octets = _FLOW_REMOVED_TAIL.unpack_from(body, _MATCH.size)
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
        port = _unpack_port(body, _PORT_STATUS_HEAD.size)
        return m.PortStatus(reason=m.PortStatusReason(reason), port=port)
    if msg_type == OFPT_PORT_MOD:
        port_no, hw_addr, config, mask, _advertise = _PORT_MOD.unpack_from(body)
        down = bool(config & OFPPC_PORT_DOWN) if mask & OFPPC_PORT_DOWN else False
        return m.PortMod(port_no=port_no, hw_addr=hw_addr, down=down)
    if msg_type == OFPT_BARRIER_REQUEST:
        return m.BarrierRequest()
    if msg_type == OFPT_BARRIER_REPLY:
        return m.BarrierReply()
    if msg_type in (OFPT_STATS_REQUEST, OFPT_STATS_REPLY):
        return _decode_stats(msg_type, body)
    raise CodecError(f"unknown OpenFlow 1.0 message type {msg_type}")


def _decode_stats(msg_type: int, body: bytes) -> m.Message:
    stats_type, _flags = _STATS_HEAD.unpack_from(body)
    payload = body[_STATS_HEAD.size :]
    if msg_type == OFPT_STATS_REQUEST:
        if stats_type == OFPST_PORT:
            (port_no,) = _PORT_STATS_REQ.unpack_from(payload)
            return m.PortStatsRequest(port_no=port_no)
        if stats_type == OFPST_FLOW:
            match = unpack_match(payload)
            table_id, _out_port = _FLOW_STATS_REQ_TAIL.unpack_from(payload, _MATCH.size)
            return m.FlowStatsRequest(match=match, table_id=table_id)
        if stats_type == OFPST_AGGREGATE:
            return m.AggregateStatsRequest(match=unpack_match(payload))
        raise CodecError(f"unknown stats request type {stats_type}")
    if stats_type == OFPST_PORT:
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
                    tx_dropped=values[5],
                )
            )
            offset += _PORT_STATS_ENTRY.size
        return m.PortStatsReply(entries=entries)
    if stats_type == OFPST_FLOW:
        entries = []
        offset = 0
        while offset + _FLOW_STATS_ENTRY_HEAD.size <= len(payload):
            length, _table = _FLOW_STATS_ENTRY_HEAD.unpack_from(payload, offset)
            if length < _FLOW_STATS_ENTRY_HEAD.size or offset + length > len(payload):
                raise CodecError("bad flow stats entry length")
            entry_match = unpack_match(payload, offset + _FLOW_STATS_ENTRY_HEAD.size)
            mid_offset = offset + _FLOW_STATS_ENTRY_HEAD.size + _MATCH.size
            dur_sec, _dur_nsec, priority, idle, hard, cookie, packets, octets = _FLOW_STATS_ENTRY_MID.unpack_from(payload, mid_offset)
            actions = unpack_actions(payload[mid_offset + _FLOW_STATS_ENTRY_MID.size : offset + length])
            entries.append(
                m.FlowStatsEntry(
                    match=entry_match,
                    priority=priority,
                    duration_sec=dur_sec,
                    idle_timeout=idle,
                    hard_timeout=hard,
                    cookie=cookie,
                    packet_count=packets,
                    byte_count=octets,
                    actions=actions,
                )
            )
            offset += length
        return m.FlowStatsReply(entries=entries)
    if stats_type == OFPST_AGGREGATE:
        packets, octets, flows = _AGG_REPLY.unpack_from(payload)
        return m.AggregateStatsReply(packet_count=packets, byte_count=octets, flow_count=flows)
    raise CodecError(f"unknown stats reply type {stats_type}")
