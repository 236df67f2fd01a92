"""The switch-side OpenFlow agent.

In a real deployment this is the firmware endpoint of the OpenFlow TCP
session.  It binds a :class:`~repro.dataplane.switch.SwitchSim` to one end
of a control channel, negotiates a protocol version with whatever driver is
on the other end, and translates between wire messages and switch
operations.  Because negotiation is per-connection, the same switch can be
moved live between an OpenFlow 1.0 driver and a 1.3 driver — the gradual
upgrade story of paper section 4.1.
"""

from __future__ import annotations

from repro.controlchannel import ControlConnection
from repro.dataplane.flowtable import FlowEntry, FlowRemovedReason
from repro.dataplane.switch import PacketInReason, PortSim, SwitchSim
from repro.openflow import messages as m
from repro.openflow.codec import codec_for, negotiate, peek_version
from repro.openflow.of13 import VERSION as OF13_VERSION

_REASON_TO_WIRE = {
    FlowRemovedReason.IDLE_TIMEOUT: m.FlowRemovedReasonWire.IDLE_TIMEOUT,
    FlowRemovedReason.HARD_TIMEOUT: m.FlowRemovedReasonWire.HARD_TIMEOUT,
    FlowRemovedReason.DELETE: m.FlowRemovedReasonWire.DELETE,
}

_PORT_REASON_TO_WIRE = {
    "add": m.PortStatusReason.ADD,
    "delete": m.PortStatusReason.DELETE,
    "modify": m.PortStatusReason.MODIFY,
}


class SwitchAgent:
    """Glue between one switch and one control connection."""

    def __init__(self, switch: SwitchSim, conn: ControlConnection, *, max_version: int = OF13_VERSION) -> None:
        self.switch = switch
        self.conn = conn
        self.max_version = max_version
        self.version: int | None = None
        self._rx = b""
        self._xid = 0
        self.errors_sent = 0
        conn.on_data = self._on_data
        switch.controller = self

    def start(self) -> None:
        """Open the session by sending our hello."""
        self._send(m.Hello(version=self.max_version))

    def detach(self) -> None:
        """Unbind from the switch and stop processing (driver migration)."""
        if self.switch.controller is self:
            self.switch.controller = None
        self.conn.on_data = None

    # -- outbound -------------------------------------------------------------------

    def _next_xid(self) -> int:
        self._xid += 1
        return self._xid

    def _send(self, msg: m.Message) -> None:
        if msg.xid == 0:
            msg.xid = self._next_xid()
        version = self.version if self.version is not None else self.max_version
        self.conn.send(codec_for(version).encode(msg))

    # -- ControllerHooks (switch -> wire) -------------------------------------------

    def packet_in(
        self,
        switch: SwitchSim,
        in_port: int,
        reason: PacketInReason,
        buffer_id: int,
        data: bytes,
        total_len: int,
    ) -> None:
        wire_reason = m.PacketInReasonWire.NO_MATCH if reason is PacketInReason.NO_MATCH else m.PacketInReasonWire.ACTION
        self._send(
            m.PacketIn(buffer_id=buffer_id, total_len=total_len, in_port=in_port, reason=wire_reason, data=data)
        )

    def flow_removed(self, switch: SwitchSim, entry: FlowEntry, reason: FlowRemovedReason) -> None:
        self._send(
            m.FlowRemoved(
                match=entry.match,
                cookie=entry.cookie,
                priority=entry.priority,
                reason=_REASON_TO_WIRE[reason],
                duration_sec=int(self.switch.sim.now - entry.installed_at),
                idle_timeout=int(entry.idle_timeout),
                packet_count=entry.packet_count,
                byte_count=entry.byte_count,
            )
        )

    def port_status(self, switch: SwitchSim, port: PortSim, reason: str) -> None:
        self._send(m.PortStatus(reason=_PORT_REASON_TO_WIRE[reason], port=self._port_desc(port)))

    @staticmethod
    def _port_desc(port: PortSim) -> m.PortDesc:
        return m.PortDesc(
            port_no=port.port_no,
            hw_addr=port.mac.packed,
            name=port.name,
            config_down=not port.admin_up,
            link_down=not port.link_up,
        )

    # -- inbound (wire -> switch) ------------------------------------------------------

    def _on_data(self, data: bytes) -> None:
        """Reassemble and handle wire messages; an undecodable one is answered
        with an error and skipped by its length, and a length below the
        8-byte header (the framing is lost) with one ``BAD_LEN`` error and
        the buffered bytes dropped."""
        self._rx += data
        while len(self._rx) >= 8:
            length = int.from_bytes(self._rx[2:4], "big")
            if length < 8:
                self.errors_sent += 1
                self._send(m.ErrorMsg(err_type=m.OFPET_BAD_REQUEST, err_code=m.OFPBRC_BAD_LEN, data=self._rx[:64]))
                self._rx = b""
                return
            if len(self._rx) < length:
                return
            try:
                version = peek_version(self._rx)
                msg, self._rx = codec_for(version).decode(self._rx)
            except ValueError:  # a CodecError, or a field outside its enum
                self.errors_sent += 1
                self._send(m.ErrorMsg(err_type=m.OFPET_BAD_REQUEST, err_code=m.OFPBRC_BAD_VERSION))
                self._rx = self._rx[length:]
                continue
            self._handle(msg, version)

    def _handle(self, msg: m.Message, version: int) -> None:
        if isinstance(msg, m.Hello):
            self.version = negotiate(self.max_version, msg.version)
            return
        if isinstance(msg, m.EchoRequest):
            self._send(m.EchoReply(payload=msg.payload, xid=msg.xid))
        elif isinstance(msg, m.FeaturesRequest):
            self._send(self._features_reply(msg.xid))
        elif isinstance(msg, m.PortDescRequest):
            ports = [self._port_desc(p) for _, p in sorted(self.switch.ports.items())]
            self._send(m.PortDescReply(ports=ports, xid=msg.xid))
        elif isinstance(msg, m.FlowMod):
            self._apply_flow_mod(msg)
        elif isinstance(msg, m.PacketOut):
            self.switch.packet_out(msg.actions, buffer_id=msg.buffer_id, data=msg.data, in_port=msg.in_port)
        elif isinstance(msg, m.PortMod):
            port = self.switch.ports.get(msg.port_no)
            if port is not None:
                port.set_admin_up(not msg.down)
        elif isinstance(msg, m.BarrierRequest):
            self._send(m.BarrierReply(xid=msg.xid))
        elif isinstance(msg, m.PortStatsRequest):
            self._send(self._port_stats_reply(msg))
        elif isinstance(msg, m.FlowStatsRequest):
            self._send(self._flow_stats_reply(msg))
        elif isinstance(msg, m.AggregateStatsRequest):
            stats = self.switch.table.aggregate_stats()
            self._send(
                m.AggregateStatsReply(
                    packet_count=stats["packet_count"],
                    byte_count=stats["byte_count"],
                    flow_count=stats["flow_count"],
                    xid=msg.xid,
                )
            )

    def _features_reply(self, xid: int) -> m.FeaturesReply:
        ports: list[m.PortDesc] = []
        if self.version != OF13_VERSION:
            # 1.0 inlines ports; 1.3 drivers fetch them via port-desc.
            ports = [self._port_desc(p) for _, p in sorted(self.switch.ports.items())]
        return m.FeaturesReply(
            dpid=self.switch.dpid,
            n_buffers=self.switch.num_buffers,
            n_tables=len(self.switch.tables),
            capabilities=0b111,  # flow/table/port stats
            ports=ports,
            xid=xid,
        )

    def _apply_flow_mod(self, msg: m.FlowMod) -> None:
        command = msg.command
        if command is m.FlowModCommand.ADD:
            entry = FlowEntry(
                match=msg.match,
                actions=list(msg.actions),
                priority=msg.priority,
                cookie=msg.cookie,
                idle_timeout=float(msg.idle_timeout),
                hard_timeout=float(msg.hard_timeout),
            )
            self.switch.install_flow(entry, buffer_id=msg.buffer_id)
        elif command in (m.FlowModCommand.MODIFY, m.FlowModCommand.MODIFY_STRICT):
            strict = command is m.FlowModCommand.MODIFY_STRICT
            self.switch.table.modify(msg.match, list(msg.actions), strict=strict, priority=msg.priority)
        else:
            strict = command is m.FlowModCommand.DELETE_STRICT
            self.switch.delete_flows(
                msg.match, strict=strict, priority=msg.priority, notify=msg.send_flow_rem
            )

    def _port_stats_reply(self, msg: m.PortStatsRequest) -> m.PortStatsReply:
        if msg.port_no in (0xFFFF, 0xFFFFFFFF):
            ports = [p for _, p in sorted(self.switch.ports.items())]
        else:
            port = self.switch.ports.get(msg.port_no)
            ports = [port] if port is not None else []
        entries = [
            m.PortStatsEntry(
                port_no=p.port_no,
                rx_packets=p.rx_packets,
                tx_packets=p.tx_packets,
                rx_bytes=p.rx_bytes,
                tx_bytes=p.tx_bytes,
                tx_dropped=p.tx_dropped,
            )
            for p in ports
        ]
        return m.PortStatsReply(entries=entries, xid=msg.xid)

    def _flow_stats_reply(self, msg: m.FlowStatsRequest) -> m.FlowStatsReply:
        now = self.switch.sim.now
        entries = [
            m.FlowStatsEntry(
                match=entry.match,
                priority=entry.priority,
                duration_sec=int(now - entry.installed_at),
                idle_timeout=int(entry.idle_timeout),
                hard_timeout=int(entry.hard_timeout),
                cookie=entry.cookie,
                packet_count=entry.packet_count,
                byte_count=entry.byte_count,
                actions=list(entry.actions),
            )
            for entry in self.switch.table.entries()
            if entry.match.is_subset_of(msg.match)
        ]
        return m.FlowStatsReply(entries=entries, xid=msg.xid)
