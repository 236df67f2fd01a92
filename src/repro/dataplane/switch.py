"""The switch simulator: ports, pipeline, buffers, controller hooks."""

from __future__ import annotations

import enum
from typing import Protocol

from repro.dataplane.actions import (
    ALL,
    FLOOD,
    IN_PORT,
    LOCAL,
    TO_CONTROLLER,
    Action,
    Output,
)
from repro.dataplane.flowtable import FlowEntry, FlowRemovedReason, FlowTable
from repro.dataplane.link import Link
from repro.netpkt.addr import MacAddress
from repro.netpkt.packet import Frame, parse_frame
from repro.sim import Simulator

#: OpenFlow's "packet is not buffered" sentinel.
NO_BUFFER = 0xFFFFFFFF


class PacketInReason(enum.Enum):
    """Why a packet was punted to the controller."""

    NO_MATCH = "no_match"
    ACTION = "action"


class ControllerHooks(Protocol):
    """What a switch expects from its control-plane agent."""

    def packet_in(
        self,
        switch: "SwitchSim",
        in_port: int,
        reason: PacketInReason,
        buffer_id: int,
        data: bytes,
        total_len: int,
    ) -> None:
        """A packet was punted."""
        ...

    def flow_removed(self, switch: "SwitchSim", entry: FlowEntry, reason: FlowRemovedReason) -> None:
        """A flow entry timed out or was deleted."""
        ...

    def port_status(self, switch: "SwitchSim", port: "PortSim", reason: str) -> None:
        """A port was added, deleted, or changed state."""
        ...


class PortSim:
    """One switch port: a link endpoint with counters and admin state."""

    def __init__(self, switch: "SwitchSim", port_no: int, name: str, mac: MacAddress) -> None:
        self.switch = switch
        self.port_no = port_no
        self.name = name
        self.mac = mac
        self.link: Link | None = None
        self.admin_up = True  # config: controller-settable (config.port_down)
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.tx_dropped = 0

    @property
    def endpoint_name(self) -> str:
        return f"{self.switch.name}:{self.port_no}"

    @property
    def link_up(self) -> bool:
        """Carrier: an attached, administratively-up link."""
        return self.link is not None and self.link.up

    @property
    def is_up(self) -> bool:
        """Usable for forwarding: admin up and carrier present."""
        return self.admin_up and self.link_up

    def handle_frame(self, frame: Frame) -> None:
        """Link delivery entry point."""
        if not self.admin_up:
            return
        self.rx_packets += 1
        self.rx_bytes += len(frame.raw)
        self.switch.ingress(self, frame)

    def transmit(self, frame: Frame) -> None:
        """Send a frame out this port."""
        if not self.is_up:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(frame.raw)
        assert self.link is not None
        self.link.transmit(self, frame)

    def set_admin_up(self, up: bool) -> None:
        """Controller port-mod: bring the port up or down."""
        if up == self.admin_up:
            return
        self.admin_up = up
        self.switch.notify_port_status(self, "modify")

    def counters(self) -> dict[str, int]:
        """Per-port counters as exposed in the yanc ``counters/`` dir: what a port-stats reply carries, and a device mirrors."""
        return {
            "rx_packets": self.rx_packets,
            "tx_packets": self.tx_packets,
            "rx_bytes": self.rx_bytes,
            "tx_bytes": self.tx_bytes,
            "tx_dropped": self.tx_dropped,
        }


class SwitchSim:
    """An OpenFlow-style switch: flow tables + ports + packet buffers."""

    def __init__(
        self,
        dpid: int,
        name: str,
        sim: Simulator,
        *,
        num_buffers: int = 256,
        num_tables: int = 1,
    ) -> None:
        if not 0 < num_tables <= 255:
            raise ValueError(f"num_tables must be in 1..255, got {num_tables}")
        self.dpid = dpid
        self.name = name
        self.sim = sim
        self.num_buffers = num_buffers
        self.tables = [FlowTable(table_id=i) for i in range(num_tables)]
        self.ports: dict[int, PortSim] = {}
        self.controller: ControllerHooks | None = None
        self._buffers: dict[int, tuple[int, bytes]] = {}  # buffer_id -> (in_port, raw)
        self._next_buffer = 1
        self._expiry_task = None
        self.miss_send_len = 128
        self.rx_errors = 0

    @property
    def table(self) -> FlowTable:
        """Table 0, the single-table pipeline used by OpenFlow 1.0."""
        return self.tables[0]

    # -- ports -------------------------------------------------------------------

    def add_port(self, port_no: int | None = None, *, name: str = "", mac: MacAddress | None = None) -> PortSim:
        """Create a port (auto-numbered from 1 when ``port_no`` is None)."""
        if port_no is None:
            port_no = max(self.ports, default=0) + 1
        if port_no in self.ports:
            raise ValueError(f"port {port_no} already exists on {self.name}")
        if mac is None:
            mac = MacAddress((self.dpid << 16 | port_no) & ((1 << 48) - 1) | 0x02_00_00_00_00_00)
        port = PortSim(self, port_no, name or f"{self.name}-eth{port_no}", mac)
        self.ports[port_no] = port
        self.notify_port_status(port, "add")
        return port

    def remove_port(self, port_no: int) -> None:
        """Delete a port (its link must already be detached)."""
        port = self.ports.pop(port_no)
        self.notify_port_status(port, "delete")

    def notify_port_status(self, port: PortSim, reason: str) -> None:
        """Tell the agent about a port change."""
        if self.controller is not None:
            self.controller.port_status(self, port, reason)

    # -- pipeline ----------------------------------------------------------------

    def ingress(self, port: PortSim, frame: Frame) -> None:
        """Run a received frame through the flow table.

        Only the first switch a frame reaches parses it; one that cannot be
        parsed is counted in ``rx_errors`` here and goes no further.
        """
        try:
            key = frame.parse().key
        except ValueError:
            self.rx_errors += 1
            return
        entry = self.table.lookup(key, port.port_no)
        if entry is None:
            self._punt(port.port_no, frame.raw, PacketInReason.NO_MATCH)
            return
        entry.hit(self.sim.now, len(frame.raw))
        self.apply_actions(entry.actions, frame, port.port_no)

    def apply_actions(self, actions: list[Action], frame: Frame, in_port: int) -> None:
        """Apply an action list: rewrites accumulate, outputs emit.

        ``frame`` may be on other links too, so it is never modified: the
        first rewrite after an output works on a private copy,
        ``parse_frame(frame.raw)``, which is repacked into a new frame
        before its own output.
        """
        copy = None
        for action in actions:
            if isinstance(action, Output):
                if copy is not None:
                    frame = Frame(copy.repack(), copy)
                    copy = None
                self._output(action.port, frame, in_port)
            else:
                if copy is None:
                    copy = parse_frame(frame.raw)
                action.apply(copy)

    def _output(self, out_port: int, frame: Frame, in_port: int) -> None:
        if out_port == TO_CONTROLLER:
            self._punt(in_port, frame.raw, PacketInReason.ACTION)
        elif out_port in (FLOOD, ALL):
            for port in self.ports.values():
                if port.port_no == in_port:
                    continue
                if out_port == FLOOD and not port.is_up:
                    continue
                port.transmit(frame)
        elif out_port == IN_PORT:
            self._transmit_on(in_port, frame)
        elif out_port == LOCAL:
            return  # no local networking stack in the simulator
        elif out_port != in_port:  # back out of the ingress port only as IN_PORT (OpenFlow): else dropped
            self._transmit_on(out_port, frame)

    def _transmit_on(self, port_no: int, frame: Frame) -> None:
        port = self.ports.get(port_no)
        if port is not None:
            port.transmit(frame)

    def _punt(self, in_port: int, raw: bytes, reason: PacketInReason) -> None:
        if self.controller is None:
            return
        if len(self._buffers) < self.num_buffers:
            buffer_id = self._next_buffer
            self._next_buffer += 1
            self._buffers[buffer_id] = (in_port, raw)
            data = raw[: self.miss_send_len]
        else:
            buffer_id = NO_BUFFER
            data = raw
        self.controller.packet_in(self, in_port, reason, buffer_id, data, len(raw))

    # -- controller-facing operations ------------------------------------------------

    def install_flow(self, entry: FlowEntry, *, buffer_id: int = NO_BUFFER) -> FlowEntry:
        """Install an entry; a buffered packet is released through it."""
        self.table.install(entry, now=self.sim.now)
        if buffer_id != NO_BUFFER:
            buffered = self._buffers.pop(buffer_id, None)
            if buffered is not None:
                in_port, raw = buffered
                entry.hit(self.sim.now, len(raw))
                self.apply_actions(entry.actions, Frame(raw), in_port)
        return entry

    def delete_flows(self, match, *, strict: bool = False, priority: int = 0x8000, notify: bool = False) -> int:
        """Delete matching entries; optionally send flow-removed."""
        removed = self.table.delete(match, strict=strict, priority=priority)
        if notify and self.controller is not None:
            for entry in removed:
                self.controller.flow_removed(self, entry, FlowRemovedReason.DELETE)
        return len(removed)

    def packet_out(self, actions: list[Action], *, buffer_id: int = NO_BUFFER, data: bytes = b"", in_port: int = 0) -> None:
        """Inject a packet through an action list (OpenFlow packet-out)."""
        if buffer_id != NO_BUFFER:
            buffered = self._buffers.pop(buffer_id, None)
            if buffered is None:
                return
            in_port, raw = buffered
        else:
            raw = data
        if not raw:
            return
        frame = Frame(raw)
        frame.parse()  # a frame that cannot be parsed is refused with ValueError
        self.apply_actions(actions, frame, in_port)

    def start_expiry(self, interval: float = 1.0) -> None:
        """Begin the periodic timeout sweep (sends flow-removed)."""
        if self._expiry_task is not None:
            return
        self._expiry_task = self.sim.every(interval, self._sweep)

    def stop_expiry(self) -> None:
        """Stop the timeout sweep."""
        if self._expiry_task is not None:
            self._expiry_task.stop()
            self._expiry_task = None

    def _sweep(self) -> None:
        for table in self.tables:
            for entry, reason in table.expire(self.sim.now):
                if self.controller is not None:
                    self.controller.flow_removed(self, entry, reason)
