"""Version-independent OpenFlow messages.

Drivers and switch agents think in these dataclasses; the version codecs
(:mod:`repro.openflow.of10`, :mod:`repro.openflow.of13`) turn them into the
wire bytes of a concrete protocol version.  This split is what lets a yanc
deployment run OpenFlow 1.0 and 1.3 drivers side by side (paper section
4.1) with the same upper layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dataplane.actions import Action
from repro.dataplane.match import Match

#: "Not buffered" sentinel shared by both protocol versions.
NO_BUFFER = 0xFFFFFFFF

#: ``ErrorMsg`` type and codes (same numeric values in 1.0 and 1.3).
OFPET_BAD_REQUEST = 1
OFPBRC_BAD_VERSION = 0
OFPBRC_BAD_LEN = 6


class FlowModCommand(enum.Enum):
    """flow-mod commands (same numeric values in 1.0 and 1.3)."""

    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class PacketInReasonWire(enum.Enum):
    """packet-in reasons."""

    NO_MATCH = 0
    ACTION = 1


class FlowRemovedReasonWire(enum.Enum):
    """flow-removed reasons."""

    IDLE_TIMEOUT = 0
    HARD_TIMEOUT = 1
    DELETE = 2


class PortStatusReason(enum.Enum):
    """port-status reasons."""

    ADD = 0
    DELETE = 1
    MODIFY = 2


class Message:
    """Base class for all protocol messages (carries the transaction id)."""

    xid: int = 0


@dataclass
class Hello(Message):
    """Version negotiation opener; ``version`` is the sender's maximum."""

    version: int
    xid: int = 0


@dataclass
class EchoRequest(Message):
    """Liveness probe."""

    payload: bytes = b""
    xid: int = 0


@dataclass
class EchoReply(Message):
    """Echo answer (payload mirrored)."""

    payload: bytes = b""
    xid: int = 0


@dataclass
class ErrorMsg(Message):
    """An error report; ``data`` holds the offending message prefix."""

    err_type: int = 0
    err_code: int = 0
    data: bytes = b""
    xid: int = 0


@dataclass
class FeaturesRequest(Message):
    """Ask the switch to describe itself."""

    xid: int = 0


@dataclass
class PortDesc:
    """One physical port in a features reply / port-status / port-desc."""

    port_no: int
    hw_addr: bytes
    name: str
    config_down: bool = False
    link_down: bool = False


@dataclass
class FeaturesReply(Message):
    """The switch description.

    OpenFlow 1.0 inlines the port list; 1.3 sends ports via a separate
    port-desc multipart exchange, so ``ports`` may be empty there.
    """

    dpid: int = 0
    n_buffers: int = 0
    n_tables: int = 1
    capabilities: int = 0
    ports: list[PortDesc] = field(default_factory=list)
    xid: int = 0


@dataclass
class PortDescRequest(Message):
    """OF 1.3 multipart port-desc request (no-op for 1.0 codecs)."""

    xid: int = 0


@dataclass
class PortDescReply(Message):
    """OF 1.3 multipart port-desc reply."""

    ports: list[PortDesc] = field(default_factory=list)
    xid: int = 0


@dataclass
class PacketIn(Message):
    """A punted packet."""

    buffer_id: int = NO_BUFFER
    total_len: int = 0
    in_port: int = 0
    reason: PacketInReasonWire = PacketInReasonWire.NO_MATCH
    data: bytes = b""
    xid: int = 0


@dataclass
class PacketOut(Message):
    """Inject a packet through an action list."""

    buffer_id: int = NO_BUFFER
    in_port: int = 0
    actions: list[Action] = field(default_factory=list)
    data: bytes = b""
    xid: int = 0


@dataclass
class FlowMod(Message):
    """Install / modify / delete flow entries."""

    match: Match = field(default_factory=Match)
    command: FlowModCommand = FlowModCommand.ADD
    actions: list[Action] = field(default_factory=list)
    priority: int = 0x8000
    idle_timeout: int = 0
    hard_timeout: int = 0
    cookie: int = 0
    buffer_id: int = NO_BUFFER
    table_id: int = 0
    send_flow_rem: bool = False
    xid: int = 0


@dataclass
class FlowRemoved(Message):
    """Notification that an entry left the table."""

    match: Match = field(default_factory=Match)
    cookie: int = 0
    priority: int = 0x8000
    reason: FlowRemovedReasonWire = FlowRemovedReasonWire.IDLE_TIMEOUT
    duration_sec: int = 0
    idle_timeout: int = 0
    packet_count: int = 0
    byte_count: int = 0
    xid: int = 0


@dataclass
class PortStatus(Message):
    """Notification of a port change."""

    reason: PortStatusReason = PortStatusReason.MODIFY
    port: PortDesc = field(default_factory=lambda: PortDesc(0, b"\x00" * 6, ""))
    xid: int = 0


@dataclass
class PortMod(Message):
    """Controller request to change port config (admin up/down)."""

    port_no: int = 0
    hw_addr: bytes = b"\x00" * 6
    down: bool = False
    xid: int = 0


@dataclass
class BarrierRequest(Message):
    """Fence: reply only after all earlier messages are processed."""

    xid: int = 0


@dataclass
class BarrierReply(Message):
    """Barrier acknowledgement."""

    xid: int = 0


@dataclass
class PortStatsRequest(Message):
    """Ask for counters of one port (or all with OFPP_NONE/ANY)."""

    port_no: int = 0xFFFF
    xid: int = 0


@dataclass
class PortStatsEntry:
    """Counters for one port."""

    port_no: int
    rx_packets: int = 0
    tx_packets: int = 0
    rx_bytes: int = 0
    tx_bytes: int = 0
    tx_dropped: int = 0


@dataclass
class PortStatsReply(Message):
    """Port counters."""

    entries: list[PortStatsEntry] = field(default_factory=list)
    xid: int = 0


@dataclass
class FlowStatsRequest(Message):
    """Ask for per-flow statistics for entries matching ``match``."""

    match: Match = field(default_factory=Match)
    table_id: int = 0xFF
    xid: int = 0


@dataclass
class FlowStatsEntry:
    """Statistics for one flow entry."""

    match: Match
    priority: int = 0x8000
    duration_sec: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    cookie: int = 0
    packet_count: int = 0
    byte_count: int = 0
    actions: list[Action] = field(default_factory=list)


@dataclass
class FlowStatsReply(Message):
    """Per-flow statistics."""

    entries: list[FlowStatsEntry] = field(default_factory=list)
    xid: int = 0


@dataclass
class AggregateStatsRequest(Message):
    """Ask for table-wide aggregate statistics."""

    match: Match = field(default_factory=Match)
    xid: int = 0


@dataclass
class AggregateStatsReply(Message):
    """Aggregate packet/byte/flow counts."""

    packet_count: int = 0
    byte_count: int = 0
    flow_count: int = 0
    xid: int = 0
