"""A classic per-switch L2 learning switch application.

Independent of the router daemon: each switch learns MAC -> port from
packet-ins and installs destination-MAC flows.  Useful on single-switch
networks and as the canonical "second application from another source"
(paper section 2: applications come from multiple sources and coexist).
"""

from __future__ import annotations

from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_LLDP
from repro.netpkt.packet import parse_frame
from repro.vfs.errors import FileExists, FsError
from repro.yancfs.client import PacketInEvent
from repro.apps.base import PacketInApp

NO_BUFFER = 0xFFFFFFFF


class LearningSwitchApp(PacketInApp):
    """MAC learning + reactive flow installation, one table per switch."""

    app_name = "l2learn"
    dl_types = "!0x88cc"

    def __init__(self, sc, sim, *, root: str = "/net", flow_idle_timeout: float = 30.0) -> None:
        super().__init__(sc, sim, root=root)
        self.flow_idle_timeout = flow_idle_timeout
        self.tables: dict[str, dict[MacAddress, int]] = {}
        self.flows_installed = 0

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        if frame.eth.eth_type == ETH_TYPE_LLDP:
            return
        table = self.tables.setdefault(event.switch, {})
        if not frame.eth.src.is_multicast:
            table[frame.eth.src] = event.in_port
        out_port = table.get(frame.eth.dst)
        if out_port is None or frame.eth.dst.is_broadcast or frame.eth.dst.is_multicast:
            self._send(event, "flood")
            return
        try:
            self.yc.create_flow(
                event.switch,
                f"l2-{frame.eth.dst}",
                Match(dl_dst=frame.eth.dst),
                [Output(out_port)],
                idle_timeout=self.flow_idle_timeout,
            )
            self.flows_installed += 1
        except (FileExists, FsError):
            pass
        self._send(event, out_port)

    def _send(self, event: PacketInEvent, port: int | str) -> None:
        if event.buffer_id != NO_BUFFER:
            self.yc.packet_out(event.switch, [port], b"", in_port=event.in_port, buffer_id=event.buffer_id, tag=self.app_name)
        else:
            self.yc.packet_out(event.switch, [port], event.data, in_port=event.in_port, tag=self.app_name)
