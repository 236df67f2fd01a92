"""A layer-4 load balancer application.

A virtual IP fronts a pool of backends; the first packet of each client
flow punts to the controller, which picks a backend round-robin and
installs a pair of rewrite flows (VIP -> backend on the forward path,
backend -> VIP on the reverse path).  This is the "load balancing" class
of value-added application the paper's conclusion says yanc should free
researchers to focus on.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network

from repro.dataplane.actions import Output, SetDlDst, SetNwDst, SetNwSrc
from repro.dataplane.match import Match
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_IPV4
from repro.netpkt.packet import parse_frame
from repro.vfs.errors import FileExists, FsError
from repro.yancfs.client import PacketInEvent
from repro.apps.base import PacketInApp

NO_BUFFER = 0xFFFFFFFF


@dataclass(frozen=True)
class Backend:
    """One real server behind the VIP."""

    ip: IPv4Address
    mac: MacAddress
    switch: str
    port: int


class LoadBalancer(PacketInApp):
    """Round-robin VIP load balancing with flow-level stickiness."""

    app_name = "lb"
    dl_types = "0x0800"

    def __init__(self, sc, sim, *, vip: str, root: str = "/net", flow_idle_timeout: float = 30.0) -> None:
        super().__init__(sc, sim, root=root)
        self.vip = IPv4Address(vip)
        self.flow_idle_timeout = flow_idle_timeout
        self.backends: list[Backend] = []
        self._next_backend = 0
        #: client ip -> backend, for stickiness across flows.
        self.assignments: dict[IPv4Address, Backend] = {}
        self.connections_balanced = 0

    def add_backend(self, ip: str, mac: str, switch: str, port: int) -> None:
        """Register a backend server and where it attaches."""
        self.backends.append(Backend(ip=IPv4Address(ip), mac=MacAddress(mac), switch=switch, port=port))

    def _pick(self, client_ip: IPv4Address) -> Backend | None:
        if not self.backends:
            return None
        assigned = self.assignments.get(client_ip)
        if assigned is not None and assigned in self.backends:
            return assigned
        backend = self.backends[self._next_backend % len(self.backends)]
        self._next_backend += 1
        self.assignments[client_ip] = backend
        return backend

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        if frame.ipv4 is None or frame.ipv4.dst != self.vip:
            return
        backend = self._pick(frame.ipv4.src)
        if backend is None:
            return
        if backend.switch != event.switch:
            return  # only balance at the backend's own switch in this app
        client_ip = frame.ipv4.src
        tag = f"{client_ip}".replace(".", "-")
        try:
            # Forward: client -> VIP rewritten to the chosen backend.
            self.yc.create_flow(
                event.switch,
                f"lb-fwd-{tag}",
                Match(dl_type=ETH_TYPE_IPV4, nw_src=IPv4Network(f"{client_ip}/32"), nw_dst=IPv4Network(f"{self.vip}/32")),
                [SetNwDst(backend.ip), SetDlDst(backend.mac), Output(backend.port)],
                idle_timeout=self.flow_idle_timeout,
            )
            # Reverse: backend -> client rewritten back to the VIP.
            self.yc.create_flow(
                event.switch,
                f"lb-rev-{tag}",
                Match(dl_type=ETH_TYPE_IPV4, nw_src=IPv4Network(f"{backend.ip}/32"), nw_dst=IPv4Network(f"{client_ip}/32")),
                [SetNwSrc(self.vip), Output(event.in_port)],
                idle_timeout=self.flow_idle_timeout,
            )
        except (FileExists, FsError):
            pass
        self.connections_balanced += 1
        # Release the trigger packet through the rewrite.
        actions_path = [backend.port]
        if event.buffer_id != NO_BUFFER:
            # Buffered release cannot rewrite via the spool; resend payload.
            pass
        frame.ipv4.dst = backend.ip
        frame.eth.dst = backend.mac
        try:
            self.yc.packet_out(event.switch, actions_path, frame.repack(), tag=self.app_name)
        except FsError:
            pass
