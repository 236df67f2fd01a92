"""A DHCP address-assignment daemon.

The second of the paper's example per-protocol daemons (section 2).  The
wire format is a deliberately simplified DHCP-over-UDP (ports 67/68)
exchange — ``DISCOVER`` broadcast in, unicast ``OFFER`` out — because the
hosts in the dataplane simulator have no full DHCP client; what matters
for the reproduction is the yanc-side shape: a standalone daemon that owns
one protocol, consumes packet-ins, allocates from a pool, records leases
under ``/net/hosts``, and answers via packet-out.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_IPV4, Ethernet
from repro.netpkt.ipv4 import IPPROTO_UDP, IPv4
from repro.netpkt.packet import build_frame, parse_frame
from repro.netpkt.transport import Udp
from repro.vfs.errors import FsError
from repro.yancfs.client import PacketInEvent
from repro.apps.base import PacketInApp

DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68

#: Simplified payloads: b"DHCPDISCOVER" in, b"DHCPOFFER <ip>" out.
DISCOVER = b"DHCPDISCOVER"
OFFER_PREFIX = b"DHCPOFFER "


def make_discover(mac: MacAddress, src_ip: str = "0.0.0.0") -> bytes:
    """Craft a client DISCOVER broadcast (test/bench helper)."""
    return build_frame(
        Ethernet(dst="ff:ff:ff:ff:ff:ff", src=mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=IPv4Address(src_ip), dst=IPv4Address("255.255.255.255"), proto=IPPROTO_UDP),
        Udp(src_port=DHCP_CLIENT_PORT, dst_port=DHCP_SERVER_PORT, payload=DISCOVER),
    )


class DhcpServer(PacketInApp):
    """Lease allocator: one pool, persistent leases in ``/net/hosts``."""

    app_name = "dhcpd"
    dl_types = "0x0800"

    def __init__(
        self,
        sc,
        sim,
        *,
        root: str = "/net",
        pool: str = "10.1.0.0/24",
        server_mac: str = "02:dc:dc:00:00:01",
        server_ip: str = "10.1.0.1",
    ) -> None:
        super().__init__(sc, sim, root=root)
        self.pool = IPv4Network(pool)
        self.server_mac = MacAddress(server_mac)
        self.server_ip = IPv4Address(server_ip)
        self.leases: dict[MacAddress, IPv4Address] = {}
        self._allocator = (host for host in self.pool.hosts() if host != self.server_ip)
        self.offers_sent = 0

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        inner = frame.inner
        if not isinstance(inner, Udp) or inner.dst_port != DHCP_SERVER_PORT:
            return
        if not inner.payload.startswith(DISCOVER):
            return
        client_mac = frame.eth.src
        lease = self.leases.get(client_mac)
        if lease is None:
            try:
                lease = next(self._allocator)
            except StopIteration:
                return  # pool exhausted
            self.leases[client_mac] = lease
            self._record_lease(client_mac, lease)
        offer = build_frame(
            Ethernet(dst=client_mac, src=self.server_mac, eth_type=ETH_TYPE_IPV4),
            IPv4(src=self.server_ip, dst=lease, proto=IPPROTO_UDP),
            Udp(src_port=DHCP_SERVER_PORT, dst_port=DHCP_CLIENT_PORT, payload=OFFER_PREFIX + str(lease).encode()),
        )
        try:
            self.yc.packet_out(event.switch, [event.in_port], offer, tag=self.app_name)
            self.offers_sent += 1
        except FsError:
            pass

    def _record_lease(self, mac: MacAddress, lease: IPv4Address) -> None:
        try:
            name = str(mac)
            base = f"{self.yc.root}/hosts/{name}"
            if not self.sc.exists(base):
                self.yc.create_host(name, mac=name, ip_addr=str(lease))
            else:
                self.sc.write_text(f"{base}/ip", str(lease))
        except FsError:
            pass
