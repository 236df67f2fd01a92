"""The ARP responder daemon.

"There should be a distinct application for each protocol the network
needs to support such as DHCP, ARP, and LLDP" (paper section 2).  This
daemon proxies ARP: it learns IP -> MAC bindings from traffic (and from
the ``/net/hosts`` records other daemons keep), answers requests directly
with a crafted reply via packet-out, and thereby suppresses network-wide
ARP floods.
"""

from __future__ import annotations

from ipaddress import IPv4Address

from repro.netpkt.addr import MacAddress
from repro.netpkt.arp import ARP_REQUEST, Arp
from repro.netpkt.ethernet import ETH_TYPE_ARP, Ethernet
from repro.netpkt.packet import build_frame, parse_frame
from repro.vfs.errors import FsError
from repro.yancfs.client import PacketInEvent, read_object
from repro.apps.base import PacketInApp


class ArpResponder(PacketInApp):
    """Proxy ARP from the controller."""

    app_name = "arpd"

    def __init__(self, sc, sim, *, root: str = "/net", record_hosts: bool = True) -> None:
        super().__init__(sc, sim, root=root)
        self.record_hosts = record_hosts
        self.bindings: dict[IPv4Address, MacAddress] = {}
        self.replies_sent = 0
        self.requests_seen = 0

    def on_start(self) -> None:
        super().on_start()
        self._load_recorded_hosts()

    def _load_recorded_hosts(self) -> None:
        try:
            names = self.yc.hosts()
        except FsError:
            return
        for name in names:
            try:
                fields = read_object(self.sc, f"{self.yc.root}/hosts/{name}")
                mac, ip_text = fields["mac"].decode().strip(), fields["ip"].decode().strip()
                if mac and ip_text:
                    self.bindings[IPv4Address(ip_text)] = MacAddress(mac)
            except (FsError, KeyError, ValueError):
                continue

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        if not isinstance(frame.inner, Arp):
            return
        arp = frame.inner
        self._learn(arp.sender_ip, arp.sender_mac)
        if arp.opcode != ARP_REQUEST:
            return
        self.requests_seen += 1
        target_mac = self.bindings.get(arp.target_ip)
        if target_mac is None:
            return  # unknown: let the router/learning app flood it
        reply = Arp(
            opcode=2,
            sender_mac=target_mac,
            sender_ip=arp.target_ip,
            target_mac=arp.sender_mac,
            target_ip=arp.sender_ip,
        )
        raw = build_frame(Ethernet(dst=arp.sender_mac, src=target_mac, eth_type=ETH_TYPE_ARP), reply)
        try:
            self.yc.packet_out(event.switch, [event.in_port], raw, tag=self.app_name)
            self.replies_sent += 1
        except FsError:
            pass

    def _learn(self, ip_addr: IPv4Address, mac: MacAddress) -> None:
        if mac.is_multicast or int(mac) == 0:
            return
        known = self.bindings.get(ip_addr)
        self.bindings[ip_addr] = mac
        if known == mac or not self.record_hosts:
            return
        try:
            name = str(mac)
            base = f"{self.yc.root}/hosts/{name}"
            if not self.sc.exists(base):
                self.yc.create_host(name, mac=name, ip_addr=str(ip_addr))
            else:
                self.sc.write_text(f"{base}/ip", str(ip_addr))
        except FsError:
            pass
