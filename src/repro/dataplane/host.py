"""End hosts: a tiny IP stack good enough to prove connectivity.

Hosts answer ARP, reply to pings, and can send UDP datagrams — the traffic
the example applications (reactive router, ARP responder, firewall, load
balancer) are demonstrated with.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address

from repro.dataplane.link import Link
from repro.netpkt.addr import BROADCAST_MAC, MacAddress, ip
from repro.netpkt.arp import ARP_REQUEST, Arp
from repro.netpkt.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, Ethernet
from repro.netpkt.ipv4 import ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, IPPROTO_ICMP, IPPROTO_UDP, Icmp, IPv4
from repro.netpkt.packet import Frame, ParsedFrame, build_frame, parse_frame
from repro.netpkt.transport import Udp
from repro.sim import Simulator


@dataclass
class PingResult:
    """One completed echo exchange."""

    seq: int
    rtt: float


class HostSim:
    """A host with one NIC, an ARP cache, and ping/UDP helpers."""

    def __init__(self, name: str, mac: MacAddress, ip_addr: IPv4Address, sim: Simulator) -> None:
        self.name = name
        self.mac = MacAddress(mac)
        self.ip = ip(ip_addr)
        self.sim = sim
        self.link: Link | None = None
        self.arp_table: dict[IPv4Address, MacAddress] = {}
        self.received: list[ParsedFrame] = []
        self.udp_received: list[tuple[IPv4Address, Udp]] = []
        self.ping_results: list[PingResult] = []
        self._echo_sent: dict[tuple[int, int], float] = {}
        self._pending_arp: dict[IPv4Address, list[bytes]] = {}
        self._ping_ident = 0x1234
        self._ping_seq = 0
        self.rx_frames = 0
        self.tx_frames = 0

    @property
    def endpoint_name(self) -> str:
        return f"{self.name}:eth0"

    # -- transmit ------------------------------------------------------------------

    def send_raw(self, raw: bytes) -> None:
        """Put a frame on the wire."""
        if self.link is None:
            return
        self.tx_frames += 1
        self.link.transmit(self, Frame(raw))

    def _send_ip(self, dst_ip: IPv4Address, proto: int, payload: bytes) -> None:
        dst_mac = self.arp_table.get(dst_ip)
        packet = IPv4(src=self.ip, dst=dst_ip, proto=proto, payload=payload)
        if dst_mac is None:
            # Queue behind ARP resolution.
            raw = build_frame(
                Ethernet(dst=MacAddress(0), src=self.mac, eth_type=ETH_TYPE_IPV4),
                packet,
            )
            self._pending_arp.setdefault(dst_ip, []).append(raw)
            self._send_arp_request(dst_ip)
            return
        raw = build_frame(Ethernet(dst=dst_mac, src=self.mac, eth_type=ETH_TYPE_IPV4), packet)
        self.send_raw(raw)

    def _send_arp_request(self, target_ip: IPv4Address) -> None:
        request = Arp.request(self.mac, self.ip, target_ip)
        raw = build_frame(Ethernet(dst=BROADCAST_MAC, src=self.mac, eth_type=ETH_TYPE_ARP), request)
        self.send_raw(raw)

    def ping(self, dst_ip: IPv4Address | str, *, payload: bytes = b"yanc-ping") -> int:
        """Send one ICMP echo request; returns its sequence number.

        Results land in :attr:`ping_results` once the reply arrives (run
        the simulator to let that happen).
        """
        dst_ip = ip(dst_ip)
        self._ping_seq += 1
        seq = self._ping_seq
        echo = Icmp.echo_request(self._ping_ident, seq, payload)
        self._echo_sent[(self._ping_ident, seq)] = self.sim.now
        self._send_ip(dst_ip, IPPROTO_ICMP, echo.pack())
        return seq

    def send_udp(self, dst_ip: IPv4Address | str, src_port: int, dst_port: int, payload: bytes) -> None:
        """Send a UDP datagram."""
        datagram = Udp(src_port=src_port, dst_port=dst_port, payload=payload)
        self._send_ip(ip(dst_ip), IPPROTO_UDP, datagram.pack())

    # -- receive -------------------------------------------------------------------

    def handle_frame(self, wire: Frame) -> None:
        """Link delivery entry point."""
        self.rx_frames += 1
        try:
            frame = wire.parse()
        except ValueError:
            return
        if not (frame.eth.dst == self.mac or frame.eth.dst.is_broadcast or frame.eth.dst.is_multicast):
            return
        self.received.append(frame)
        if isinstance(frame.inner, Arp):
            self._handle_arp(frame.inner)
        elif frame.ipv4 is not None and frame.ipv4.dst == self.ip:
            self._handle_ip(frame)

    def _handle_arp(self, arp: Arp) -> None:
        self.arp_table[arp.sender_ip] = arp.sender_mac
        if arp.opcode == ARP_REQUEST and arp.target_ip == self.ip:
            reply = arp.reply_from(self.mac)
            raw = build_frame(Ethernet(dst=arp.sender_mac, src=self.mac, eth_type=ETH_TYPE_ARP), reply)
            self.send_raw(raw)
        self._flush_pending(arp.sender_ip)

    def _flush_pending(self, resolved_ip: IPv4Address) -> None:
        mac = self.arp_table.get(resolved_ip)
        if mac is None:
            return
        for raw in self._pending_arp.pop(resolved_ip, []):
            frame = parse_frame(raw)
            frame.eth.dst = mac
            self.send_raw(frame.repack())

    def _handle_ip(self, frame: ParsedFrame) -> None:
        assert frame.ipv4 is not None
        if isinstance(frame.inner, Icmp):
            icmp = frame.inner
            if icmp.icmp_type == ICMP_ECHO_REQUEST:
                reply = icmp.echo_reply()
                self._send_ip(frame.ipv4.src, IPPROTO_ICMP, reply.pack())
            elif icmp.icmp_type == ICMP_ECHO_REPLY:
                sent_at = self._echo_sent.pop((icmp.ident, icmp.seq), None)
                if sent_at is not None:
                    self.ping_results.append(PingResult(seq=icmp.seq, rtt=self.sim.now - sent_at))
        elif isinstance(frame.inner, Udp):
            self.udp_received.append((frame.ipv4.src, frame.inner))

    # -- inspection ----------------------------------------------------------------

    def reachable(self, seq: int) -> bool:
        """Did ping ``seq`` complete?"""
        return any(result.seq == seq for result in self.ping_results)
