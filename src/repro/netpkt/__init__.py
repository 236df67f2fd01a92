"""Packet headers and addressing.

Real wire formats, parsed from and serialized to bytes: the dataplane
simulator forwards actual frames, the OpenFlow codec embeds them in
packet-in/packet-out messages, and the yanc file system exposes their
fields as match files.

The public surface:

* :class:`MacAddress` / helpers in :mod:`repro.netpkt.addr` (IPv4 uses the
  standard-library :mod:`ipaddress` types).
* Header classes — :class:`Ethernet`, :class:`Vlan`, :class:`Arp`,
  :class:`IPv4`, :class:`Icmp`, :class:`Tcp`, :class:`Udp`, :class:`Lldp` —
  each with ``pack()`` and ``unpack()``.
* :func:`parse_frame` — parse a full frame into a :class:`ParsedFrame` with
  the header stack and the flow key used for table matching; a
  :class:`Frame` is what a link carries, parsed at most once.
"""

from repro.netpkt.addr import BROADCAST_MAC, MacAddress, cidr, ip
from repro.netpkt.arp import Arp
from repro.netpkt.ethernet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_LLDP,
    ETH_TYPE_VLAN,
    Ethernet,
    Vlan,
)
from repro.netpkt.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, Icmp, IPv4
from repro.netpkt.lldp import Lldp, LLDP_MULTICAST_MAC
from repro.netpkt.packet import FlowKey, Frame, ParsedFrame, parse_frame
from repro.netpkt.transport import Tcp, Udp

__all__ = [
    "BROADCAST_MAC",
    "MacAddress",
    "cidr",
    "ip",
    "Arp",
    "ETH_TYPE_ARP",
    "ETH_TYPE_IPV4",
    "ETH_TYPE_LLDP",
    "ETH_TYPE_VLAN",
    "Ethernet",
    "Vlan",
    "IPv4",
    "Icmp",
    "IPPROTO_ICMP",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "Lldp",
    "LLDP_MULTICAST_MAC",
    "FlowKey",
    "Frame",
    "ParsedFrame",
    "parse_frame",
    "Tcp",
    "Udp",
]
