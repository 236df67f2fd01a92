"""Full-frame parsing and the flow key used for table matching.

The :class:`FlowKey` mirrors the OpenFlow 1.0 12-tuple (minus ``in_port``,
which the switch knows from where the frame arrived): dl_src, dl_dst,
dl_type, dl_vlan, dl_vlan_pcp, nw_src, nw_dst, nw_proto, nw_tos, tp_src,
tp_dst.  The yanc flow files ``match.*`` use exactly these field names
(paper, figure 3 and section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from ipaddress import IPv4Address

from repro.netpkt.addr import MacAddress
from repro.netpkt.arp import Arp
from repro.netpkt.ethernet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_LLDP,
    Ethernet,
)
from repro.netpkt.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, Icmp, IPv4
from repro.netpkt.lldp import Lldp
from repro.netpkt.transport import Tcp, Udp


@dataclass(frozen=True, eq=False)
class FlowKey:
    """The header fields a flow entry can match (OpenFlow 1.0 tuple).

    Hashed once, when built: ``_values`` holds every field as an int or None
    (MACs and IPv4 addresses as integers) and ``_hash`` its hash, which dict
    probes and ``==`` read instead of the address objects' own methods.
    """

    dl_src: MacAddress
    dl_dst: MacAddress
    dl_type: int
    dl_vlan: int | None = None
    dl_vlan_pcp: int | None = None
    nw_src: IPv4Address | None = None
    nw_dst: IPv4Address | None = None
    nw_proto: int | None = None
    nw_tos: int | None = None
    tp_src: int | None = None
    tp_dst: int | None = None
    _values: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nw_src = None if self.nw_src is None else int(self.nw_src)
        nw_dst = None if self.nw_dst is None else int(self.nw_dst)
        values = (int(self.dl_src), int(self.dl_dst), self.dl_type, self.dl_vlan, self.dl_vlan_pcp, nw_src, nw_dst, self.nw_proto, self.nw_tos, self.tp_src, self.tp_dst)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return self._values == other._values

    def field_values(self) -> dict[str, object]:
        """Return the non-None fields as a name -> value mapping."""
        values = {
            "dl_src": self.dl_src,
            "dl_dst": self.dl_dst,
            "dl_type": self.dl_type,
            "dl_vlan": self.dl_vlan,
            "dl_vlan_pcp": self.dl_vlan_pcp,
            "nw_src": self.nw_src,
            "nw_dst": self.nw_dst,
            "nw_proto": self.nw_proto,
            "nw_tos": self.nw_tos,
            "tp_src": self.tp_src,
            "tp_dst": self.tp_dst,
        }
        return {name: value for name, value in values.items() if value is not None}


@dataclass
class ParsedFrame:
    """A frame parsed through every layer we understand.

    ``inner`` is the deepest successfully parsed payload object (Arp, Lldp,
    Icmp, Tcp, Udp) or raw bytes for unknown protocols.
    """

    raw: bytes
    eth: Ethernet
    ipv4: IPv4 | None = None
    inner: object = None

    def repack(self) -> bytes:
        """Re-serialize after header modifications (set-field actions).

        Rebuilds from the deepest parsed layer outward so changed fields
        (and the IPv4 checksum) are freshly encoded, then refreshes
        ``raw`` and forgets the cached :attr:`key`.
        """
        self.__dict__.pop("key", None)
        if self.ipv4 is not None:
            if isinstance(self.inner, (Tcp, Udp, Icmp)):
                self.ipv4.payload = self.inner.pack()
            self.eth.payload = self.ipv4.pack()
        elif isinstance(self.inner, (Arp, Lldp)):
            self.eth.payload = self.inner.pack()
        self.raw = self.eth.pack()
        return self.raw

    @cached_property
    def key(self) -> FlowKey:
        """The flow key this frame presents to a flow table (computed once)."""
        vlan = self.eth.vlan
        nw_src = nw_dst = nw_proto = nw_tos = None
        tp_src = tp_dst = None
        if self.ipv4 is not None:
            nw_src, nw_dst = self.ipv4.src, self.ipv4.dst
            nw_proto, nw_tos = self.ipv4.proto, self.ipv4.tos
            if isinstance(self.inner, (Tcp, Udp)):
                tp_src, tp_dst = self.inner.src_port, self.inner.dst_port
            elif isinstance(self.inner, Icmp):
                # OpenFlow 1.0 overloads tp_src/tp_dst with ICMP type/code.
                tp_src, tp_dst = self.inner.icmp_type, self.inner.code
        elif isinstance(self.inner, Arp):
            nw_src, nw_dst = self.inner.sender_ip, self.inner.target_ip
            nw_proto = self.inner.opcode
        return FlowKey(
            dl_src=self.eth.src,
            dl_dst=self.eth.dst,
            dl_type=self.eth.eth_type,
            dl_vlan=vlan.vid if vlan else None,
            dl_vlan_pcp=vlan.pcp if vlan else None,
            nw_src=nw_src,
            nw_dst=nw_dst,
            nw_proto=nw_proto,
            nw_tos=nw_tos,
            tp_src=tp_src,
            tp_dst=tp_dst,
        )


class Frame:
    """One datagram on the wire: its bytes, parsed at most once.

    A frame on a link is immutable.  A FLOOD hands the same object to every
    port, every hop after the first reuses the first hop's parse, and a hop
    that rewrites headers works on a private copy, ``parse_frame(raw)``,
    which it repacks and sends as a new frame.
    """

    __slots__ = ("raw", "_parsed")

    def __init__(self, raw: bytes, parsed: ParsedFrame | None = None) -> None:
        self.raw = raw
        self._parsed = parsed

    def parse(self) -> ParsedFrame:
        """The parse of :attr:`raw`, made on first use; ValueError as :func:`parse_frame`."""
        parsed = self._parsed
        if parsed is None:
            parsed = self._parsed = parse_frame(self.raw)
        return parsed


def parse_frame(raw: bytes) -> ParsedFrame:
    """Parse ``raw`` down as far as the protocol stack allows.

    Layer-2 parsing errors propagate (a frame the switch cannot even frame
    is a simulation bug); deeper-layer errors degrade gracefully, leaving
    ``inner`` as the unparsed bytes — real switches match what they can.
    """
    eth = Ethernet.unpack(raw)
    frame = ParsedFrame(raw=raw, eth=eth, inner=eth.payload)
    try:
        if eth.eth_type == ETH_TYPE_ARP:
            frame.inner = Arp.unpack(eth.payload)
        elif eth.eth_type == ETH_TYPE_LLDP:
            frame.inner = Lldp.unpack(eth.payload)
        elif eth.eth_type == ETH_TYPE_IPV4:
            ipv4 = IPv4.unpack(eth.payload)
            frame.ipv4 = ipv4
            frame.inner = ipv4.payload
            if ipv4.proto == IPPROTO_TCP:
                frame.inner = Tcp.unpack(ipv4.payload)
            elif ipv4.proto == IPPROTO_UDP:
                frame.inner = Udp.unpack(ipv4.payload)
            elif ipv4.proto == IPPROTO_ICMP:
                frame.inner = Icmp.unpack(ipv4.payload)
    except ValueError:
        pass
    return frame


def build_frame(eth: Ethernet, *layers: object) -> bytes:
    """Serialize ``eth`` with ``layers`` nested innermost-last as its payload.

    Example::

        raw = build_frame(Ethernet(dst, src, ETH_TYPE_IPV4),
                          IPv4(src_ip, dst_ip, IPPROTO_UDP),
                          Udp(5000, 53, payload=b"query"))
    """
    payload = b""
    for layer in reversed(layers):
        if isinstance(layer, bytes):
            payload = layer + payload
            continue
        if payload:
            layer.payload = payload  # type: ignore[attr-defined]
        payload = layer.pack()  # type: ignore[attr-defined]
    if payload:
        eth.payload = payload
    return eth.pack()
