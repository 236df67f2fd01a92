"""A stateful middlebox device: NAT with an explicit connection table.

The §7.2 extension target: "For a middlebox with fixed functionality, but
exposing its state through a standardized protocol, a driver can be
written to populate and interact with the file system ... This interface
can be used to move the state around to elastically expand the middlebox."

The NAT sits inline between an *inside* and an *outside* attachment
point.  Its entire behaviour is a function of an inspectable, injectable
connection table — which is exactly what the driver mirrors into the tree
and what ``mv`` migrates between instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import Callable

from repro.dataplane.link import Link
from repro.netpkt.addr import ip
from repro.netpkt.ipv4 import IPPROTO_TCP, IPPROTO_UDP
from repro.netpkt.packet import Frame, ParsedFrame, parse_frame
from repro.netpkt.transport import Tcp, Udp
from repro.sim import Simulator


@dataclass
class NatEntry:
    """One NAT binding: (client ip, client port, proto) <-> public port."""

    proto: int
    client_ip: IPv4Address
    client_port: int
    public_port: int
    packets: int = 0
    last_active: float = 0.0

    @property
    def conn_id(self) -> str:
        """The stable identifier used as the state directory name."""
        proto_name = {IPPROTO_TCP: "tcp", IPPROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        return f"{proto_name}-{self.client_ip}-{self.client_port}"


class _Side:
    """One attachment point of the middlebox (a link endpoint)."""

    def __init__(self, box: "NatMiddlebox", name: str) -> None:
        self.box = box
        self.name = name
        self.link: Link | None = None

    @property
    def endpoint_name(self) -> str:
        return f"{self.box.name}:{self.name}"

    def handle_frame(self, frame: Frame) -> None:
        self.box.process(self.name, frame)

    def transmit(self, frame: Frame) -> None:
        if self.link is not None:
            self.link.transmit(self, frame)


class NatMiddlebox:
    """Source NAT between ``inside`` and ``outside``."""

    def __init__(
        self,
        name: str,
        public_ip: IPv4Address | str,
        sim: Simulator,
        *,
        port_range: tuple[int, int] = (20000, 29999),
    ) -> None:
        self.name = name
        self.public_ip = ip(public_ip)
        self.sim = sim
        self.inside = _Side(self, "inside")
        self.outside = _Side(self, "outside")
        self._port_low, self._port_high = port_range
        self._next_port = self._port_low
        #: (proto, client_ip, client_port) -> entry
        self._by_client: dict[tuple[int, IPv4Address, int], NatEntry] = {}
        #: (proto, public_port) -> entry
        self._by_public: dict[tuple[int, int], NatEntry] = {}
        self.translated = 0
        self.dropped = 0
        #: Hook the driver installs: called with ("add"|"update"|"remove", entry).
        self.on_state_change: Callable[[str, NatEntry], None] | None = None

    # -- state table -------------------------------------------------------------

    def entries(self) -> list[NatEntry]:
        """All live bindings."""
        return list(self._by_client.values())

    def lookup_conn(self, conn_id: str) -> NatEntry | None:
        """Find a binding by its connection id."""
        for entry in self._by_client.values():
            if entry.conn_id == conn_id:
                return entry
        return None

    def install_entry(self, entry: NatEntry, *, notify: bool = True) -> None:
        """Insert a binding (the migration entry point).

        A binding arriving from another instance keeps its public port,
        so established connections survive the move.
        """
        client_key = (entry.proto, entry.client_ip, entry.client_port)
        public_key = (entry.proto, entry.public_port)
        self._by_client[client_key] = entry
        self._by_public[public_key] = entry
        self._next_port = max(self._next_port, entry.public_port + 1)
        if notify and self.on_state_change is not None:
            self.on_state_change("add", entry)

    def remove_entry(self, conn_id: str, *, notify: bool = True) -> NatEntry | None:
        """Drop a binding (the other half of migration)."""
        entry = self.lookup_conn(conn_id)
        if entry is None:
            return None
        del self._by_client[(entry.proto, entry.client_ip, entry.client_port)]
        del self._by_public[(entry.proto, entry.public_port)]
        if notify and self.on_state_change is not None:
            self.on_state_change("remove", entry)
        return entry

    def _allocate(self, proto: int, client_ip: IPv4Address, client_port: int) -> NatEntry | None:
        if self._next_port > self._port_high:
            return None
        entry = NatEntry(
            proto=proto,
            client_ip=client_ip,
            client_port=client_port,
            public_port=self._next_port,
            last_active=self.sim.now,
        )
        self._next_port += 1
        self.install_entry(entry, notify=False)
        if self.on_state_change is not None:
            self.on_state_change("add", entry)
        return entry

    # -- the datapath ---------------------------------------------------------------

    def process(self, side: str, frame: Frame) -> None:
        """Translate and forward one frame.

        The arriving frame may be on other links too, so a translation
        rewrites a private copy, ``parse_frame(frame.raw)``.
        """
        try:
            parsed = frame.parse()
        except ValueError:
            self.dropped += 1
            return
        if parsed.ipv4 is None or not isinstance(parsed.inner, (Tcp, Udp)):
            # non-TCP/UDP traffic passes through untranslated
            (self.outside if side == "inside" else self.inside).transmit(frame)
            return
        if side == "inside":
            self._translate_out(parse_frame(frame.raw))
        elif parsed.ipv4.dst != self.public_ip:
            self.inside.transmit(frame)
        else:
            self._translate_in(parse_frame(frame.raw))

    def _translate_out(self, frame: ParsedFrame) -> None:
        assert frame.ipv4 is not None
        transport = frame.inner
        assert isinstance(transport, (Tcp, Udp))
        key = (frame.ipv4.proto, frame.ipv4.src, transport.src_port)
        entry = self._by_client.get(key)
        if entry is None:
            entry = self._allocate(*key)
            if entry is None:
                self.dropped += 1
                return
        entry.packets += 1
        entry.last_active = self.sim.now
        if self.on_state_change is not None:
            self.on_state_change("update", entry)
        frame.ipv4.src = self.public_ip
        transport.src_port = entry.public_port
        self.translated += 1
        self.outside.transmit(Frame(frame.repack(), frame))

    def _translate_in(self, frame: ParsedFrame) -> None:
        assert frame.ipv4 is not None
        transport = frame.inner
        assert isinstance(transport, (Tcp, Udp))
        entry = self._by_public.get((frame.ipv4.proto, transport.dst_port))
        if entry is None:
            self.dropped += 1
            return
        entry.packets += 1
        entry.last_active = self.sim.now
        if self.on_state_change is not None:
            self.on_state_change("update", entry)
        frame.ipv4.dst = entry.client_ip
        transport.dst_port = entry.client_port
        self.translated += 1
        self.inside.transmit(Frame(frame.repack(), frame))
