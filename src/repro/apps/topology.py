"""The topology daemon (paper sections 4.3 and 8).

Sends LLDP beacons out every port of every switch, listens for them
arriving on neighbouring switches, and records each discovered adjacency
as the ``peer`` symbolic link of both ports — "yanc leverages symbolic
links ... rather than parsing some topology information file".  Stale
links (no beacon within ``LINK_TTL``) are pruned, so a cut cable
eventually disappears from the tree.

The symlinks are the only record of the topology: a consumer such as
the router daemon walks them once (:func:`read_topology`) and then
follows each port's ``peer`` entry with inotify, one ``readlink`` per
change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.actions import TO_CONTROLLER, Output
from repro.dataplane.match import Match
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_LLDP, Ethernet
from repro.netpkt.lldp import LLDP_MULTICAST_MAC, Lldp
from repro.netpkt.packet import build_frame, parse_frame
from repro.vfs.errors import FsError
from repro.yancfs.client import PacketInEvent, YancClient, packet_out_name
from repro.yancfs.translate import DIR_MASK
from repro.apps.base import PacketInApp

#: Priority of the LLDP punt flow (must beat any forwarding entry).
LLDP_FLOW_PRIORITY = 0xFFFF
#: Seconds a discovered link lives without a beacon before it is pruned.
LINK_TTL = 2.0


@dataclass
class DiscoveredLink:
    """One directed adjacency with its freshness timestamp."""

    src: tuple[str, int]
    dst: tuple[str, int]
    last_seen: float


class PortCache:
    """Lazily cached port numbers per switch, invalidated by inotify.

    The beacon and flood loops used to ``listdir`` every switch's ports
    directory on every pass; port sets change only when the driver adds
    or removes a port directory, so one watch per switch replaces the
    per-round scan.
    """

    def __init__(self, yc: YancClient) -> None:
        self.yc = yc
        self._ports: dict[str, list[int]] = {}

    def ports(self, switch: str) -> list[int]:
        """The switch's port numbers (one listdir on first use)."""
        cached = self._ports.get(switch)
        if cached is None:
            try:
                names = self.yc.ports(switch)
            except FsError:
                return []
            cached = sorted(p for p in (port_no_of(n) for n in names) if p is not None)
            self._ports[switch] = cached
        return cached

    def invalidate(self, switch: str) -> None:
        """Force a re-read on next use (a port appeared or vanished)."""
        self._ports.pop(switch, None)


class TopologyDaemon(PacketInApp):
    """LLDP discovery -> peer symlinks."""

    app_name = "topod"
    dl_types = "0x88cc"  # LLDP beacons only

    def __init__(
        self,
        sc,
        sim,
        *,
        root: str = "/net",
        beacon_interval: float = 0.5,
    ) -> None:
        super().__init__(sc, sim, root=root)
        self.beacon_interval = beacon_interval
        self.links: dict[tuple[str, int], DiscoveredLink] = {}
        self.beacons_sent = 0
        self.beacons_received = 0
        self.port_cache = PortCache(self.yc)
        self._beacon_seq = 0

    def on_start(self) -> None:
        super().on_start()
        self.every(self.beacon_interval, self.send_beacons, start_delay=0.0)
        self.every(LINK_TTL, self.prune_stale)

    def on_switch_added(self, switch: str) -> None:
        self.watch(f"{self.yc.switch_path(switch)}/ports", DIR_MASK, ("ports", switch))
        # Make sure LLDP always reaches us, whatever else is installed.
        try:
            self.yc.create_flow(
                switch,
                "lldp_punt",
                Match(dl_type=ETH_TYPE_LLDP),
                [Output(TO_CONTROLLER)],
                priority=LLDP_FLOW_PRIORITY,
            )
        except FsError:
            pass  # already present (e.g. daemon restart)

    def on_switch_removed(self, switch: str) -> None:
        self.unwatch(("ports", switch))
        self.port_cache.invalidate(switch)

    def on_other_event(self, ctx: tuple, event) -> None:
        if ctx[0] == "ports":
            self.port_cache.invalidate(ctx[1])

    def on_overflow(self) -> None:
        """Lost notifications: forget every cached port set, then recover the buffers."""
        self.port_cache = PortCache(self.yc)
        super().on_overflow()

    # -- beaconing ---------------------------------------------------------------------

    def send_beacons(self) -> None:
        """One LLDP frame out of every known port of every switch: the round is one ring submission (the ring submits when full)."""
        batch = self.ring.batch()
        for switch in self._safe_switches():
            spool = f"{self.yc.switch_path(switch)}/packet_out"
            for port_no in self.port_cache.ports(switch):
                self._beacon_seq += 1
                batch.prep_write_file(f"{spool}/{packet_out_name([port_no], self.app_name, self._beacon_seq)}", self._beacon(switch, port_no))
        # A beacon is sent once its spool file is closed (the driver's
        # cue); one whose switch vanished mid-round fails its own chain.
        self.beacons_sent += sum(cqe.ok for cqe in batch.submit() if cqe.op == "close")

    @staticmethod
    def _beacon(switch: str, port_no: int) -> bytes:
        lldp = Lldp(chassis_id=switch, port_id=str(port_no))
        eth = Ethernet(dst=LLDP_MULTICAST_MAC, src=MacAddress(0x02_00_5E_00_00_01), eth_type=ETH_TYPE_LLDP)
        return build_frame(eth, lldp)

    # -- learning -----------------------------------------------------------------------

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        if not isinstance(frame.inner, Lldp):
            return
        self.beacons_received += 1
        src = (frame.inner.chassis_id, int(frame.inner.port_id))
        dst = (event.switch, event.in_port)
        self._record(src, dst)
        self._record(dst, src)

    def _record(self, src: tuple[str, int], dst: tuple[str, int]) -> None:
        known = self.links.get(src)
        self.links[src] = DiscoveredLink(src=src, dst=dst, last_seen=self.sim.now)
        if known is not None and known.dst == dst:
            return
        try:
            self.yc.set_peer(src[0], src[1], dst[0], dst[1])
        except FsError:
            self.links.pop(src, None)

    def prune_stale(self) -> None:
        """Drop links that stopped beaconing (cable cut, port down)."""
        deadline = self.sim.now - LINK_TTL
        for src, link in list(self.links.items()):
            if link.last_seen >= deadline:
                continue
            del self.links[src]
            try:
                # EAFP: unlink resolves once; a missing link is already pruned.
                self.sc.unlink(f"{self.yc.port_path(src[0], src[1])}/peer")
            except FsError:
                pass

    # -- queries -------------------------------------------------------------------------

    def adjacency(self) -> dict[tuple[str, int], tuple[str, int]]:
        """The live adjacency map: (switch, port) -> (switch, port)."""
        return {src: link.dst for src, link in self.links.items()}


def port_no_of(port_name: str) -> int | None:
    """``port_<n>`` -> n; None for any other name."""
    try:
        return int(port_name.rsplit("_", 1)[-1])
    except ValueError:
        return None


def peer_port(target: str | None) -> tuple[str, int] | None:
    """The ``(switch, port)`` a ``peer`` symlink target names (``.../switches/<sw>/ports/port_<n>``); None for any other."""
    if target is None:
        return None
    parts = target.rstrip("/").split("/")
    port_no = port_no_of(parts[-1])
    if port_no is None or len(parts) < 3:
        return None
    return parts[-3], port_no


def read_topology(yc) -> dict[tuple[str, int], tuple[str, int]]:
    """Read the adjacency map straight from the peer symlinks.

    Any application can reconstruct the topology from the tree alone;
    the router daemon does this full walk at start and after a lost
    notification, and follows each ``peer`` entry in between.
    """
    adjacency: dict[tuple[str, int], tuple[str, int]] = {}
    for switch in yc.switches():
        for port_name in yc.ports(switch):
            port_no = port_no_of(port_name)
            if port_no is None:
                continue
            peer = peer_port(yc.peer_of(switch, port_name))
            if peer is not None:
                adjacency[(switch, port_no)] = peer
    return adjacency
