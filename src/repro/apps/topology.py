"""The topology daemon (paper sections 4.3 and 8).

Sends LLDP beacons out every port of every switch, listens for them
arriving on neighbouring switches, and records each discovered adjacency
as the ``peer`` symbolic link of both ports — "yanc leverages symbolic
links ... rather than parsing some topology information file".  Stale
links (no beacon within ``link_ttl``) are pruned, so a cut cable
eventually disappears from the tree.

Alongside the symlinks the daemon publishes an *incremental delta
stream*: one small file per link add/remove, written maildir-style
(assembled under a dot-temp name, renamed into place) so watchers only
ever see complete deltas.  Consumers like the router daemon apply deltas
to a locally cached adjacency instead of re-walking every ``peer``
symlink in the tree — at fat-tree scale the full walk is thousands of
syscalls per refresh, the delta is one file read per change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.dataplane.actions import TO_CONTROLLER, Output
from repro.dataplane.match import Match
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_LLDP, Ethernet
from repro.netpkt.lldp import LLDP_MULTICAST_MAC, Lldp
from repro.netpkt.packet import build_frame, parse_frame
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask
from repro.yancfs.client import PacketInEvent, YancClient, packet_out_name
from repro.yancfs.recovery import sweep_staging
from repro.apps.base import PacketInApp

#: Priority of the LLDP punt flow (must beat any forwarding entry).
LLDP_FLOW_PRIORITY = 0xFFFF

#: Where the incremental link add/remove delta files are published.
DEFAULT_DELTAS_PATH = "/var/run/topology"

#: Staged dot-temps under the delta spool are recovered at daemon start
#: (a publisher that crashed between write and rename leaks its temp).
YANCCRASH_RECOVERS = (DEFAULT_DELTAS_PATH,)

#: Delta files each publisher keeps before unlinking its oldest.
DELTA_BACKLOG = 256

_PORTS_MASK = EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO


@dataclass
class DiscoveredLink:
    """One directed adjacency with its freshness timestamp."""

    src: tuple[str, int]
    dst: tuple[str, int]
    last_seen: float


@dataclass(frozen=True)
class TopologyDelta:
    """One parsed entry of the incremental delta stream."""

    kind: str  # "add" | "remove"
    src: tuple[str, int]
    dst: tuple[str, int] | None  # None for removes


def format_delta(delta: TopologyDelta) -> str:
    """Render a delta as its one-line file content."""
    if delta.kind == "add":
        assert delta.dst is not None
        return f"add {delta.src[0]} {delta.src[1]} {delta.dst[0]} {delta.dst[1]}\n"
    return f"remove {delta.src[0]} {delta.src[1]}\n"


def parse_delta(text: str) -> TopologyDelta | None:
    """Parse one delta file's content; None for malformed lines."""
    parts = text.split()
    try:
        if len(parts) == 5 and parts[0] == "add":
            return TopologyDelta("add", (parts[1], int(parts[2])), (parts[3], int(parts[4])))
        if len(parts) == 3 and parts[0] == "remove":
            return TopologyDelta("remove", (parts[1], int(parts[2])), None)
    except ValueError:
        return None
    return None


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
            cached = sorted(p for p in (_port_no(n) for n in names) if p is not None)
            self._ports[switch] = cached
        return cached

    def invalidate(self, switch: str) -> None:
        """Force a re-read on next use (a port appeared or vanished)."""
        self._ports.pop(switch, None)


class TopologyDaemon(PacketInApp):
    """LLDP discovery -> peer symlinks + incremental delta stream."""

    app_name = "topod"
    dl_types = "0x88cc"  # LLDP beacons only

    def __init__(
        self,
        sc,
        sim,
        *,
        root: str = "/net",
        beacon_interval: float = 0.5,
        link_ttl: float = 2.0,
        deltas_path: str = DEFAULT_DELTAS_PATH,
    ) -> None:
        super().__init__(sc, sim, root=root)
        self.beacon_interval = beacon_interval
        self.link_ttl = link_ttl
        self.deltas_path = deltas_path
        self.links: dict[tuple[str, int], DiscoveredLink] = {}
        self.beacons_sent = 0
        self.beacons_received = 0
        self.deltas_published = 0
        self.port_cache = PortCache(self.yc)
        self._delta_seq = 0
        self._beacon_seq = 0
        self._backlog: deque[str] = deque()

    def on_start(self) -> None:
        if not self.sc.exists(self.deltas_path):
            self.sc.makedirs(self.deltas_path)
        # Recovery: a predecessor that crashed between the dot-temp write
        # and the rename left a temp no consumer will ever read; sweep it
        # before publishing anything new.
        sweep_staging(self.sc, self.deltas_path)
        super().on_start()
        self.every(self.beacon_interval, self.send_beacons, start_delay=0.0)
        self.every(self.link_ttl, self.prune_stale)

    def on_switch_added(self, switch: str) -> None:
        self.watch(f"{self.yc.switch_path(switch)}/ports", _PORTS_MASK, ("ports", switch))
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

    # -- the delta stream ---------------------------------------------------------------

    def _publish_delta(self, delta: TopologyDelta) -> None:
        """Publish one delta file (maildir: dot-temp, then rename).

        File names carry the publisher's PID so two daemons (a restart
        overlap, a standby) never rename onto each other's deltas;
        consumers order by inotify delivery, not by name.
        """
        self._delta_seq += 1
        name = f"d_{self.pid}_{self._delta_seq}"
        tmp = f"{self.deltas_path}/.{name}"
        try:
            self.sc.write_text(tmp, format_delta(delta))
            self.sc.rename(tmp, f"{self.deltas_path}/{name}")
        except FsError:
            return
        self.deltas_published += 1
        self._backlog.append(name)
        while len(self._backlog) > DELTA_BACKLOG:
            stale = self._backlog.popleft()
            try:
                self.sc.unlink(f"{self.deltas_path}/{stale}")
            except FsError:
                pass

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
            return
        self._publish_delta(TopologyDelta("add", src, dst))

    def prune_stale(self) -> None:
        """Drop links that stopped beaconing (cable cut, port down)."""
        deadline = self.sim.now - self.link_ttl
        for src, link in list(self.links.items()):
            if link.last_seen >= deadline:
                continue
            del self.links[src]
            try:
                # EAFP: unlink resolves once; a missing link is already pruned.
                self.sc.unlink(f"{self.yc.port_path(src[0], src[1])}/peer")
            except FsError:
                continue
            self._publish_delta(TopologyDelta("remove", src, None))

    # -- queries -------------------------------------------------------------------------

    def adjacency(self) -> dict[tuple[str, int], tuple[str, int]]:
        """The live adjacency map: (switch, port) -> (switch, port)."""
        return {src: link.dst for src, link in self.links.items()}


def _port_no(port_name: str) -> int | None:
    try:
        return int(port_name.rsplit("_", 1)[-1])
    except ValueError:
        return None


def read_topology(yc) -> dict[tuple[str, int], tuple[str, int]]:
    """Read the adjacency map straight from the peer symlinks.

    Any application can reconstruct the topology from the tree alone —
    this full walk is what the router daemon does *once* at startup
    before switching to the incremental delta stream.
    """
    adjacency: dict[tuple[str, int], tuple[str, int]] = {}
    for switch in yc.switches():
        for port_name in yc.ports(switch):
            port_no = _port_no(port_name)
            if port_no is None:
                continue
            target = yc.peer_of(switch, port_name)
            if target is None:
                continue
            parts = target.rstrip("/").split("/")
            # .../switches/<sw>/ports/port_<n>
            try:
                peer_switch = parts[-3]
                peer_port = _port_no(parts[-1])
            except IndexError:
                continue
            if peer_port is not None:
                adjacency[(switch, port_no)] = (peer_switch, peer_port)
    return adjacency
