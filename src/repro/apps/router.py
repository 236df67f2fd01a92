"""The reactive router daemon (paper section 8).

"A router daemon handles all table misses and sets up paths based on exact
match through the network."  On every punted packet it either

* floods along a spanning tree (broadcast / unknown destination), or
* installs exact-match entries along the shortest path between the
  ingress switch and the destination host's learned location, then
  releases the buffered packet along the first hop.

Host locations are learned from packets entering at *edge* ports (ports
that appear in no discovered adjacency); the topology is the topology
daemon's ``peer`` symlinks — two applications cooperating through
nothing but the file system.  The router walks the symlinks once at
start (and again only after its inotify queue overflowed), and in
between follows each port directory's ``peer`` entry: a create is one
``readlink``, a delete drops the link.  Its adjacency (and the spanning
tree / shortest paths / edge-port sets derived from it) is cached in
memory, so in steady state routing a packet costs zero topology
syscalls.
"""

from __future__ import annotations

from collections import deque

from repro.dataplane.match import Match
from repro.dataplane.actions import Output
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_LLDP
from repro.netpkt.packet import parse_frame
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask
from repro.yancfs.client import PacketInEvent, flow_spec_files, write_objects_batched
from repro.yancfs.translate import DIR_MASK
from repro.apps.base import PacketInApp
from repro.apps.topology import PortCache, peer_port, port_no_of, read_topology

NO_BUFFER = 0xFFFFFFFF


class RouterDaemon(PacketInApp):
    """Reactive exact-match shortest-path routing."""

    app_name = "router"
    dl_types = "!0x88cc"  # every frame but the topology daemon's beacons

    def __init__(
        self,
        sc,
        sim,
        *,
        root: str = "/net",
        flow_idle_timeout: float = 10.0,
        record_hosts: bool = True,
    ) -> None:
        super().__init__(sc, sim, root=root)
        self.flow_idle_timeout = flow_idle_timeout
        self.record_hosts = record_hosts
        self.host_locations: dict[MacAddress, tuple[str, int]] = {}
        self.port_cache = PortCache(self.yc)
        self._topology: dict[tuple[str, int], tuple[str, int]] = {}
        self._linked_ports: dict[str, set[int]] = {}
        self._graph_cache: dict[str, dict[str, int]] | None = None
        self._tree_cache: set[frozenset[str]] | None = None
        self._tree_ports: dict[str, set[int]] = {}
        self._path_cache: dict[tuple[str, str], list[str] | None] = {}
        self._flow_seq = 0
        self.paths_installed = 0
        self.floods = 0
        self.full_topology_reads = 0
        self.peer_changes = 0

    def on_start(self) -> None:
        # Watch first, walk second (every switch's ports are watched as it
        # is subscribed): a peer that changes while the walk is in flight
        # is re-read by its own event, so no window is missed.
        super().on_start()
        self._resync()

    def on_switch_added(self, switch: str) -> None:
        self.watch(f"{self.yc.switch_path(switch)}/ports", DIR_MASK, ("ports", switch))
        self._watch_ports(switch)

    def on_switch_removed(self, switch: str) -> None:
        self.unwatch(("ports", switch))
        self.port_cache.invalidate(switch)
        for ctx in [ctx for ctx in self._ctx_wds if ctx[0] == "peer" and ctx[1] == switch]:  # yancperf: disable=syscall-in-loop (cold; an unlink retires nothing)
            self.unwatch(ctx)
            self._peer_changed(ctx[1:], None)

    def _watch_ports(self, switch: str) -> None:
        """Watch each port directory of ``switch`` for its ``peer`` entry (re-watching a watched one keeps its wd)."""
        for port_no in self.port_cache.ports(switch):
            self.watch(self.yc.port_path(switch, port_no), DIR_MASK, ("peer", switch, port_no))

    def on_overflow(self) -> None:
        """Lost notifications: watch the ports that appeared, walk the symlinks once, then drain every buffer on that topology."""
        self.port_cache = PortCache(self.yc)
        self._subscribe_new()
        for switch in [ctx[1] for ctx in self._ctx_wds if ctx[0] == "ports"]:
            self._watch_ports(switch)
        self._resync()
        super().on_overflow()

    # -- topology ------------------------------------------------------------------------

    def topology(self) -> dict[tuple[str, int], tuple[str, int]]:
        """The cached adjacency map (maintained from ``peer`` events, not re-read)."""
        return self._topology

    def _resync(self) -> None:
        """Full walk of the peer symlinks (start, or after an overflow)."""
        try:
            self._topology = read_topology(self.yc)
        except FsError:
            self._topology = {}
        self.full_topology_reads += 1
        self._linked_ports = {}
        for (src_sw, src_port) in self._topology:
            self._linked_ports.setdefault(src_sw, set()).add(src_port)
        self._forget_hosts_at(self._topology)
        self._invalidate_routes()

    def _forget_hosts_at(self, ports) -> None:
        """Inter-switch ports are not the edge: a host "learned" at one was traffic in transit, and a path routed there loops."""
        forgotten = [mac for mac, location in self.host_locations.items() if location in ports]
        for mac in forgotten:
            del self.host_locations[mac]
        if forgotten:
            self._retire_paths_to({str(mac) for mac in forgotten})

    def _retire_paths_to(self, macs: set[str]) -> None:
        """Remove every hop this router installed toward one of ``macs`` (its flows are ``rt-<src>-<dst>-<seq>``)."""
        for switch in self._safe_switches():  # yancperf: disable=syscall-in-loop (cold: a host was learned where a link now is)
            try:
                names = self.yc.flows(switch)
            except FsError:
                continue
            for name in names:
                if name.startswith("rt-") and name.split("-")[2] in macs:
                    try:
                        self.yc.delete_flow(switch, name)
                    except FsError:
                        pass  # expired meanwhile

    def _invalidate_routes(self) -> None:
        self._graph_cache = None
        self._tree_cache = None
        self._tree_ports = {}
        self._path_cache = {}

    def on_other_event(self, ctx: tuple, event) -> None:
        added = bool(event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO))
        if ctx[0] == "peer":
            if event.name == "peer":
                self._peer_changed(ctx[1:], self._read_peer(ctx[1:]) if added else None)
            return
        if ctx[0] != "ports":
            return
        self.port_cache.invalidate(ctx[1])
        port_no = port_no_of(event.name or "")
        if port_no is None:
            return
        src = (ctx[1], port_no)
        if not added:
            self.unwatch(("peer", *src))
            self._peer_changed(src, None)
        elif self.watch(self.yc.port_path(*src), DIR_MASK, ("peer", *src)):
            self._peer_changed(src, self._read_peer(src))  # a peer made before the watch has no event of its own

    def _read_peer(self, src: tuple[str, int]) -> tuple[str, int] | None:
        try:
            return peer_port(self.yc.peer_of(*src))
        except FsError:
            return None

    def _peer_changed(self, src: tuple[str, int], dst: tuple[str, int] | None) -> None:
        """``src``'s peer is now ``dst`` (None: unlinked)."""
        if self._topology.get(src) == dst:
            return
        if dst is None:
            del self._topology[src]
            self._linked_ports[src[0]].discard(src[1])
        else:
            self._topology[src] = dst
            self._linked_ports.setdefault(src[0], set()).add(src[1])
            self._forget_hosts_at((src,))
        self.peer_changes += 1
        self._invalidate_routes()

    def _graph(self) -> dict[str, dict[str, int]]:
        """switch -> {neighbour switch -> local out-port} (cached)."""
        if self._graph_cache is None:
            graph: dict[str, dict[str, int]] = {}
            for (src_sw, src_port), (dst_sw, _dst_port) in self._topology.items():
                graph.setdefault(src_sw, {})[dst_sw] = src_port
                graph.setdefault(dst_sw, {})
            self._graph_cache = graph
        return self._graph_cache

    def _spanning_tree(self) -> set[frozenset[str]]:
        """BFS tree edges over the switch graph (loop-free flooding)."""
        if self._tree_cache is None:
            graph = self._graph()
            tree: set[frozenset[str]] = set()
            if graph:
                root = min(graph)
                seen = {root}
                queue = deque([root])
                while queue:
                    current = queue.popleft()
                    for neighbour in sorted(graph.get(current, {})):
                        if neighbour in seen:
                            continue
                        seen.add(neighbour)
                        tree.add(frozenset((current, neighbour)))
                        queue.append(neighbour)
            self._tree_cache = tree
            # Per-switch ports that sit on a tree edge, computed once per
            # topology generation instead of per flood.
            ports: dict[str, set[int]] = {}
            for (src_sw, src_port), (dst_sw, _dst_port) in self._topology.items():
                if frozenset((src_sw, dst_sw)) in tree:
                    ports.setdefault(src_sw, set()).add(src_port)
            self._tree_ports = ports
        return self._tree_cache

    def shortest_path(self, src_switch: str, dst_switch: str) -> list[str] | None:
        """BFS shortest switch path, inclusive of both ends (cached)."""
        cache_key = (src_switch, dst_switch)
        if cache_key in self._path_cache:
            return self._path_cache[cache_key]
        path = self._compute_path(src_switch, dst_switch)
        self._path_cache[cache_key] = path
        return path

    def _compute_path(self, src_switch: str, dst_switch: str) -> list[str] | None:
        if src_switch == dst_switch:
            return [src_switch]
        graph = self._graph()
        previous: dict[str, str] = {}
        seen = {src_switch}
        queue = deque([src_switch])
        while queue:
            current = queue.popleft()
            for neighbour in sorted(graph.get(current, {})):
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                previous[neighbour] = current
                if neighbour == dst_switch:
                    path = [dst_switch]
                    while path[-1] != src_switch:
                        path.append(previous[path[-1]])
                    return path[::-1]
                queue.append(neighbour)
        return None

    # -- port classification ------------------------------------------------------------

    def _edge_ports(self, switch: str) -> list[int]:
        """Ports on no discovered link: where hosts live."""
        linked = self._linked_ports.get(switch, set())
        return [p for p in self.port_cache.ports(switch) if p not in linked]

    def _flood_ports(self, switch: str, in_port: int) -> list[int]:
        """Edge ports plus spanning-tree link ports, minus the ingress."""
        self._spanning_tree()  # ensures _tree_ports is current
        ports = set(self._edge_ports(switch))
        ports |= self._tree_ports.get(switch, set())
        ports.discard(in_port)
        return sorted(ports)

    # -- the reactive core -----------------------------------------------------------------

    def handle_packet_in(self, event: PacketInEvent) -> None:
        try:
            frame = parse_frame(event.data)
        except ValueError:
            return
        if frame.eth.eth_type == ETH_TYPE_LLDP:
            return  # the topology daemon's business
        self._learn(event, frame.eth.src)
        destination = frame.eth.dst
        if destination.is_broadcast or destination.is_multicast:
            self._flood(event)
            return
        location = self.host_locations.get(destination)
        if location is None:
            self._flood(event)
            return
        self._route(event, frame, location)

    def _learn(self, event: PacketInEvent, src_mac: MacAddress) -> None:
        if src_mac.is_multicast:
            return
        if (event.switch, event.in_port) in self._topology:
            return  # arrived over an inter-switch link: not the edge
        known = self.host_locations.get(src_mac)
        self.host_locations[src_mac] = (event.switch, event.in_port)
        if known != (event.switch, event.in_port) and self.record_hosts:
            try:
                name = str(src_mac)
                host_path = f"{self.yc.root}/hosts/{name}"
                if not self.sc.exists(host_path):
                    self.yc.create_host(name, mac=name, attached_to=f"{event.switch}:{event.in_port}")
                else:
                    self.sc.write_text(f"{host_path}/attached_to", f"{event.switch}:{event.in_port}")
            except FsError:
                pass

    def _flood(self, event: PacketInEvent) -> None:
        ports = self._flood_ports(event.switch, event.in_port)
        if not ports:
            return
        self.floods += 1
        if event.buffer_id != NO_BUFFER:
            self.yc.packet_out(
                event.switch, ports, b"", in_port=event.in_port, buffer_id=event.buffer_id, tag=self.app_name
            )
        else:
            self.yc.packet_out(event.switch, ports, event.data, in_port=event.in_port, tag=self.app_name)

    def _route(self, event: PacketInEvent, frame, location: tuple[str, int]) -> None:
        dst_switch, dst_port = location
        path = self.shortest_path(event.switch, dst_switch)
        if path is None:
            self._flood(event)
            return
        graph = self._graph()
        key = frame.key
        self._flow_seq += 1
        flow_name = f"rt-{key.dl_src}-{key.dl_dst}-{self._flow_seq}"
        in_port = event.in_port
        first_out: int | None = None
        hops = []
        for index, switch in enumerate(path):
            if index + 1 < len(path):
                out_port = graph[switch][path[index + 1]]
            else:
                out_port = dst_port
            if first_out is None:
                first_out = out_port
            files = flow_spec_files(Match.exact(key, in_port=in_port), [Output(out_port)], idle_timeout=self.flow_idle_timeout)
            hops.append((self.yc.flow_path(switch, flow_name), files, "version"))
            if index + 1 < len(path):
                next_switch = path[index + 1]
                # The frame enters the next switch on the reverse port.
                in_port = self._topology.get((switch, out_port), (next_switch, 0))[1]
        # The whole path in one crossing, each hop its own chain: a hop
        # that cannot be written (its directory is already there) is
        # skipped and the others still commit.
        write_objects_batched(self.sc, hops)
        self.paths_installed += 1
        if event.buffer_id != NO_BUFFER:
            self.yc.packet_out(
                event.switch, [first_out or dst_port], b"", in_port=event.in_port, buffer_id=event.buffer_id, tag=self.app_name
            )
        else:
            self.yc.packet_out(event.switch, [first_out or dst_port], event.data, in_port=event.in_port, tag=self.app_name)
