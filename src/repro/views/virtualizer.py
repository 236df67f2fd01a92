"""The virtualizer: one big switch over the whole fabric.

The second canonical transformation of paper section 4.2: "network
virtualization ... provides any arbitrary transformation, such as
combining multiple switches and forming a new topology."  This
application presents a view containing a single switch (``big`` by
default) whose ports map onto chosen edge ports of the real network.  A
tenant flow ``in_port=1 -> out 2`` on the big switch is compiled into
exact path segments across the fabric using the topology daemon's peer
symlinks; packet-ins on mapped ports surface in the view with virtual
port numbers.
"""

from __future__ import annotations

from repro.apps.topology import read_topology
from repro.dataplane.actions import Action, Output
from repro.dataplane.match import Match
from repro.vfs.errors import FsError
from repro.views.base import ViewApp
from repro.yancfs.client import FlowSpec, PacketInEvent
from repro.yancfs.translate import PacketOut


class BigSwitchVirtualizer(ViewApp):
    """Collapse the fabric into one virtual switch."""

    def __init__(
        self,
        sc,
        sim,
        *,
        view: str,
        port_map: dict[int, tuple[str, int]],
        root: str = "/net",
        big_switch_name: str = "big",
    ) -> None:
        super().__init__(sc, sim, view=view, root=root, name=f"virt_{view}")
        self.port_map = dict(port_map)
        self.big_switch_name = big_switch_name
        self._reverse_map = {real: virtual for virtual, real in self.port_map.items()}
        #: tenant flow -> [(master switch, master flow name)]
        self._segments: dict[str, list[tuple[str, str]]] = {}
        self.flows_compiled = 0

    # -- setup ------------------------------------------------------------------------

    def on_start(self) -> None:
        super().on_start()
        if not self.sc.exists(self.view_yc.switch_path(self.big_switch_name)):
            self.view_yc.create_switch(self.big_switch_name)
            for virtual_port in sorted(self.port_map):
                self.view_yc.create_port(self.big_switch_name, virtual_port)
        self.follow_tenant(self.big_switch_name, self._compile_flow, self._tear_down)
        for switch in {switch for switch, _port in self.port_map.values()}:
            self.tap_master(switch)

    # -- compilation ---------------------------------------------------------------------

    def _compile_flow(self, flow: str, spec: FlowSpec) -> None:
        """A tenant commit: replace the flow's fabric segments with a fresh compilation."""
        self._tear_down(flow)
        out_ports = [action.port for action in spec.actions if isinstance(action, Output)]
        rewrites: list[Action] = [action for action in spec.actions if not isinstance(action, Output)]
        if not out_ports or any(port not in self.port_map for port in out_ports):
            self.flows_rejected += 1
            self._set_status(self.big_switch_name, flow, "rejected: output must name virtual ports")
            return
        if spec.match.in_port is not None and spec.match.in_port not in self.port_map:
            self.flows_rejected += 1
            self._set_status(self.big_switch_name, flow, "rejected: in_port is not a virtual port")
            return
        ingress_ports = [spec.match.in_port] if spec.match.in_port is not None else sorted(self.port_map)
        topology = read_topology(self.yc)
        graph: dict[str, dict[str, int]] = {}
        for (src_sw, src_port), (dst_sw, _dst_port) in topology.items():
            graph.setdefault(src_sw, {})[dst_sw] = src_port
            graph.setdefault(dst_sw, {})
        segments: list[tuple[str, str]] = []
        ok = True
        for virtual_in in ingress_ports:
            for virtual_out in out_ports:
                if virtual_in == virtual_out:
                    continue
                if not self._compile_path(flow, spec, rewrites, virtual_in, virtual_out, graph, topology, segments):
                    ok = False
        self._segments[flow] = segments
        if ok:
            self.flows_compiled += 1
            self._set_status(self.big_switch_name, flow, f"installed: {len(segments)} segments")
        else:
            self.flows_rejected += 1
            self._set_status(self.big_switch_name, flow, "rejected: no fabric path between mapped ports")

    def _compile_path(
        self,
        flow: str,
        spec: FlowSpec,
        rewrites: list[Action],
        virtual_in: int,
        virtual_out: int,
        graph: dict[str, dict[str, int]],
        topology: dict[tuple[str, int], tuple[str, int]],
        segments: list[tuple[str, str]],
    ) -> bool:
        src_switch, src_port = self.port_map[virtual_in]
        dst_switch, dst_port = self.port_map[virtual_out]
        path = _bfs(graph, src_switch, dst_switch)
        if path is None:
            return False
        in_port = src_port
        for index, switch in enumerate(path):
            if index + 1 < len(path):
                out_port = graph[switch][path[index + 1]]
            else:
                out_port = dst_port
            base = Match(**{**spec.match.specified_fields(), "in_port": in_port})  # type: ignore[arg-type]
            # Header rewrites are applied only at the final hop, so
            # intermediate matches still see the original headers.
            actions: list[Action] = [Output(out_port)]
            if index + 1 == len(path):
                actions = list(rewrites) + [Output(out_port)]
            name = f"virt_{self.view}_{flow}_{virtual_in}_{virtual_out}_{index}"
            try:
                self._write_down(switch, name, base, actions, spec)
            except FsError:
                return False
            segments.append((switch, name))
            if index + 1 < len(path):
                in_port = topology.get((switch, out_port), (path[index + 1], 0))[1]
        return True

    def _tear_down(self, flow: str) -> None:
        for switch, name in self._segments.pop(flow, []):
            try:
                self.yc.delete_flow(switch, name)
            except FsError:
                continue

    # -- packet-in / packet-out ------------------------------------------------------------

    def view_port_of(self, pkt: PacketInEvent) -> tuple[str, int] | None:
        """Packet-ins on mapped ports surface on the big switch with virtual port numbers."""
        virtual_port = self._reverse_map.get((pkt.switch, pkt.in_port))
        return None if virtual_port is None else (self.big_switch_name, virtual_port)

    def forward_packet_out(self, view_switch: str, out: PacketOut) -> None:
        """Spool the frame at each named virtual port's fabric port; ``flood``/``all`` is every mapped port but the in-port."""
        for port in out.ports:
            named = [port] if isinstance(port, int) else [virtual for virtual in sorted(self.port_map) if virtual != out.in_port]
            for virtual_port in named:
                mapped = self.port_map.get(virtual_port)
                if mapped is not None:
                    try:
                        self.yc.packet_out(mapped[0], [mapped[1]], out.data, tag=self.app_name)
                    except FsError:
                        continue


def _bfs(graph: dict[str, dict[str, int]], src: str, dst: str) -> list[str] | None:
    if src == dst:
        return [src]
    from collections import deque

    previous: dict[str, str] = {}
    seen = {src}
    queue = deque([src])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(graph.get(current, {})):
            if neighbour in seen:
                continue
            seen.add(neighbour)
            previous[neighbour] = current
            if neighbour == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(previous[path[-1]])
                return path[::-1]
            queue.append(neighbour)
    return None
