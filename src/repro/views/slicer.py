"""The slicer: a translation application between two portions of the tree.

"To create a new view, an application effectively interacts with two
portions of the file system simultaneously — providing a translation
between them" (paper section 4.2).  A :class:`Slicer` materializes a view
directory holding a *subset* of the switches and a *headerspace* subset of
traffic; tenants operate on the view exactly as they would on ``/net``
(same schema — views are structurally identical), and the slicer:

* mirrors sliced switches (ids, ports, intra-slice peer links) into the
  view;
* write-through-translates committed tenant flows: the installed match is
  the intersection of the tenant match with the slice headerspace, the
  priority is clamped below the system band, and flows outside the slice
  are rejected in place (a ``state.status`` file in the tenant's flow
  directory);
* forwards headerspace-matching packet-ins from the master tree into the
  tenant buffers inside the view;
* mirrors the flow counters that moved back into the view.

Because a view contains a ``views/`` directory too, slicers stack: run a
second slicer with ``root`` pointing inside the first view (§4.2:
"views can be stacked arbitrarily").
"""

from __future__ import annotations

from functools import partial

from repro.dataplane.match import Match
from repro.netpkt.packet import parse_frame
from repro.vfs.errors import FsError
from repro.views.base import ViewApp
from repro.views.merge import intersect
from repro.yancfs.client import FlowSpec, PacketInEvent, counter_values, object_files
from repro.yancfs.translate import COUNTER_PERIOD, PacketOut, mirror_counters


class Slicer(ViewApp):
    """One view's translation process."""

    def __init__(
        self,
        sc,
        sim,
        *,
        view: str,
        switches: list[str],
        headerspace: Match,
        root: str = "/net",
    ) -> None:
        super().__init__(sc, sim, view=view, root=root, name=f"slicer_{view}")
        self.sliced_switches = list(switches)
        self.headerspace = headerspace
        #: (switch, tenant flow) -> master flow name
        self._installed: dict[tuple[str, str], str] = {}
        #: (switch, tenant flow) -> counter file -> the value its last ok write left
        self._counters: dict[tuple[str, str], dict[str, int]] = {}
        self.flows_translated = 0

    # -- setup ---------------------------------------------------------------------

    def on_start(self) -> None:
        super().on_start()
        for switch in self.sliced_switches:
            self._mirror_switch(switch)
        self._mirror_peer_links()
        self.every(COUNTER_PERIOD, self.sync_counters)

    def _mirror_switch(self, switch: str) -> None:
        if not self.sc.exists(self.yc.switch_path(switch)):
            return
        if not self.sc.exists(self.view_yc.switch_path(switch)):
            try:
                dpid = self.yc.switch_dpid(switch)
            except (FsError, ValueError):
                dpid = None
            self.view_yc.create_switch(switch, dpid=dpid)  # published with its id, never before it
        for port_name in self.yc.ports(switch):
            if not self.sc.exists(self.view_yc.port_path(switch, port_name)):
                try:
                    port_no = int(port_name.rsplit("_", 1)[-1])
                except ValueError:
                    continue
                self.view_yc.create_port(switch, port_no)
        self.tap_master(switch)
        self.follow_tenant(switch, partial(self._translate_flow, switch), partial(self._retire_flow, switch))

    def _mirror_peer_links(self) -> None:
        for switch in self.sliced_switches:
            try:
                port_names = self.yc.ports(switch)
            except FsError:
                continue
            for port_name in port_names:
                target = self.yc.peer_of(switch, port_name)
                if target is None:
                    continue
                parts = target.rstrip("/").split("/")
                peer_switch, peer_port_name = parts[-3], parts[-1]
                if peer_switch in self.sliced_switches:
                    try:
                        self.view_yc.set_peer(switch, port_name, peer_switch, peer_port_name)
                    except FsError:
                        continue

    # -- flow translation -----------------------------------------------------------------

    def _translate_flow(self, switch: str, flow: str, spec: FlowSpec) -> None:
        """A tenant commit: install its intersection with the slice in the master tree."""
        merged = intersect(spec.match, self.headerspace)
        if merged is None:
            self.flows_rejected += 1
            self._set_status(switch, flow, "rejected: match outside slice headerspace")
            return
        master_name = f"v_{self.view}_{flow}"
        try:
            self._write_down(switch, master_name, merged, list(spec.actions), spec)
        except FsError as exc:
            self.flows_rejected += 1
            self._set_status(switch, flow, f"rejected: {exc}")
            return
        self._installed[switch, flow] = master_name
        self.flows_translated += 1
        self._set_status(switch, flow, "installed")

    def _retire_flow(self, switch: str, flow: str) -> None:
        self._counters.pop((switch, flow), None)
        master_name = self._installed.pop((switch, flow), None)
        if master_name is not None:
            try:
                self.yc.delete_flow(switch, master_name)
            except FsError:
                pass

    # -- packet-in / packet-out forwarding ---------------------------------------------------

    def view_port_of(self, pkt: PacketInEvent) -> tuple[str, int] | None:
        """Headerspace-matching packet-ins surface on the same switch and port."""
        return (pkt.switch, pkt.in_port) if self._in_headerspace(pkt.data, pkt.in_port) else None

    def _in_headerspace(self, data: bytes, in_port: int) -> bool:
        try:
            frame = parse_frame(data)
        except ValueError:
            return False
        return self.headerspace.matches(frame.key, in_port)

    def forward_packet_out(self, switch: str, out: PacketOut) -> None:
        """Re-spool, under the same name, only frames the tenant is allowed to source."""
        if out.data and not self._in_headerspace(out.data, 0):
            return
        try:
            self.sc.write_bytes(f"{self.yc.switch_path(switch)}/packet_out/{out.name}", out.data)
        except FsError:
            pass

    # -- counters ----------------------------------------------------------------------------

    def sync_counters(self) -> None:
        """Mirror the master flow counters that moved into the tenant's flow dirs, as one counter round (:func:`mirror_counters`).

        Every master ``counters/`` is read by one ``readdirplus`` entry of
        one submission, so a round that moves nothing crosses once.
        """
        batch = self.ring.batch()
        for (switch, flow), master_name in self._installed.items():
            batch.prep("readdirplus", f"{self.yc.flow_path(switch, master_name)}/counters", user_data=(switch, flow))
        rows = []
        for cqe in batch.submit():
            if not cqe.ok:
                continue  # the master flow went; its retirement follows
            switch, flow = cqe.user_data
            written = self._counters.setdefault((switch, flow), {})
            rows.append((f"{self.view_yc.flow_path(switch, flow)}/counters", written, counter_values(object_files(cqe.result))))
        mirror_counters(self.ring, rows)
