"""What every view translator shares (paper section 4.2).

A view application sits between two portions of the tree: tenants write
flows and ``packet_out`` entries into the view, the application writes
their translation one level down; packet-ins travel the other way.
:class:`ViewApp` owns the two trees, the tenant-side and master-side
watches, the event routing and the write-down policy, on top of
:mod:`repro.yancfs.translate`; a concrete view (the slicer, the
virtualizer) supplies only its translation.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.apps.base import YancApp, announced
from repro.dataplane.actions import Action
from repro.dataplane.match import Match
from repro.dataplane.switch import NO_BUFFER
from repro.vfs.errors import FileExists, FsError
from repro.vfs.notify import EventMask, NotifyEvent
from repro.yancfs.client import FlowSpec, PacketInEvent, YancClient, packet_in_files
from repro.yancfs.translate import SPOOL_MASK, FlowFollower, PacketOut, fan_out_packet_ins, follow_flows, spooled, take_packet_out

#: Tenant flows are clamped below the system apps' priority band.
MAX_TENANT_PRIORITY = 0x7FFF


class ViewApp(YancApp):
    """One view's translation process: ``yc`` is the tree below, ``view_yc`` the view."""

    run_kinds = ("master_buffer", "view_pktout", "flows")

    def __init__(self, sc, sim, *, view: str, root: str, name: str) -> None:
        super().__init__(sc, sim, root=root, name=name)
        self.view = view
        self.view_yc: YancClient = self.yc.in_view(view)
        self.flows_rejected = 0
        self.events_forwarded = 0
        self.events_dropped = 0
        #: view switch -> the last packet-in sequence number it published: two
        #: switches below can share a ``seq``, one view switch must not
        self._event_seq: dict[str, int] = {}

    def on_start(self) -> None:
        if not self.sc.exists(self.view_yc.root):
            self.yc.create_view(self.view)

    # -- watches ----------------------------------------------------------------------

    def follow_tenant(self, view_switch: str, on_commit: Callable[[str, FlowSpec], None], on_remove: Callable[[str], None]) -> None:
        """Tenant side of one view switch: its ``packet_out`` spool, then its ``flows/`` (adopting what is there)."""
        self.watch(f"{self.view_yc.switch_path(view_switch)}/packet_out", SPOOL_MASK, ("view_pktout", view_switch))
        FlowFollower(self, self.view_yc, view_switch, on_commit, on_remove).attach()

    def tap_master(self, switch: str) -> None:
        """Master side: this view's own packet-in buffer on a switch of the tree below."""
        self.yc.subscribe_events(switch, self.app_name)
        self.watch(self.yc.events_path(switch, self.app_name), EventMask.IN_CREATE | EventMask.IN_MOVED_TO, ("master_buffer", switch))

    def on_run(self, kind: str, run: Iterable[tuple[tuple, NotifyEvent]]) -> None:
        """A run of master-buffer events is one take, a run of tenant spool events one more, a run of tenant ``flows/`` events a third."""
        if kind == "master_buffer":
            self._forward_packet_ins(announced(run))
        elif kind == "flows":
            follow_flows(self.ring, run)
        else:
            self._forward_packet_outs([(ctx[1], ctx[1], name) for ctx, event in run if (name := spooled(event)) is not None])

    def on_overflow(self) -> None:
        """Lost notifications: reconcile every tenant ``flows/``, take every tenant spool, drain every master buffer."""
        spooled_entries = []
        for ctx in list(self._ctx_wds):
            try:
                if ctx[0] == "flows" and len(ctx) == 2:
                    ctx[1].attach()
                elif ctx[0] == "view_pktout":
                    spooled_entries += [(ctx[1], ctx[1], name) for name in self.sc.listdir(f"{self.view_yc.switch_path(ctx[1])}/packet_out")]
            except FsError:
                continue
        self._forward_packet_outs(spooled_entries)
        self._forward_packet_ins({ctx[1]: [] for ctx in self._ctx_wds if ctx[0] == "master_buffer"})

    # -- subclass hooks -----------------------------------------------------------------

    def view_port_of(self, pkt: PacketInEvent) -> tuple[str, int] | None:
        """Subclass hook: the ``(view switch, in_port)`` a master packet-in surfaces at, None to filter it."""
        raise NotImplementedError

    def forward_packet_out(self, view_switch: str, out: PacketOut) -> None:
        """Subclass hook: emit one consumed tenant ``packet_out`` entry in the tree below."""
        raise NotImplementedError

    # -- the shared halves of a translation ------------------------------------------------

    def _forward_packet_ins(self, named: dict[str, list[str]]) -> None:
        """Drain this view's master buffers into the tenants' buffers inside the view: the drain is one burst, two more submissions."""
        if not named:
            return
        burst = []
        for pkt in self.yc.take_events(self.app_name, named):
            try:
                target = self.view_port_of(pkt)
            except FsError:
                continue
            if target is None:
                continue
            seq = self._event_seq[target[0]] = self._event_seq.get(target[0], 0) + 1
            # buffer_id stays NO_BUFFER: buffers do not cross views
            burst.append((target[0], seq, None, packet_in_files(target[1], pkt.reason, NO_BUFFER, pkt.total_len, pkt.data)))
        if burst:
            published, dropped = fan_out_packet_ins(self, self.view_yc, burst)
            self.events_forwarded += published
            self.events_dropped += sum(dropped)

    def _forward_packet_outs(self, entries: list[tuple[str, str, str]]) -> None:
        """Take ``(view switch, view switch, name)`` tenant spool entries in one submission and emit each below."""
        if not entries:
            return
        for view_switch, out in take_packet_out(self.view_yc, entries):
            try:
                self.forward_packet_out(view_switch, out)
            except FsError:
                continue

    def _write_down(self, switch: str, name: str, match: Match, actions: list[Action], spec: FlowSpec) -> None:
        """Create the translated flow ``name`` below, keeping the tenant's timeouts and a clamped priority.

        The name is a function of the tenant's, so a predecessor — an
        earlier version, or what an instance before a restart left — is
        found by colliding with it (EAFP: the first install pays no
        ``exists``) and replaced, which re-asserts it on hardware.
        """
        attributes = {
            "priority": min(spec.priority, MAX_TENANT_PRIORITY),
            "idle_timeout": spec.idle_timeout or None,
            "hard_timeout": spec.hard_timeout or None,
        }
        try:
            self.yc.create_flow(switch, name, match, actions, **attributes)
        except FileExists:
            self.yc.delete_flow(switch, name)
            self.yc.create_flow(switch, name, match, actions, **attributes)

    def _set_status(self, view_switch: str, flow: str, status: str) -> None:
        """Report a tenant flow's fate in place, in its ``state.status`` file."""
        try:
            self.sc.write_text(f"{self.view_yc.flow_path(view_switch, flow)}/state.status", status)
        except FsError:
            pass
