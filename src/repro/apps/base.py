"""The application base class: a process that lives on file I/O.

Every yanc application is an ordinary process (paper section 2): it gets a
:class:`~repro.vfs.Syscalls` context, watches parts of the tree with
inotify, and reacts.  :class:`YancApp` is a thin skin over
:class:`~repro.proc.process.Process` — the run loop, epoll-batched
wakeups, watch bookkeeping, periodic tasks, and crash containment all
live there — adding only the yanc-specific client.  :class:`PacketInApp`
adds the common pattern of subscribing a private packet-in buffer on
every switch (including ones that appear later).
"""

from __future__ import annotations

from typing import Iterable

from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask, NotifyEvent
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import PacketInEvent, YancClient
from repro.yancfs.translate import DIR_MASK


def announced(run: Iterable[tuple[tuple, NotifyEvent]]) -> dict[str, list[str]]:
    """What a run of packet-in buffer events announces: per switch (``ctx[1]``), the entries named, in notification order.

    A maildir temp's IN_CREATE publishes nothing, so it announces nothing;
    any other event puts its buffer in the take, named or not.
    """
    named: dict[str, list[str]] = {}
    for ctx, event in run:
        if event.name and event.name.startswith("."):
            continue
        names = named.setdefault(ctx[1], [])
        if event.name:
            names.append(event.name)
    return named


class YancApp(Process):
    """Event-driven application skeleton (a supervised-capable process)."""

    #: Override: the application's name (used for event buffers, logs).
    app_name = "app"

    def __init__(self, sc: "Syscalls | Process", sim: Simulator, *, root: str = "/net", name: str = "") -> None:
        if name:
            self.app_name = name
        super().__init__(sc, sim, name=self.app_name)
        self.yc = YancClient(self.sc, root)


class PacketInApp(YancApp):
    """An app that consumes packet-ins from every switch (§3.5).

    On start it subscribes a private event buffer named after the app on
    each existing switch, watches ``switches/`` so later arrivals are
    subscribed too, and calls :meth:`handle_packet_in` for every event.
    A wakeup's run of buffer events is taken by name in one submission
    and removed in a second (:meth:`~repro.yancfs.client.YancClient.take_events`).
    Each buffer declares :attr:`dl_types`, so a publisher writes only the
    frames it admits (:func:`~repro.yancfs.translate.fan_out_packet_ins`).
    """

    run_kinds = ("buffer",)
    #: Override: what :meth:`handle_packet_in` tests, as the buffer's
    #: ``user.packet_in.dl_type`` (``"0x0806"``, ``"!0x88cc"``); None: everything.
    dl_types: str | None = None

    def on_start(self) -> None:
        self.watch(f"{self.yc.root}/switches", DIR_MASK, ("switches",))
        self._subscribe_new()

    def _subscribe_new(self) -> None:
        """Subscribe every switch whose buffer is not watched yet."""
        for switch in self._safe_switches():
            if ("buffer", switch) not in self._ctx_wds:
                self._subscribe(switch)

    def _safe_switches(self) -> list[str]:
        try:
            return self.yc.switches()
        except FsError:
            return []

    def _subscribe(self, switch: str) -> None:
        try:
            buffer_path = self.yc.subscribe_events(switch, self.app_name, self.dl_types)
        except FsError:
            return
        # IN_MOVED_TO is the publication edge: events are assembled under
        # a dot-temp name and renamed into place (maildir).  IN_CREATE is
        # kept for directly-created events (tests, foreign drivers); the
        # dot-temp's own IN_CREATE announces nothing, as the take ignores
        # the entry, or every packet-in would drain the buffer twice.
        self.watch(buffer_path, EventMask.IN_CREATE | EventMask.IN_MOVED_TO, ("buffer", switch))
        self.on_switch_added(switch)

    def on_run(self, kind: str, run: list[tuple[tuple, NotifyEvent]]) -> None:
        """A run of buffer events is one take: two submissions, whatever its length."""
        self._handle_packet_ins(announced(run))

    def on_event(self, ctx: tuple, event: NotifyEvent) -> None:
        if ctx[0] == "switches":
            if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO) and event.name:
                self._subscribe(event.name)
            elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM) and event.name:
                # Drop the buffer watch with the switch, or the stale wd
                # (and its context entry) would leak for the app's lifetime.
                self.unwatch(("buffer", event.name))
                self.on_switch_removed(event.name)
        else:
            self.on_other_event(ctx, event)

    def on_overflow(self) -> None:
        """Lost notifications: subscribe the switches that appeared, then drain every buffer."""
        self._subscribe_new()
        self._handle_packet_ins({ctx[1]: [] for ctx in self._ctx_wds if ctx[0] == "buffer"})

    def _handle_packet_ins(self, named: dict[str, list[str]]) -> None:
        if not named:
            return  # nothing published: no take, and no ring set up for one
        for pkt in self.yc.take_events(self.app_name, named):
            try:
                self.handle_packet_in(pkt)
            except FsError:
                continue  # tree changed under the handler; the next packet is its own

    # -- subclass hooks -----------------------------------------------------------------

    def handle_packet_in(self, event: PacketInEvent) -> None:
        """Subclass hook: one packet-in message."""

    def on_switch_added(self, switch: str) -> None:
        """Subclass hook: a switch appeared (buffer already subscribed)."""

    def on_switch_removed(self, switch: str) -> None:
        """Subclass hook: a switch directory went away."""

    def on_other_event(self, ctx: tuple, event: NotifyEvent) -> None:
        """Subclass hook: events from watches the subclass added."""
