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

from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask, NotifyEvent
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import PacketInEvent, YancClient

_DIR_MASK = EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO


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
    """

    def on_start(self) -> None:
        self.watch(f"{self.yc.root}/switches", _DIR_MASK, ("switches",))
        for switch in self._safe_switches():
            self._subscribe(switch)

    def _safe_switches(self) -> list[str]:
        try:
            return self.yc.switches()
        except FsError:
            return []

    def _subscribe(self, switch: str) -> None:
        try:
            buffer_path = self.yc.subscribe_events(switch, self.app_name)
        except FsError:
            return
        # IN_MOVED_TO is the publication edge: events are assembled under
        # a dot-temp name and renamed into place (maildir).  IN_CREATE is
        # kept for directly-created events (tests, foreign drivers); the
        # dot-temp's own IN_CREATE is ignored in on_event, as read_events
        # ignores the entry, or every packet-in would drain the buffer twice.
        self.watch(buffer_path, EventMask.IN_CREATE | EventMask.IN_MOVED_TO, ("buffer", switch))
        self.on_switch_added(switch)

    def on_event(self, ctx: tuple, event: NotifyEvent) -> None:
        kind = ctx[0]
        if kind == "switches":
            if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO) and event.name:
                self._subscribe(event.name)
            elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM) and event.name:
                # Drop the buffer watch with the switch, or the stale wd
                # (and its context entry) would leak for the app's lifetime.
                self.unwatch(("buffer", event.name))
                self.on_switch_removed(event.name)
        elif kind == "buffer":
            if event.name and event.name.startswith("."):
                return  # a maildir temp appeared: nothing is published yet
            switch = ctx[1]
            for pkt in self.yc.read_events(switch, self.app_name):
                self.handle_packet_in(pkt)
        else:
            self.on_other_event(ctx, event)

    # -- subclass hooks -----------------------------------------------------------------

    def handle_packet_in(self, event: PacketInEvent) -> None:
        """Subclass hook: one packet-in message."""

    def on_switch_added(self, switch: str) -> None:
        """Subclass hook: a switch appeared (buffer already subscribed)."""

    def on_switch_removed(self, switch: str) -> None:
        """Subclass hook: a switch directory went away."""

    def on_other_event(self, ctx: tuple, event: NotifyEvent) -> None:
        """Subclass hook: events from watches the subclass added."""
