"""The translation loop: what a driver, a view and a self-controlled device share.

A driver (paper §4.1), a view (§4.2: "an application effectively
interacts with two portions of the file system simultaneously —
providing a translation between them") and a device running yanc itself
(§7.1) are the same program with a different middle.  Each one

* follows a ``flows/`` directory and hands every *commit* (§3.4: a
  ``version`` that grew) and every removal to its translation —
  :class:`FlowFollower`;
* feeds packet-ins to every subscribed private buffer (§3.5), bounded —
  :func:`fan_out_packet_in`;
* drains the ``packet_out/`` spool — :func:`take_packet_out`.

The protocols are stated here once; a translator supplies only what it
does with a :class:`~repro.yancfs.client.FlowSpec` (encode it, intersect
it, compile it to a path, install it).  These are module-level functions
over a :class:`~repro.yancfs.client.YancClient`, not methods of it: they
compose client calls and add no file-system operation of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.dataplane.switch import NO_BUFFER
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask, NotifyEvent
from repro.yancfs.client import FlowSpec, YancClient, parse_packet_out_name

if TYPE_CHECKING:
    from repro.proc.process import Process
    from repro.vfs.uring import IoUring

#: Children appearing in / leaving a watched directory.
DIR_MASK = EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO
#: A write landing in a watched object directory.  IN_CLOSE_WRITE covers
#: the echo-style file path; IN_MODIFY also catches direct store writes
#: (the libyanc fastpath), which never open file handles.
FILE_MASK = EventMask.IN_MODIFY | EventMask.IN_CLOSE_WRITE
#: A ``packet_out/`` spool: an entry is ready when its writer closes it.
SPOOL_MASK = DIR_MASK | EventMask.IN_CLOSE_WRITE

#: Events one private buffer holds before its feeder drops (§3.5 backpressure).
MAX_PENDING_EVENTS = 256


@dataclass(eq=False)  # compared and hashed by identity: a follower is the head of its watch contexts
class FlowFollower:
    """Follow one switch's ``flows/`` directory on behalf of a translator.

    ``on_commit(name, spec)`` runs iff the flow's ``version`` grew past
    the last one handed over (a spec file touched without a commit never
    reaches the translator); ``on_remove(name)`` runs when a followed
    directory goes, whether or not it was ever committed.  With inotify
    (:meth:`attach`) a child is watched from the moment it is seen — at
    attach for the ones already there, which is what lets a restarted
    translator or a live-upgraded driver adopt the tree — until its
    removal drops the watch again, so a retired flow pins nothing.
    Across a remote mount, where notification does not travel,
    :meth:`poll` is the same reconciliation spelled ``listdir`` + diff.

    Watches are registered on ``proc`` under ``(self,)`` and ``(self,
    name)``; the translator's ``on_event`` passes those events back to
    :meth:`on_event`.  ``switch`` may be reassigned when the directory
    is renamed (watches follow the inode, reads need the new path).
    """

    proc: "Process"
    yc: YancClient
    switch: str
    on_commit: Callable[[str, FlowSpec], None]
    on_remove: Callable[[str], None]
    #: followed flow -> the last version handed to ``on_commit`` (0: none yet)
    versions: dict[str, int] = field(default_factory=dict)

    def attach(self) -> None:
        """Watch ``flows/``, then adopt what is already in it (watch first: nothing slips between)."""
        self.proc.watch(f"{self.yc.switch_path(self.switch)}/flows", DIR_MASK, (self,))
        for name in self.yc.flows(self.switch):
            self._track(name)

    def detach(self) -> None:
        """Drop every watch and forget every version; the tree keeps the flows."""
        self.proc.unwatch((self,))
        for name in self.versions:
            self.proc.unwatch((self, name))
        self.versions.clear()

    def on_event(self, ctx: tuple, event: NotifyEvent) -> None:
        """One inotify event from a watch this follower registered."""
        if len(ctx) == 2:
            if event.name == "version":
                self._sync(ctx[1])
        elif event.name is None:
            return
        elif event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            self._track(event.name)
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            self._forget(event.name)

    def poll(self) -> None:
        """One notification-free round; raises when ``flows/`` itself cannot be listed."""
        present = set(self.yc.flows(self.switch))
        for name in [name for name in self.versions if name not in present]:
            self._forget(name)
        for name in present:
            self._sync(name)

    def _track(self, name: str) -> None:
        self.proc.watch(self.yc.flow_path(self.switch, name), FILE_MASK, (self, name))
        self._sync(name)  # a moved-in or adopted flow may already be committed

    def _forget(self, name: str) -> None:
        self.proc.unwatch((self, name))  # else the watch pins the dead FlowNode
        self.versions.pop(name, None)
        self.on_remove(name)

    def _sync(self, name: str) -> None:
        seen = self.versions.setdefault(name, 0)
        try:
            spec = self.yc.read_flow(self.switch, name)
        except FsError:
            return  # gone or half-removed: its IN_DELETE (or the next poll) retires it
        if spec.version > seen:
            self.versions[name] = spec.version
            self.on_commit(name, spec)


def fan_out_packet_in(
    proc: "Process",
    yc: YancClient,
    switch: str,
    seq: int,
    *,
    in_port: int,
    reason: str,
    total_len: int,
    data: bytes,
    buffer_id: int = NO_BUFFER,
    ring: "IoUring | None" = None,
    apps: list[str] | None = None,
) -> tuple[int, int]:
    """Feed one packet-in to every private buffer under ``events/``; returns ``(published, dropped)``.

    The §3.5 policy, stated once: a buffer already holding
    :data:`MAX_PENDING_EVENTS` loses the *newest* event — its slow
    consumer keeps what it has, every other subscriber is served — and
    the loss is counted against ``proc`` as ``events.dropped.<process
    name>`` in ``/proc/counters``.  A buffer that vanished mid-flight
    (the app unsubscribed) is neither.  ``buffer_id`` defaults to "none":
    switch buffers do not cross a view or a remote mount, only a driver
    can name one its switch will release.

    Two transports.  With a persistent ``ring`` and the subscriber list
    ``apps`` its owner keeps, two crossings regardless of fan-out: one
    ``io_uring_enter`` probes every buffer, one publishes to every
    buffer with room.  Otherwise a system call per step — list
    ``events/``, then per buffer a probe and a maildir publish — which is
    all a remote mount offers.
    """
    event = {"in_port": in_port, "reason": reason, "buffer_id": buffer_id, "total_len": total_len, "data": data}
    published = dropped = 0
    if ring is not None:
        for app in apps:
            if ring.sq_pending >= ring.entries:
                ring.submit()
            ring.prep("listdir", yc.events_path(switch, app), user_data=app)
        ring.submit()
        probes = [(cqe.user_data, cqe.result) for cqe in ring.completions() if cqe.ok]
        targets = [app for app, pending in probes if len(pending) < MAX_PENDING_EVENTS]
        dropped = len(probes) - len(targets)
        if targets:
            published = yc.write_packet_in_batched(switch, targets, seq, uring=ring, **event)
    else:
        try:
            apps = yc.sc.listdir(f"{yc.switch_path(switch)}/events")
        except FsError:
            apps = []
        for app in apps:
            try:
                if len(yc.sc.listdir(yc.events_path(switch, app))) >= MAX_PENDING_EVENTS:
                    dropped += 1
                    continue
                yc.write_packet_in(switch, app, seq, **event)
                published += 1
            except FsError:
                continue
    if dropped:
        proc._count(f"events.dropped.{proc.proc_name}", dropped)
    return published, dropped


@dataclass(frozen=True)
class PacketOut:
    """One consumed ``packet_out/`` spool entry: where the frame goes, and the frame."""

    name: str
    ports: tuple[int | str, ...]
    in_port: int | None
    buffer_id: int | None
    data: bytes


def take_packet_out(yc: YancClient, switch: str, event: NotifyEvent) -> PacketOut | None:
    """Consume the spool entry a ``packet_out/`` watch event announces: read it, unlink it, parse its name.

    None when the event is not a finished write, or another consumer got
    there first.  Destination tokens are what
    :meth:`~repro.yancfs.client.YancClient.packet_out` was given; an
    entry naming no port is still consumed (``ports`` is empty).
    """
    if event.name is None or not event.mask & EventMask.IN_CLOSE_WRITE:
        return None
    path = f"{yc.switch_path(switch)}/packet_out/{event.name}"
    try:
        data = yc.sc.read_bytes(path)
        yc.sc.unlink(path)
    except FsError:
        return None
    return PacketOut(event.name, *parse_packet_out_name(event.name), data)
