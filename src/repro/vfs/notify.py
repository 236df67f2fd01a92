"""inotify-style file system monitoring.

The paper (section 5.2) has applications watch the yanc tree with the Linux
fsnotify APIs: a watch on ``switches/`` learns about new switches, a watch
on a flow's ``version`` file learns about commits, and — crucially — this
"comes free, requiring no additional lines of code to the yanc file
system".  We reproduce that property: the notify hub lives in the VFS layer
and file systems emit generic events; no yanc-specific notification code
exists anywhere.

API shape follows inotify: an application creates an :class:`Inotify`
instance, adds watches with an event mask, and reads batched
:class:`NotifyEvent` records.

Two trace points (:mod:`repro.perf.tracepoints`) sit here:
``on_emit_dirent(parent, child, mask, name, cookie)`` before a
directory-entry event fans out, and ``on_deliver(instance, event)`` for
every event handed to an :class:`Inotify` instance *before*
coalescing/overflow handling — so a subscriber sees the delivery even
when the queue merges or drops it.

:class:`EventMask` is the API's type, not the hub's: ``add_watch`` takes
one (or an ``int``) and ``NotifyEvent.mask`` is one, but a :class:`Watch`
stores its mask as a plain ``int`` and an emitted mask stays an ``int``
until an event is delivered — an ``IntFlag`` pays an enum construction
per ``&``.

**The gate is at the source.**  Most mutations happen where nobody
watches, so the hub is not where that is found out: :meth:`NotifyHub.register`
and :meth:`NotifyHub.unregister` keep a live-watch count on the watched
inode (``Inode.watches``), and a file system calls :meth:`NotifyHub.emit`
only when the inode or one of its dentry parents counts a watch, and
:meth:`NotifyHub.emit_dirent` only when the parent does or a trace
subscriber listens (so ``on_emit_dirent`` still sees every entry event).
The hub's index, ``_by_inode``, holds watched inodes only.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.errors import InvalidArgument
from repro.vfs.poll import Pollable

if TYPE_CHECKING:
    from repro.vfs.inode import Inode


class EventMask(enum.IntFlag):
    """inotify event bits (same names as ``<sys/inotify.h>``)."""

    IN_ACCESS = 0x0001
    IN_MODIFY = 0x0002
    IN_ATTRIB = 0x0004
    IN_CLOSE_WRITE = 0x0008
    IN_CLOSE_NOWRITE = 0x0010
    IN_OPEN = 0x0020
    IN_MOVED_FROM = 0x0040
    IN_MOVED_TO = 0x0080
    IN_CREATE = 0x0100
    IN_DELETE = 0x0200
    IN_DELETE_SELF = 0x0400
    IN_MOVE_SELF = 0x0800
    IN_Q_OVERFLOW = 0x4000
    IN_ISDIR = 0x4000_0000


#: Every event bit (not IN_Q_OVERFLOW or IN_ISDIR, which only come back).
IN_ALL_EVENTS = EventMask(0x0FFF)

#: Linux default for /proc/sys/fs/inotify/max_queued_events.
DEFAULT_MAX_QUEUED_EVENTS = 16384


@dataclass(frozen=True)
class NotifyEvent:
    """One delivered event.

    ``name`` is the child name for events observed via a directory watch
    and None for events on the watched node itself.  ``cookie`` pairs the
    IN_MOVED_FROM / IN_MOVED_TO halves of a rename.
    """

    wd: int
    mask: EventMask
    name: str | None = None
    cookie: int = 0

    @property
    def is_dir(self) -> bool:
        """True when the subject of the event is a directory."""
        return bool(self.mask & EventMask.IN_ISDIR)


class Watch:
    """One watch descriptor: an inode, a mask (a plain ``int``), and its owner instance."""

    def __init__(self, wd: int, inode: "Inode", mask: int, owner: "Inotify") -> None:
        self.wd = wd
        self.inode = inode
        self.mask = mask
        self.owner = owner
        self.removed = False


class Inotify(Pollable):
    """An application's notification instance (one event queue).

    The queue is bounded (inotify's ``max_queued_events``) and coalesces an
    event identical to the one at the tail of the queue, exactly as the
    kernel's ``inotify_merge`` does — a flow-table churn storm repeating
    the same modification therefore costs one queued record, and a reader
    that falls too far behind sees a single ``IN_Q_OVERFLOW`` record
    (wd -1) instead of unbounded queue growth.
    """

    def __init__(self, hub: "NotifyHub", *, max_queued_events: int | None = None) -> None:
        super().__init__()
        self._hub = hub
        self._queue: list[NotifyEvent] = []
        self._watches: dict[int, Watch] = {}
        self.max_queued_events = max(1, max_queued_events or DEFAULT_MAX_QUEUED_EVENTS)
        #: Lifetime tallies for this instance (also published to the hub's
        #: PerfCounters as notify.coalesced / notify.dropped / notify.overflows).
        self.coalesced = 0
        self.dropped = 0
        self.overflows = 0
        self._overflowed = False
        #: Called once whenever the queue goes empty -> non-empty; the
        #: simulation runtime uses it to schedule a daemon wakeup.
        self.wakeup: Callable[[], None] | None = None

    def readable(self) -> bool:
        """True when at least one event is queued (the pollers get the same edge as ``wakeup``)."""
        return bool(self._queue)

    def add_watch(self, inode: "Inode", mask: EventMask | int) -> int:
        """Watch ``inode`` for the events in ``mask``; returns the wd.

        Re-watching an inode replaces the mask (as inotify does) and
        returns the existing wd.
        """
        mask = int(mask)
        if not mask:
            raise InvalidArgument(detail="empty watch mask")
        for watch in self._hub._by_inode.get(id(inode), ()):  # the inode's bucket: a handful, not every watch we hold
            if watch.owner is self:
                watch.mask = mask
                return watch.wd
        return self._hub.register(self, inode, mask)

    def rm_watch(self, wd: int) -> None:
        """Remove watch ``wd``; raises InvalidArgument if unknown."""
        if wd not in self._watches:
            raise InvalidArgument(detail=f"unknown watch descriptor {wd}")
        self._hub.unregister(self._watches.pop(wd))

    def read(self) -> list[NotifyEvent]:
        """Drain and return all queued events (empty list if none)."""
        events, self._queue = self._queue, []
        self._overflowed = False
        return events

    def pending(self) -> int:
        """Number of undelivered events."""
        return len(self._queue)

    def close(self) -> None:
        """Drop all watches and queued events."""
        for watch in list(self._watches.values()):
            self._hub.unregister(watch)
        self._watches.clear()
        self._queue.clear()
        self._pollers.clear()

    def _deliver(self, event: NotifyEvent) -> None:
        if _tracing:
            _publish("deliver", self, event)
        queue = self._queue
        if queue:
            last = queue[-1]
            if last.wd == event.wd and last.mask == event.mask and last.name == event.name and last.cookie == event.cookie:
                self.coalesced += 1
                self._hub.count("notify.coalesced")
                return
            if len(queue) >= self.max_queued_events:
                self.dropped += 1
                self._hub.count("notify.dropped")
                if not self._overflowed:
                    self._overflowed = True
                    self.overflows += 1
                    self._hub.count("notify.overflows")
                    queue.append(NotifyEvent(wd=-1, mask=EventMask.IN_Q_OVERFLOW))
                return
            queue.append(event)
            return
        queue.append(event)
        if self.wakeup is not None:
            self.wakeup()
        self._notify_pollers()


class NotifyHub:
    """The per-VFS event fan-out: inode -> interested watches."""

    _ISDIR = int(EventMask.IN_ISDIR)  # the hub's masks are plain ints (see the module docstring)

    def __init__(self, counters=None) -> None:
        self._wd_counter = itertools.count(1)
        self._cookie_counter = itertools.count(1)
        self._by_inode: dict[int, list[Watch]] = {}
        self._counters = counters

    def count(self, name: str) -> None:
        """Increment a delivery counter (no-op without a counter registry)."""
        if self._counters is not None:
            self._counters.add(name)

    def next_cookie(self) -> int:
        """Allocate a cookie pairing the two halves of a rename."""
        return next(self._cookie_counter)

    def register(self, owner: Inotify, inode: "Inode", mask: int) -> int:
        """Create a watch; returns the new watch descriptor."""
        wd = next(self._wd_counter)
        watch = Watch(wd, inode, mask, owner)
        self._by_inode.setdefault(id(inode), []).append(watch)
        inode.watches += 1
        owner._watches[wd] = watch
        return wd

    def unregister(self, watch: Watch) -> None:
        """Tear down a watch."""
        watch.removed = True
        bucket = self._by_inode.get(id(watch.inode), [])
        if watch in bucket:
            bucket.remove(watch)
            watch.inode.watches -= 1
        if not bucket:
            self._by_inode.pop(id(watch.inode), None)

    def emit(self, inode: "Inode", mask: int, *, name: str | None = None, cookie: int = 0) -> None:
        """Deliver an event to watches on ``inode`` and on its parents.

        Watches on the node itself see the event with ``name=None``;
        watches on each directory holding a dentry for the node see it with
        the child name — mirroring how fsnotify propagates one level up.
        """
        by_inode = self._by_inode
        bucket = by_inode.get(id(inode))
        if bucket:
            self._fanout(bucket, int(mask), name, cookie)
        for parent, child_name in tuple(inode.dentries):
            bucket = by_inode.get(id(parent))
            if bucket:
                self._fanout(bucket, int(mask), child_name, cookie)

    def emit_dirent(
        self,
        parent: "Inode",
        child: "Inode",
        mask: int,
        name: str,
        cookie: int = 0,
    ) -> None:
        """Deliver a directory-entry event (create/delete/move) by name."""
        if _tracing:
            _publish("emit_dirent", parent, child, mask, name, cookie)
        bucket = self._by_inode.get(id(parent))
        if bucket:
            self._fanout(bucket, (int(mask) | self._ISDIR) if child.is_dir else int(mask), name, cookie)

    def _fanout(self, bucket: list[Watch], mask: int, name: str | None, cookie: int) -> None:
        isdir = mask & self._ISDIR  # carried to every watch that wants one of the event bits
        events = mask ^ isdir
        for watch in tuple(bucket):  # a wakeup may add or remove watches
            wanted = events & watch.mask
            if not wanted or watch.removed:
                continue
            watch.owner._deliver(NotifyEvent(wd=watch.wd, mask=EventMask(wanted | isdir), name=name, cookie=cookie))
            if self._counters is not None:
                self._counters.add("notify.events")
