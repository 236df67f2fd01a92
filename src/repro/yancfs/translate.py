"""The translation loop: what a driver, a view and a self-controlled device share.

A driver (paper §4.1), a view (§4.2: "an application effectively
interacts with two portions of the file system simultaneously —
providing a translation between them") and a device running yanc itself
(§7.1) are the same program with a different middle.  Each one

* follows a ``flows/`` directory and hands every *commit* (§3.4: a
  ``version`` that grew) and every removal to its translation, a
  wakeup's run of new and committed flows in one submission —
  :class:`FlowFollower` and :func:`follow_flows`;
* feeds packet-ins to every subscribed private buffer that admits the
  frame's ethertype (§3.5), bounded, two crossings per burst — every
  packet-in of one simulated instant, or of one drain, whatever the
  fan-out — :func:`fan_out_packet_ins`, queued by :func:`packet_in_queue`;
* drains the ``packet_out/`` spool, every entry a wakeup announces in
  one submission — :func:`take_packet_out`;
* mirrors device state into ``counters/`` files, what moved in one
  submission — :func:`mirror_counters`, for a middlebox driver (§7.2) too.

What a translator receives at one simulated instant waits on the one
per-instant queue, :class:`InstantQueue`, and is handled as one batch at
the instant's end.  It has two users: a packet-in burst
(:func:`packet_in_queue`, the driver's and a device's) and the driver's
stats sweep, every switch's replies one counter round.

The protocols are stated here once; a translator supplies only what it
does with a :class:`~repro.yancfs.client.FlowSpec` (encode it, intersect
it, compile it to a path, install it).  These are module-level functions
over a :class:`~repro.yancfs.client.YancClient`, not methods of it: they
compose client calls and add no file-system operation of their own.
Each has one transport, the context's ring (``Syscalls.ring``), over a
local tree and a remote mount alike: a remote mount issues the same file
operations, so the same RPCs, in fewer crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.netpkt.ethernet import Ethernet
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask, NotifyEvent
from repro.vfs.syscalls import O_RDONLY
from repro.vfs.uring import LINK_FD
from repro.yancfs.client import DL_TYPE_XATTR, FlowSpec, YancClient, dl_type_filter, object_files, parse_packet_out_name, write_objects_batched

if TYPE_CHECKING:
    from repro.proc.process import Process
    from repro.vfs.uring import Batch, IoUring

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


@dataclass(eq=False)  # compared and hashed by identity: a follower is part of its watch contexts
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
    :meth:`poll` is the same reconciliation spelled ``listdir`` + diff,
    taken by the same rule.

    Watches are registered on ``proc`` under ``("flows", self)`` (the
    directory) and ``("flows", self, name)`` (a flow); the translator
    lists ``"flows"`` in its ``run_kinds`` and hands each run to
    :func:`follow_flows`.  ``switch`` may be reassigned when the
    directory is renamed (watches follow the inode, reads need the new
    path).
    """

    proc: "Process"
    yc: YancClient
    switch: str
    on_commit: Callable[[str, FlowSpec], None]
    on_remove: Callable[[str], None]
    #: followed flow -> the last version handed to ``on_commit`` (0: none yet)
    versions: dict[str, int] = field(default_factory=dict)

    def attach(self) -> None:
        """Watch ``flows/``, then adopt what is already in it (watch first: nothing slips between).

        One listing, then every flow is a watch and a read in one ring
        submission (:func:`follow_flows`' pair).  Attaching again is the
        answer to lost notifications (an inotify overflow): a flow that
        went is forgotten, every flow there is watched and handed over
        if its ``version`` grew.
        """
        self.proc.watch(f"{self.yc.switch_path(self.switch)}/flows", DIR_MASK, ("flows", self))
        steps = self._reconcile("track")
        if steps:  # nothing to adopt: no submission, and no ring set up for one
            _follow(self.proc.ring, steps)

    def detach(self) -> None:
        """Drop every watch and forget every version; the tree keeps the flows."""
        self.proc.unwatch(("flows", self))
        for name in self.versions:
            self.proc.unwatch(("flows", self, name))
        self.versions.clear()

    def poll(self) -> None:
        """One notification-free round: a listing, then every flow's read in one submission; raises when ``flows/`` itself cannot be listed."""
        _follow(self.proc.ring, self._reconcile("sync"))

    def _reconcile(self, follow: str) -> list[tuple["FlowFollower", str, str]]:
        """The steps that bring ``versions`` up to ``flows/``: forget what went, then ``follow`` every flow there."""
        names = self.yc.flows(self.switch)
        present = set(names)
        return [(self, name, "forget") for name in self.versions if name not in present] + [(self, name, follow) for name in names]

    def forget(self, name: str) -> None:
        """Forget ``name`` without ``on_remove``: the translator retired it itself, so a flow re-created under it is handed over from version 1."""
        self.proc.unwatch(("flows", self, name))  # else the watch pins the dead FlowNode
        self.versions.pop(name, None)

    def _forget(self, name: str) -> None:
        self.forget(name)
        self.on_remove(name)

    def _hand_over(self, name: str, spec: FlowSpec | None) -> None:
        """The commit rule: ``spec`` (None: it could not be read) reaches ``on_commit`` iff its version grew."""
        seen = self.versions.setdefault(name, 0)
        if spec is not None and spec.version > seen:
            self.versions[name] = spec.version
            self.on_commit(name, spec)


def follow_flows(ring: "IoUring", run: Iterable[tuple[tuple, NotifyEvent]]) -> None:
    """Take a run of ``flows/`` watch events, across every follower of one process: the one consume rule (§3.4).

    In the events' order a flow that appeared (IN_CREATE, IN_MOVED_TO) is
    a linked ``inotify_add_watch → readdirplus`` pair and a ``version``
    write one ``readdirplus``, all in one submission; a flow that went
    (IN_DELETE, IN_MOVED_FROM) first takes what is queued, so every
    ``on_commit`` and ``on_remove`` arrives in the order the events did.
    """
    _follow(ring, _flow_steps(run))


def _flow_steps(run: Iterable[tuple[tuple, NotifyEvent]]) -> Iterator[tuple[FlowFollower, str, str]]:
    """The ``(follower, name, step)`` each ``flows/`` event asks for, in order; most file events ask for nothing."""
    for ctx, event in run:
        if len(ctx) == 3:
            if event.name == "version":
                yield ctx[1], ctx[2], "sync"
        elif event.name is None:
            continue
        elif event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            yield ctx[1], event.name, "track"
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            yield ctx[1], event.name, "forget"


def _follow(ring: "IoUring", steps: Iterable[tuple[FlowFollower, str, str]]) -> None:
    """Run ``(follower, name, step)`` steps in order: ``"track"`` watches and reads, ``"sync"`` reads, ``"forget"`` retires."""
    batch = ring.batch()
    for follower, name, step in steps:
        if step == "forget":
            _take(batch)
            try:
                follower._forget(name)
            except FsError:
                pass  # on_remove met a changed tree; a later event resolves it
            continue
        path = follower.yc.flow_path(follower.switch, name)
        if step == "track":
            batch.prep("inotify_add_watch", follower.proc.ino, path, FILE_MASK, link=True, user_data=(follower, name))
        batch.prep("readdirplus", path, user_data=(follower, name))
    _take(batch)


def _take(batch: "Batch") -> None:
    """Submit the watches and reads :func:`_follow` queued: file each watch with its process, hand each flow read over."""
    for cqe in batch.submit():
        follower, name = cqe.user_data
        try:
            if cqe.op == "inotify_add_watch":
                if cqe.ok:
                    follower.proc.adopt_watch(cqe.result, ("flows", follower, name))
            else:
                follower._hand_over(name, FlowSpec.from_files(object_files(cqe.result)) if cqe.ok else None)
        except FsError:
            continue  # the tree changed under the translator; a later event resolves it


def fan_out_packet_ins(proc: "Process", yc: YancClient, burst: list[tuple[str, int, list[str] | None, dict]]) -> tuple[int, list[int]]:
    """Feed a burst of ``(switch, seq, apps, fields)`` packet-ins to every private buffer under ``events/`` that admits each; returns ``(published, dropped per packet-in)``.

    ``fields`` is the event directory's content
    (:func:`~repro.yancfs.client.packet_in_files`).  A buffer that
    declares ethertypes admits only a frame whose ethertype, past a VLAN
    tag, its declaration admits (:func:`~repro.yancfs.client.dl_type_filter`);
    what declarations withhold is counted against ``proc`` as
    ``events.filtered.<process name>`` in ``/proc/counters``.

    The §3.5 policy, stated once: an admitting buffer already holding
    :data:`MAX_PENDING_EVENTS` loses the *newest* event — its slow
    consumer keeps what it has, every other subscriber is served — and
    the loss is counted as ``events.dropped.<process name>``.  A buffer
    that vanished mid-flight (the app unsubscribed) is neither.  The
    policy is applied packet-in by packet-in, in arrival order, against
    each buffer's depth as the burst fills it, so a burst ends where
    handing its packet-ins over one at a time would.

    Two crossings on ``yc``'s ring per burst, whatever its size and
    fan-out: one ``io_uring_enter`` probes every buffer's listing and
    declaration, one publishes every admitted packet-in (a burst wider
    than the ring splits by the ring's room).  A caller that keeps no
    subscriber list (``apps`` None: a view, a device over a remote mount)
    has ``events/`` listed first, once per switch.
    """
    listed: dict[str, list[str]] = {}
    for switch, _seq, apps, _fields in burst:
        if apps is None and switch not in listed:
            try:
                listed[switch] = yc.sc.listdir(f"{yc.switch_path(switch)}/events")
            except FsError:
                listed[switch] = []
    batch = yc.sc.ring.batch()
    paths: dict[tuple[str, str], str] = {}
    for switch, _seq, apps, _fields in burst:
        for app in listed[switch] if apps is None else apps:
            if (switch, app) not in paths:
                path = paths[switch, app] = yc.events_path(switch, app)
                batch.prep("listdir", path, user_data=(switch, app))
                batch.prep("getxattr", path, DL_TYPE_XATTR, user_data=(switch, app))
    depth, rules = {}, {}
    for cqe in batch.submit():
        if cqe.ok:
            if cqe.op == "listdir":
                depth[cqe.user_data] = len(cqe.result)
            elif rule := dl_type_filter(cqe.result):
                rules[cqe.user_data] = rule
    objects, dropped, filtered = [], [], 0
    for switch, seq, apps, fields in burst:
        eth_type, lost = _eth_type(fields["data"]) if rules else None, 0
        for app in listed[switch] if apps is None else apps:
            key = (switch, app)
            if key not in depth:
                continue
            if key in rules:
                if eth_type is None or rules[key][0] == (eth_type in rules[key][1]):
                    filtered += 1
                    continue
            if depth[key] >= MAX_PENDING_EVENTS:
                lost += 1
                continue
            depth[key] += 1
            objects.append((f"{paths[key]}/pi_{seq}", fields, "rename"))
        dropped.append(lost)
    published = write_objects_batched(yc.sc, objects) if objects else 0
    if filtered:
        proc._count(f"events.filtered.{proc.proc_name}", filtered)
    if any(dropped):
        proc._count(f"events.dropped.{proc.proc_name}", sum(dropped))
    return published, dropped


def _eth_type(data: bytes) -> int | None:
    """A frame's ethertype past a VLAN tag, or None: a header that does not decode matches no declaration."""
    try:
        return Ethernet.unpack(data).eth_type
    except ValueError:
        return None


@dataclass(eq=False)
class InstantQueue:
    """What ``proc`` queues at one simulated instant, handed to ``take`` as one list (§8.1: a crossing per instant, not per arrival).

    NAPI's interrupt mitigation (Salim et al., "Beyond Softnet", 2001):
    the first ``put`` of an instant schedules one zero-delay task of
    ``proc`` — crash-contained and CPU-charged, it adds no simulated
    latency and runs after every event already due at that instant — and
    that task hands every item queued since to ``take``.  A queue an
    earlier instant left belonged to a process that died before its
    flush: the next ``put`` drops it.  Its users are a packet-in burst
    (:func:`packet_in_queue`) and the driver's stats sweep
    (:func:`mirror_counters`).
    """

    proc: "Process"
    take: Callable[[list], None]
    _items: list = field(default_factory=list)
    _due: float | None = None

    def put(self, *item) -> None:
        """Queue ``item`` (a tuple of the arguments); the first of an instant schedules the flush."""
        now = self.proc.sim.now
        if self._due != now:
            self._due, self._items = now, []
            self.proc.schedule(0, self.flush)
        self._items.append(item)

    def flush(self) -> None:
        """Hand what is queued now to ``take`` (the scheduled task; a caller outside the run loop may call it too)."""
        items = self._items
        self._due, self._items = None, []
        if items:
            self.take(items)


def packet_in_queue(proc: "Process", yc: YancClient, account: Callable[[list, int, list[int]], None]) -> InstantQueue:
    """An :class:`InstantQueue` of ``put(owner, switch, seq, apps, fields)`` packet-ins, fanned out as one burst (§3.5).

    A burst costs two crossings (:func:`fan_out_packet_ins`), not two per
    packet-in; ``account(owners, published, dropped)`` then gets each
    packet-in's ``owner`` beside its drop count.
    """

    def fan_out(queued: list) -> None:
        account([item[0] for item in queued], *fan_out_packet_ins(proc, yc, [item[1:] for item in queued]))

    return InstantQueue(proc, fan_out)


#: Seconds between two counter rounds: the driver's stats poll, a view's and a middlebox driver's mirror.
COUNTER_PERIOD = 1.0


def mirror_counters(ring: "IoUring", rows: Iterable[tuple[str, dict[str, object], dict[str, object]]]) -> None:
    """One counter round: the ``(directory, written, {file: value})`` rows' files that moved, in one submission.

    ``written`` is the caller's record of the value each file's last ok
    write left; a file whose value equals it is skipped, every other is
    one ``open → write → close`` chain (a round wider than the ring
    splits by its room), so a round that moves nothing crosses nothing.
    The chain's ``close`` decides: ok, the value is remembered; not, it
    is forgotten and the next round retries.  No probe: a directory that
    is gone fails its chain's ``open``, which cancels that chain alone.
    The rule's cost, for every translator alike: a counter file someone
    else overwrites is not healed until its value moves or the record goes
    — and a round's ``open`` creates the file, so one that a ``cp`` still
    filling the directory writes after the round is such an overwrite.
    """
    batch = ring.batch()
    for directory, written, values in rows:
        for name, value in values.items():
            if written.get(name) != value:
                batch.prep_write_file(f"{directory}/{name}", str(value).encode(), user_data=(written, name, value))
    for cqe in batch.submit():
        if cqe.op == "close":  # the last link of a file's chain: ok iff the whole write was
            written, name, value = cqe.user_data
            if cqe.ok:
                written[name] = value
            else:
                written.pop(name, None)


@dataclass(frozen=True)
class PacketOut:
    """One consumed ``packet_out/`` spool entry: where the frame goes, and the frame."""

    name: str
    ports: tuple[int | str, ...]
    in_port: int | None
    buffer_id: int | None
    data: bytes


def spooled(event: NotifyEvent) -> str | None:
    """The spool entry a ``packet_out/`` watch event announces as finished (its writer closed it), else None."""
    return event.name if event.name is not None and event.mask & EventMask.IN_CLOSE_WRITE else None


def take_packet_out(yc: YancClient, entries: list[tuple[object, str, str]]) -> list[tuple[object, PacketOut]]:
    """Consume ``(key, switch, name)`` spool entries in one submission; ``(key, PacketOut)`` per entry taken, in order.

    Each entry is one linked ``open → read → close → unlink`` chain — the
    read and unlink the direct calls would issue — so an entry that is
    gone, or that another consumer got first, cancels only its own chain
    and is left out.  Destination tokens are what
    :meth:`~repro.yancfs.client.YancClient.packet_out` was given; an
    entry naming no port is still consumed (``ports`` is empty).
    """
    batch = yc.sc.ring.batch()
    for index, (_key, switch, name) in enumerate(entries):
        path = f"{yc.switch_path(switch)}/packet_out/{name}"
        batch.prep("open", path, O_RDONLY, link=True, user_data=index)
        batch.prep("read", LINK_FD, link=True, user_data=index)
        batch.prep("close", LINK_FD, link=True, user_data=index)
        batch.prep("unlink", path, user_data=index)
    data: dict[int, bytes] = {}
    taken = []
    for cqe in batch.submit():
        if cqe.op == "read" and cqe.ok:
            data[cqe.user_data] = cqe.result
        elif cqe.op == "unlink" and cqe.ok:
            taken.append(cqe.user_data)
    return [(entries[index][0], PacketOut(entries[index][2], *parse_packet_out_name(entries[index][2]), data[index])) for index in taken]
