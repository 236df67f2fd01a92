"""yancrace: an opt-in happens-before race detector for the process fleet.

yanc's processes cooperate through shared files, with the ``version``-file
increment as the only atomic commit point for flows (§3.4) — so the
signature failure modes are lost updates, torn multi-file writes, and
reads of uncommitted flow state.  Where yancsan checks per-operation
invariants, yancrace checks the *ordering* between operations: every
syscall context (each :class:`~repro.proc.process.Process` owns one; a
plain test-harness :class:`~repro.vfs.syscalls.Syscalls` counts too) is
an actor with a vector clock, every regular-file data access is recorded
in a bounded per-inode shadow history, and two conflicting accesses with
no happens-before edge between them are a race.

The detector is a subscriber on the trace-point bus
(:mod:`repro.perf.tracepoints`) and holds all of its state itself.
Happens-before edges come only from the substrate's real synchronization
points, mirroring §3.4/§5.2 semantics:

* **notify delivery** — every event delivered to an inotify instance
  carries the emitter's clock; draining the instance (``inotify_read``)
  or seeing it ready (``epoll_wait``) acquires the accumulated clock, so
  a watcher inherits everything its writers did before emitting.
* **version-file commits** — writing a flow's ``version`` releases the
  committer's clock against that file; reading it acquires the last
  released clock.  Observing the new version therefore orders the reader
  after every spec write the commit covered.
* **scheduling** — ``Process.every``/``schedule`` (and therefore cron
  jobs) capture the scheduler's clock at creation; the scheduled run
  acquires it.  Supervised restarts reuse the crashed process's context,
  so program order already covers them.
* **distfs RPC** — a call releases the sender's clock to whoever handles
  it, and the reply releases the handlers' clocks back to the sender.
* **simulator quiescence** — entering and leaving ``Simulator.run`` /
  ``run_until`` joins all clocks (a global barrier): the sequential test
  harness around a run window is ordered against everything inside it,
  while accesses *within* one window stay concurrent unless a real edge
  orders them.

A second pass model-checks the commit protocol itself, fed to
:class:`~repro.yancfs.commit.CommitAutomaton` with each actor as a
writer: a spec write to an already-committed flow must be followed by a
``version`` increment its committer covers (**torn-commit** otherwise),
and no other actor may read the spec while that increment is outstanding
(**uncommitted-read**).

Accesses to ``counters/`` files are exempt: counters are lossy-by-design
monitoring state the driver overwrites and anyone samples (§3.5), not
shared state the protocol orders.  Direct-store mutations that bypass
``Syscalls`` (``libyanc.fastpath``) are invisible here, exactly as they
are invisible to the kernel's fsnotify.

Usage::

    YANCRACE=1 python -m pytest               # conftest wires teardown checks
    python -m repro.analysis race workload.py # run any script under the detector

Findings can be suppressed at either involved source line with
``# yancrace: disable=<kind>`` (kinds: ``race``, ``torn-commit``,
``uncommitted-read``, or ``all``).
"""

from __future__ import annotations

import linecache
import sys
import weakref
from collections import deque
from dataclasses import asdict, dataclass

from repro.analysis.core import comment_suppresses
from repro.analysis.hb import Actor, VectorClock
from repro.perf import tracepoints
from repro.vfs.errors import FsError
from repro.vfs.inode import FileInode
from repro.vfs.syscalls import O_TRUNC, SYSCALLS, Syscalls
from repro.yancfs.commit import COMMIT_FILE, CommitAutomaton, Pending, is_spec_file, version_of
from repro.yancfs.schema import CountersDir, FlowNode

#: Frames whose filename matches one of these are substrate plumbing; the
#: reported syscall site is the first frame outside them (app/test code).
_INFRA_MARKERS = ("/repro/vfs/", "/repro/analysis/", "/repro/yancfs/", "/repro/libyanc/", "/repro/perf/")

#: Bounded per-inode access history (like TSan's shadow cells): old
#: accesses age out, trading missed ancient races for bounded memory.
DEFAULT_HISTORY = 16

#: Actor key shared by every context not owned by a process (id() of a
#: real object is never 0, so this cannot collide).
_HARNESS_AID = 0

#: Syscalls that move file data or synchronize: the detector looks at
#: their outcome.
_DATA_OPS = frozenset(
    "open close read write pread pwrite ftruncate truncate rename readdirplus inotify_read epoll_wait".split()
)
#: Every syscall that opens an actor scope: the data ops, plus the
#: syscall table's mutators — those need no shadow record (directory ops
#: are atomic in the kernel, like a concurrent map) but must make their
#: caller the current actor so the notify events they emit carry its clock.
_SCOPED_OPS = _DATA_OPS | {op for op, row in SYSCALLS.items() if row.mutates}


@dataclass(frozen=True)
class RaceFinding:
    """One ordering violation, with both parties' identities and sites."""

    kind: str  # "race" | "torn-commit" | "uncommitted-read"
    path: str
    detail: str
    actors: tuple[str, ...] = ()
    sites: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"yancrace [{self.kind}] {self.detail}"


class _Access:
    """One recorded shadow access: who, when (their tick), how, where."""

    __slots__ = ("actor", "tick", "write", "site")

    def __init__(self, actor: Actor, tick: int, write: bool, site: str) -> None:
        self.actor = actor
        self.tick = tick
        self.write = write
        self.site = site


#: Source file name -> is it substrate plumbing (memo: the frame walk
#: below runs per recorded access and meets the same few files every time).
_INFRA_FILES: dict[str, bool] = {}


def _call_site() -> str:
    """``file:line`` of the nearest non-substrate frame (the app's site)."""
    frame = sys._getframe(1)
    for _ in range(40):
        if frame is None:
            break
        filename = frame.f_code.co_filename
        infra = _INFRA_FILES.get(filename)
        if infra is None:
            normalized = filename.replace("\\", "/")
            infra = _INFRA_FILES[filename] = any(marker in normalized for marker in _INFRA_MARKERS)
        if not infra:
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _site_suppressed(kind: str, *sites: str) -> bool:
    """True when any involved source line carries a disable comment."""
    for site in sites:
        path, _, lineno = site.rpartition(":")
        if not path:
            continue
        try:
            number = int(lineno)
        except ValueError:
            continue
        if comment_suppresses(linecache.getline(path, number), kind):
            return True
    return False


class RaceDetector:
    """Collects ordering findings between :meth:`reset` and :meth:`check`."""

    def __init__(self, *, history: int = DEFAULT_HISTORY) -> None:
        self.findings: list[RaceFinding] = []
        self.history = max(2, history)
        # id(syscalls) -> Actor (the sc object is pinned inside).
        self._actors: dict[int, Actor] = {}
        # id(inode) -> (inode, bounded access deque); inode pinned so its
        # id cannot be recycled while history still names it.
        self._shadow: dict[int, tuple[FileInode, deque]] = {}
        # id(inotify instance) -> (instance, accumulated emitter clock).
        self._inbox: dict[int, tuple[object, VectorClock]] = {}
        # id(version inode) -> (inode, clock released by the last commit).
        self._commit_clocks: dict[int, tuple[FileInode, VectorClock]] = {}
        # §3.4 per flow, one writer per actor id; a pending write's note
        # is (actor, tick, file name, path, site).
        self._commits = CommitAutomaton()
        # id(inode) -> (inode, publisher clock at rename time): rename is
        # the atomic-publish op (maildir), so reaching a renamed object
        # acquires its publication.
        self._published: dict[int, tuple[object, VectorClock]] = {}
        # Dedup keys so one racy loop reports once, not per iteration.
        self._seen: set[tuple] = set()
        self._barrier = VectorClock()
        self._barrier_epoch = 0
        # Syscalls -> {fd: (inode, path)}: which file each descriptor
        # names.  Weak on the context the bus hands over, so a collected
        # one cannot bequeath its fds to a successor reusing its id().
        self._fd_files: weakref.WeakKeyDictionary[Syscalls, dict[int, tuple[FileInode, str]]] = weakref.WeakKeyDictionary()
        # Guarded task closure -> scheduling-edge origin (clock snapshot
        # at creation, actors that already acquired it).
        self._origins: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # -- execution context (who is running right now) --
        #: The context inside a scoped syscall, or the process scope a
        #: dispatch/task run established; emissions attribute here.
        self._current: Syscalls | None = None
        #: The ``_current`` each open scope will restore (innermost last).
        self._scopes: list[Syscalls | None] = []
        #: Origins of the task runs in progress / in-flight RPC calls as
        #: (sender, snapshot, responders, merged).
        self._origin_stack: list[tuple | None] = []
        self._rpc_stack: list[tuple] = []
        #: Simulator.run nesting depth: 0 means the harness itself is executing.
        self._run_depth = 0

    # -- lifecycle -----------------------------------------------------------------

    def install(self) -> "RaceDetector":
        """Start observing; idempotent per detector."""
        tracepoints.subscribe(self)
        return self

    def uninstall(self) -> None:
        """Stop observing; findings stay until :meth:`reset`."""
        tracepoints.unsubscribe(self)
        # No exit event will arrive for scopes still open: forget them.
        self._fd_files.clear()
        self._origins.clear()
        self._current = None
        self._scopes.clear()
        self._origin_stack.clear()
        self._rpc_stack.clear()
        self._run_depth = 0

    def reset(self) -> None:
        """Drop all recorded state, e.g. between tests."""
        self.findings.clear()
        self._actors.clear()
        self._shadow.clear()
        self._inbox.clear()
        self._commit_clocks.clear()
        self._commits = CommitAutomaton()
        self._published.clear()
        self._seen.clear()
        self._barrier = VectorClock()
        self._barrier_epoch = 0
        self._fd_files.clear()

    # -- the CLI workload protocol (repro.analysis.cli.run_workload) ---------------

    def report(self) -> tuple[list[dict], list[str]]:
        """JSON-ready findings (what ``--json`` and baselines diff on) plus
        epilogue lines (none)."""
        return [asdict(f) for f in self.check()], []

    @staticmethod
    def record_key(rec: dict) -> tuple:
        """Baseline identity: race findings have no stable line or detail."""
        return (rec.get("kind", ""), rec.get("path", ""), tuple(rec.get("sites", ())))

    @staticmethod
    def render(rec: dict, marker: str) -> str:
        return f"yancrace [{rec['kind']}]{marker} {rec['detail']}"

    def check(self) -> list[RaceFinding]:
        """All findings, including teardown-only ones (torn commits)."""
        findings = list(self.findings)
        for pend in self._commits.pending():
            actor, _tick, name, path, site = pend.note
            if _site_suppressed("torn-commit", site):
                continue
            findings.append(
                RaceFinding(
                    "torn-commit",
                    path,
                    f"torn commit: {actor.describe()} wrote flow spec {name!r} "
                    f"({path!r}) at {site} while the flow was at version "
                    f"{pend.version}, but never incremented 'version' — the switch will "
                    "never see the change (§3.4)",
                    actors=(actor.describe(),),
                    sites=(site,),
                )
            )
        return findings

    # -- clock plumbing ------------------------------------------------------------

    def _actor_for(self, sc: Syscalls) -> Actor:
        # Every process-owned context is its own actor.  Bare contexts
        # (owner_pid == 0: the test harness, shells, ad-hoc Syscalls) all
        # collapse into ONE sequential "harness" actor — a test body using
        # three credential hats is still a single thread of control, not
        # three concurrent processes.
        if not getattr(sc, "owner_pid", 0):
            return self._harness_actor()
        aid = id(sc)
        actor = self._actors.get(aid)
        if actor is None:
            actor = Actor(aid, sc)
            actor.clock.merge(self._barrier)
            # Birth edge: everything the orchestrator did before this
            # process's first syscall is program-order-before it (the
            # harness only runs while the simulator is parked).
            harness = self._actors.get(_HARNESS_AID)
            if harness is not None:
                actor.clock.merge(harness.clock)
            actor.barrier_epoch = self._barrier_epoch
            self._actors[aid] = actor
        elif actor.barrier_epoch != self._barrier_epoch:
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
        return actor

    def _harness_actor(self) -> Actor:
        actor = self._actors.get(_HARNESS_AID)
        if actor is None:
            actor = Actor(_HARNESS_AID, None)
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
            self._actors[_HARNESS_AID] = actor
        elif actor.barrier_epoch != self._barrier_epoch:
            actor.clock.merge(self._barrier)
            actor.barrier_epoch = self._barrier_epoch
        return actor

    def publish_barrier(self) -> None:
        """Join every actor's clock (a simulator-quiescence sync point).

        Actors acquire the join lazily on their next access, so an idle
        actor costs nothing.
        """
        for actor in self._actors.values():
            self._barrier.merge(actor.clock)
        self._barrier_epoch += 1

    def _caller_actor(self, previous: "Syscalls | None") -> Actor | None:
        """Who synchronously invoked the current syscall, if knowable.

        Inside a simulator window with no process scope (raw scheduled
        events, dataplane plumbing) the invoker is unknown — return None
        rather than inventing an edge.
        """
        if previous is not None:
            return self._actor_for(previous)
        if self._run_depth == 0:
            return self._harness_actor()
        return None

    def _on_syscall_enter(self, sc: Syscalls, previous: "Syscalls | None") -> Actor:
        """Per-syscall prologue: resolve the actor, apply scope edges."""
        actor = self._actor_for(sc)
        # Synchronous-call edge, caller -> callee: when one context drives
        # another's syscalls in its own control flow (the harness using a
        # process's client, a shell running as root), the call is in the
        # caller's program order.
        caller = self._caller_actor(previous)
        if caller is not None and caller is not actor:
            actor.clock.merge(caller.clock)
        if self._origin_stack and self._origin_stack[-1] is not None:
            clock, merged = self._origin_stack[-1]
            if actor.aid not in merged:
                actor.clock.merge(clock)
                merged.add(actor.aid)
        if self._rpc_stack:
            sender, snap, responders, merged = self._rpc_stack[-1]
            if actor is not sender and actor.aid not in merged:
                if snap is not None:
                    actor.clock.merge(snap)
                merged.add(actor.aid)
                responders.append(actor)
        return actor

    def _on_syscall_leave(self, sc: Syscalls, previous: "Syscalls | None") -> None:
        """Per-syscall epilogue: callee -> caller, the return edge of a
        synchronous call (the caller resumes having observed its effects)."""
        actor = self._actor_for(sc)
        caller = self._caller_actor(previous)
        if caller is not None and caller is not actor:
            caller.clock.merge(actor.clock)

    def _snapshot_scope(self):
        """Clock captured at task-creation time (the scheduling edge)."""
        if self._current is None:
            return None
        return (self._actor_for(self._current).clock.snapshot(), set())

    def _rpc_send_state(self):
        if self._current is None:
            return (None, None, [], set())
        sender = self._actor_for(self._current)
        return (sender, sender.clock.snapshot(), [], set())

    def _rpc_recv_state(self, state) -> None:
        sender, _snap, responders, _merged = state
        if sender is None:
            return
        for responder in responders:
            sender.clock.merge(responder.clock)

    def _note_publish(self, sc: Syscalls, node: object) -> None:
        """rename target: record the publisher's clock on the object."""
        entry = self._published.get(id(node))
        if entry is None:
            entry = (node, VectorClock())
            self._published[id(node)] = entry
        entry[1].merge(self._actor_for(sc).clock)

    def on_spawn(self, parent_sc: Syscalls, child_sc: Syscalls) -> None:
        """fork(2) edge: the child starts with the parent's clock."""
        self._actor_for(child_sc).clock.merge(self._actor_for(parent_sc).clock)

    def on_deliver(self, instance: object, _event: object) -> None:
        """An event was delivered (or coalesced) into an inotify queue."""
        if self._current is None:
            return
        actor = self._actor_for(self._current)
        entry = self._inbox.get(id(instance))
        if entry is None:
            entry = (instance, VectorClock())
            self._inbox[id(instance)] = entry
        entry[1].merge(actor.clock)

    def _acquire_instance(self, sc: Syscalls, instance: object) -> None:
        """inotify_read: the reader acquires its emitters' clocks."""
        entry = self._inbox.get(id(instance))
        if entry is not None:
            self._actor_for(sc).clock.merge(entry[1])

    def _acquire_ready(self, sc: Syscalls, ep: object) -> None:
        """epoll_wait: acquire the clock of every ready descriptor."""
        actor = self._actor_for(sc)
        for pollable in ep.pollables():
            if not pollable.readable():
                continue
            entry = self._inbox.get(id(pollable))
            if entry is not None:
                actor.clock.merge(entry[1])

    # -- trace-point handlers ----------------------------------------------------------

    def _push_scope(self, sc: "Syscalls | None") -> "Syscalls | None":
        """Open a scope with ``sc`` current (None keeps whoever is); returns the previous."""
        previous = self._current
        self._scopes.append(previous)
        if sc is not None:
            self._current = sc
        return previous

    def _pop_scope(self) -> "Syscalls | None":
        # An exit whose enter predates install() finds nothing to restore.
        self._current = self._scopes.pop() if self._scopes else None
        return self._current

    def on_syscall_enter(self, sc: Syscalls, op: str, paths: tuple, args: tuple) -> None:
        if op in _SCOPED_OPS:
            self._on_syscall_enter(sc, self._push_scope(sc))

    def on_syscall_exit(self, sc: Syscalls, op: str, paths: tuple, args: tuple, result: object, exc: BaseException | None) -> None:
        if op not in _SCOPED_OPS:
            return
        if op in _DATA_OPS:
            self._observe(sc, op, paths, args, result, exc)
        self._on_syscall_leave(sc, self._pop_scope())

    def _observe(self, sc: Syscalls, op: str, paths: tuple, args: tuple, result: object, exc: BaseException | None) -> None:
        """What a finished data syscall did, while its caller is still current."""
        fds = self._fd_files.get(sc)
        if op == "close":
            entry = fds.pop(args[0], None) if fds else None
            # close-time validation rejected the write and rolled the file
            # back: the spec change never became durable, so it cannot owe
            # a version increment.
            if entry is not None and isinstance(exc, FsError):
                for parent, _name in entry[0].dentries:
                    if isinstance(parent, FlowNode):
                        self._commits.withdraw(parent, self._actor_for(sc).aid)
        elif exc is not None:
            return
        elif op == "open":
            handle = sc._fds.get(result)
            if handle is not None and isinstance(handle.inode, FileInode):
                self._fd_files.setdefault(sc, {})[result] = (handle.inode, paths[0])
                if args[1] & O_TRUNC and handle.writable:
                    self._record_access(sc, handle.inode, paths[0], write=True)
        elif op == "truncate":
            inode = sc.vfs.resolve(sc.ns, sc.cred, paths[0])
            if isinstance(inode, FileInode):
                self._record_access(sc, inode, paths[0], write=True)
        elif op == "readdirplus":
            # One crossing read every file it returned, in directory order —
            # so a flow's ``version`` is acquired before its spec files are
            # checked, as when each was opened in turn.
            children = sc.vfs.resolve(sc.ns, sc.cred, paths[0])._children  # as listed: no lookup (a remote one is an RPC each)
            for name, data in result:
                if data is not None:
                    self._record_access(sc, children[name], f"{paths[0]}/{name}", write=False)
        elif op == "rename":
            # rename is the atomic-publish operation (maildir): record the
            # publisher's clock on the target so later accesses through
            # the new name acquire everything done before publication.
            try:
                self._note_publish(sc, sc.vfs.resolve(sc.ns, sc.cred, paths[1]))
            except FsError:
                pass
        elif op == "inotify_read":
            self._acquire_instance(sc, args[0])
        elif op == "epoll_wait":
            self._acquire_ready(sc, args[0])
        elif fds and args[0] in fds:  # read/pread/write/pwrite/ftruncate on a tracked fd
            inode, path = fds[args[0]]
            self._record_access(sc, inode, path, write=op not in ("read", "pread"))

    def on_task_created(self, run: object, _process: object) -> None:
        # The scheduling edge: capture the creating scope's clock now so
        # the eventual run (cron job, periodic task, one-shot) acquires it.
        self._origins[run] = self._snapshot_scope()

    def on_task_enter(self, run: object, process) -> None:
        self._push_scope(process.sc)
        self._origin_stack.append(self._origins.get(run))

    def on_task_exit(self, run: object, process, result: object, exc: BaseException | None) -> None:
        if self._origin_stack:
            self._origin_stack.pop()
        self._pop_scope()

    def on_dispatch_enter(self, process) -> None:
        self._push_scope(process.sc)

    def on_dispatch_exit(self, process, result: object, exc: BaseException | None) -> None:
        self._pop_scope()

    def on_sim_run_enter(self, sim: object) -> None:
        self.publish_barrier()
        self._run_depth += 1

    def on_sim_run_exit(self, sim: object, result: object, exc: BaseException | None) -> None:
        self._run_depth = max(0, self._run_depth - 1)
        self.publish_barrier()

    def on_rpc_send(self, channel: object) -> None:
        self._rpc_stack.append(self._rpc_send_state())

    def on_rpc_recv(self, channel: object) -> None:
        if self._rpc_stack:
            self._rpc_recv_state(self._rpc_stack.pop())

    # -- the shadow-state core -------------------------------------------------------

    def _record_access(self, sc: Syscalls, inode: FileInode, path: str, *, write: bool) -> None:
        flow = None
        fname = ""
        actor = self._actor_for(sc)
        publication = self._published.get(id(inode))
        if publication is not None:
            actor.clock.merge(publication[1])
        for parent, name in inode.dentries:
            if isinstance(parent, CountersDir):
                return  # lossy-by-design monitoring state (§3.5)
            if isinstance(parent, FlowNode):
                flow, fname = parent, name
            # Reaching a file inside an atomically-published (renamed)
            # directory acquires the publication — the maildir contract.
            publication = self._published.get(id(parent))
            if publication is not None:
                actor.clock.merge(publication[1])
        if flow is not None and fname == COMMIT_FILE and not write:
            # The version file is the synchronization variable (§3.4):
            # reading it acquires the last committer's released clock
            # *before* the race check, so observing a commit orders the
            # reader after it.  Concurrent committers who never saw each
            # other's increment still conflict below (a real lost update).
            released = self._commit_clocks.get(id(inode))
            if released is not None:
                actor.clock.merge(released[1])
        key = id(inode)
        entry = self._shadow.get(key)
        if entry is None:
            entry = (inode, deque(maxlen=self.history))
            self._shadow[key] = entry
        hist = entry[1]
        site = None
        for access in hist:
            if access.actor is actor:
                continue
            if not (write or access.write):
                continue  # read/read never conflicts
            if actor.clock.covers(access.actor.aid, access.tick):
                continue
            if site is None:
                site = _call_site()
            self._report_race(actor, access, path, site, write)
        if site is None:
            site = _call_site()
        tick = actor.clock.tick(actor.aid)
        last = hist[-1] if hist else None
        if last is not None and last.actor is actor and last.write == write:
            # Same actor repeating the same kind of access: advance the
            # record instead of growing history (the newer tick subsumes
            # the older one for every future HB check).
            last.tick = tick
            last.site = site
        else:
            hist.append(_Access(actor, tick, write, site))
        if flow is not None:
            self._flow_protocol(actor, flow, fname, inode, path, write, site, tick)

    def _report_race(self, actor: Actor, access: _Access, path: str, site: str, write: bool) -> None:
        dedup = ("race", path, access.site, site)
        if dedup in self._seen:
            return
        self._seen.add(dedup)
        if _site_suppressed("race", site, access.site):
            return
        kind_then = "write" if access.write else "read"
        kind_now = "write" if write else "read"
        other = access.actor
        self.findings.append(
            RaceFinding(
                "race",
                path,
                f"unsynchronized {kind_then}/{kind_now} on {path!r}: "
                f"{other.describe()} at {access.site} and {actor.describe()} at {site} "
                "have no happens-before edge (no notify delivery, version "
                "acquire, scheduling, or RPC orders them)",
                actors=(other.describe(), actor.describe()),
                sites=(access.site, site),
            )
        )

    # -- §3.4 commit-protocol model checking -------------------------------------------

    def _flow_protocol(self, actor: Actor, flow: FlowNode, fname: str, inode: FileInode, path: str, write: bool, site: str, tick: int) -> None:
        if fname == COMMIT_FILE:
            if write:
                # Commit: release the committer's clock (covers this
                # write's tick) and retire every pending spec write the
                # committer has observed — its own, or one HB-ordered
                # before the increment (the commit covers those too).
                self._commit_clocks[id(inode)] = (inode, actor.clock.snapshot())
                self._commits.commit(flow, version_of(flow), retires=lambda pend: self._covers(actor, pend))
            # The read-side acquire happened in _record_access, before the
            # race check — the version file is the sync variable itself.
            return
        if not is_spec_file(fname):
            return
        if write:
            self._commits.spec(flow, actor.aid, (actor, tick, fname, path, site))
            return
        for pend in self._commits.pending(flow):
            if self._covers(actor, pend):
                # The reader is HB-ordered after the spec write: it can
                # observe the mid-commit state coherently (e.g. a driver
                # that re-reads and version-guards).  Only *concurrent*
                # reads of uncommitted state are protocol violations.
                continue
            writer, _tick, name, _path, wsite = pend.note
            dedup = ("uncommitted", wsite, site)
            if dedup in self._seen:
                continue
            self._seen.add(dedup)
            if _site_suppressed("uncommitted-read", site, wsite):
                continue
            self.findings.append(
                RaceFinding(
                    "uncommitted-read",
                    path,
                    f"read of uncommitted flow state: {actor.describe()} read {path!r} "
                    f"at {site} while {writer.describe()} holds an uncommitted spec "
                    f"write to {name!r} (at {wsite}; version still "
                    f"{pend.version}, §3.4)",
                    actors=(actor.describe(), writer.describe()),
                    sites=(site, wsite),
                )
            )

    @staticmethod
    def _covers(actor: Actor, pend: Pending) -> bool:
        """Is ``pend``'s write the actor's own or happens-before its present?"""
        writer, tick = pend.note[0], pend.note[1]
        return writer is actor or actor.clock.covers(writer.aid, tick)


# -- environment opt-in ---------------------------------------------------------

_ENV = tracepoints.EnvTool("YANCRACE", RaceDetector)
enabled, install_from_env, active, reset_all = _ENV.enabled, _ENV.install_from_env, _ENV.active, _ENV.reset_all
