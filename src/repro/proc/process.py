"""The process runtime: PIDs, an epoll run loop, supervision, /proc.

The paper's central bet (sections 2 and 5.3) is that network applications
are *ordinary OS processes*: they get scheduling, isolation, resource
accounting, and fault containment from the operating system instead of
from a controller framework.  This module reproduces that machinery on
the simulator:

* :class:`Process` — owns a :class:`~repro.vfs.syscalls.Syscalls`
  context, an inotify descriptor, an epoll set, and a submission ring
  for the steps that write several files at once; a single simulator-
  driven run loop parks in ``epoll_wait`` and dispatches events, so every
  watch a process holds shares one wakeup instead of one callback each.
  A raising handler *crashes the process* (state, counters, teardown) —
  it never unwinds into the simulator, so one faulty app cannot stall
  the controller.
* :class:`Supervisor` — per-process restart policy: never, or on-crash
  with exponential backoff up to a cap (and an optional restart budget).
* :class:`ProcessTable` — assigns PIDs, places every process in the
  cgroup hierarchy (scheduled CPU and syscall time are charged to its
  group), and publishes ``/proc/<pid>/{status,cmdline,cgroup}`` through
  a mountable :class:`ProcFs`, readable with the ordinary shell toolbox.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.proc.cgroups import CgroupManager, ResourceLimitExceeded
from repro.vfs.cred import ROOT, Credentials
from repro.vfs.errors import FsError
from repro.vfs.inode import DirInode, FileInode, Filesystem
from repro.vfs.notify import EventMask, Inotify, NotifyEvent
from repro.vfs.poll import EPOLL_CTL_ADD, Epoll

if TYPE_CHECKING:
    from repro.perf.meter import SyscallMeter
    from repro.sim import Simulator
    from repro.vfs.syscalls import Syscalls
    from repro.vfs.uring import IoUring

__all__ = [
    "ProcState",
    "RestartPolicy",
    "NEVER",
    "ON_CRASH",
    "Process",
    "Supervisor",
    "ProcessTable",
    "ProcFs",
    "WAKEUP_LATENCY",
]

#: Scheduling latency between an event arriving and the owning process
#: being dispatched (the same 10 microseconds the per-instance wakeup
#: plumbing used to hard-code in every app and driver).
WAKEUP_LATENCY = 1e-5


class ProcState(Enum):
    """Where a process is in its lifecycle."""

    READY = "ready"  # runnable: created, or a wakeup is queued
    BLOCKED = "blocked"  # parked in epoll_wait for file-system events
    EXITED = "exited"  # stopped cleanly
    CRASHED = "crashed"  # an event handler or task raised


@dataclass(frozen=True)
class RestartPolicy:
    """What the supervisor does when a process crashes.

    ``backoff`` doubles per consecutive crash up to ``backoff_cap``, so a
    persistently faulty app degrades to a bounded restart rate instead of
    a busy crash loop.  ``max_restarts`` (None = unlimited) caps the total
    number of supervised restarts.
    """

    mode: str = "never"  # "never" | "on-crash"
    backoff: float = 0.05
    backoff_cap: float = 2.0
    max_restarts: int | None = None

    def restart_delay(self, crash_count: int) -> float:
        """Backoff before restart number ``crash_count`` (1-based)."""
        exponent = max(crash_count - 1, 0)
        return min(self.backoff * (2.0 ** exponent), self.backoff_cap)


#: Leave a crashed process down (the default for unsupervised processes).
NEVER = RestartPolicy()

#: Restart on crash with the default exponential backoff.
ON_CRASH = RestartPolicy(mode="on-crash")


class Process:
    """One schedulable process: syscall context, epoll set, run loop.

    ``ctx`` may be a plain :class:`Syscalls` (standalone process, pid 0
    until registered), another :class:`Process` (exec-style takeover: the
    component adopts the spawned context, its PID, and its table slot), or
    None for daemons that never touch the file system (cron).

    Attribute access this class does not define falls through to the
    syscall context, so a ``Process`` can be used anywhere a ``Syscalls``
    was expected — which is exactly the paper's point: a process *is* its
    file-I/O interface.
    """

    #: Override or pass ``name=``: shown in /proc/<pid>/status and cmdline.
    proc_name = "proc"

    def __init__(self, ctx: "Syscalls | Process | None", sim: "Simulator | None" = None, *, name: str = "") -> None:
        donor = ctx if isinstance(ctx, Process) else None
        self.sc = donor.sc if donor is not None else ctx
        self.sim = sim if sim is not None else (donor.sim if donor is not None else None)
        self.pid = donor.pid if donor is not None else 0
        self._table: "ProcessTable | None" = donor._table if donor is not None else None
        if name:
            self.proc_name = name
        self.running = False
        self.state = ProcState.READY
        self.restart_policy = NEVER
        self.supervisor: "Supervisor | None" = None
        self.crashes = 0
        self.restarts = 0
        self.last_error: BaseException | None = None
        self._ino: Inotify | None = None
        self._ep: Epoll | None = None
        self._ring: "IoUring | None" = None
        self._watch_ctx: dict[int, tuple] = {}
        self._ctx_wds: dict[tuple, set[int]] = {}  # the reverse index unwatch() reads
        self._tasks: list = []
        self._wake_pending = False
        if donor is not None and self._table is not None:
            self._table._exec(donor, self)

    def __getattr__(self, attr: str):
        sc = self.__dict__.get("sc")
        if sc is not None and not attr.startswith("_"):
            return getattr(sc, attr)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")

    # -- descriptors (created lazily so spawning a process costs no syscalls) --

    @property
    def ino(self) -> Inotify:
        """The process's inotify descriptor (opened on first use)."""
        if self._ino is None:
            self._open_loop()
        return self._ino

    @property
    def ep(self) -> Epoll:
        """The process's epoll set (opened on first use)."""
        if self._ep is None:
            self._open_loop()
        return self._ep

    @property
    def ring(self) -> "IoUring":
        """The process's submission ring (opened on first use): a step that writes several files crosses once (§8.1)."""
        if self._ring is None:
            self._ring = self.sc.io_uring_setup(entries=1024)
        return self._ring

    def _open_loop(self) -> None:
        if self.sc is None:
            raise RuntimeError(f"process {self.proc_name!r} has no syscall context to watch files with")
        self._ep = self.sc.epoll_create()
        self._ep.wakeup = self._schedule_wake
        self._ino = self.sc.inotify_init()
        self.sc.epoll_ctl(self._ep, EPOLL_CTL_ADD, self._ino, self._ino)

    def _close_loop(self) -> None:
        if self._ep is not None:
            self._ep.close()
            self._ep = None
        if self._ino is not None:
            self._ino.close()
            self._ino = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Process":
        """Begin running.  Subclasses extend via :meth:`on_start`."""
        if self.running:
            return self
        self.running = True
        self.state = ProcState.READY
        self.on_start()
        if self.running:
            self.state = ProcState.BLOCKED
        return self

    def stop(self) -> None:
        """Stop all periodic work, drop every watch, exit cleanly."""
        self.running = False
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self._close_loop()
        self._watch_ctx.clear()
        self._ctx_wds.clear()
        self._wake_pending = False
        self.state = ProcState.EXITED
        self.on_stop()

    def on_start(self) -> None:
        """Subclass hook: set up watches and tasks."""

    def on_stop(self) -> None:
        """Subclass hook: final cleanup."""

    # -- scheduling helpers (the only sanctioned path to the simulator) --------

    def every(self, interval: float, fn: Callable[[], None], *, start_delay: float | None = None):
        """Run ``fn`` periodically until the process stops or crashes."""
        task = self.sim.every(interval, self._guarded(fn), start_delay=start_delay)
        self._tasks.append(task)
        return task

    def schedule(self, delay: float, fn: Callable[[], None]):
        """Run ``fn`` once after ``delay``, crash-contained."""
        return self.sim.schedule(delay, self._guarded(fn))

    def _guarded(self, fn: Callable[[], None]) -> Callable[[], None]:
        """``fn`` as a crash-contained, CPU-charged task of this process.

        Trace points: ``on_task_created(run, process)`` here, in the
        scheduling scope, and ``on_task_enter(run, process)`` /
        ``on_task_exit(run, process, result, exc)`` around every run.
        """

        def run() -> None:
            if _tracing and _entering(run):
                return _around("task", (run, self), run)
            if not self.running:
                return
            before = self._syscalls()
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 — fault containment boundary
                self._crash(exc)
            finally:
                self._charge(before)

        if _tracing:
            _publish("task_created", run, self)
        return run

    # -- watches ---------------------------------------------------------------

    def watch(self, path: str, mask: EventMask, ctx: tuple) -> bool:
        """Watch ``path``; True on success (False when it vanished)."""
        try:
            wd = self.sc.inotify_add_watch(self.ino, path, mask)
        except FsError:
            return False
        owner = self._watch_ctx.get(wd)
        if owner is not None:  # re-watching an inode reuses its wd; the newest ctx owns it
            self._ctx_wds[owner].discard(wd)
        self._watch_ctx[wd] = ctx
        self._ctx_wds.setdefault(ctx, set()).add(wd)
        return True

    def unwatch(self, ctx: tuple) -> bool:
        """Drop every watch registered under ``ctx``; True if any existed."""
        wds = self._ctx_wds.pop(ctx, ())
        for wd in wds:
            del self._watch_ctx[wd]
            if self._ino is not None:
                try:
                    self._ino.rm_watch(wd)
                except FsError:
                    pass  # already torn down with the instance
        return bool(wds)

    # -- the run loop ----------------------------------------------------------

    def _schedule_wake(self) -> None:
        if self._wake_pending or not self.running:
            return
        self._wake_pending = True
        self.state = ProcState.READY
        self.sim.schedule(WAKEUP_LATENCY, self._dispatch)

    def _dispatch(self) -> None:
        """One wakeup: ``on_dispatch_enter(process)`` / ``on_dispatch_exit(process, result, exc)``."""
        if _tracing and _entering(self):
            return _around("dispatch", (self,), self._dispatch)
        self._wake_pending = False
        if not self.running or self._ep is None:
            return
        self._count("proc.dispatches")
        before = self._syscalls()
        try:
            for source in self.sc.epoll_wait(self._ep):
                self.on_readable(source)
        except Exception as exc:  # noqa: BLE001 — fault containment boundary
            self._crash(exc)
        finally:
            self._charge(before)
        if self.running:
            self.state = ProcState.BLOCKED

    def on_readable(self, source: object) -> None:
        """One ready descriptor.  Default: drain inotify into on_event."""
        if source is not self._ino:
            return
        for event in self.sc.inotify_read(self._ino):
            ctx = self._watch_ctx.get(event.wd)
            if ctx is None:
                continue
            try:
                self.on_event(ctx, event)
            except FsError:
                continue  # tree changed under us; later events resolve it

    def on_event(self, ctx: tuple, event: NotifyEvent) -> None:
        """Subclass hook: handle one inotify event."""

    # -- fault containment -----------------------------------------------------

    def _crash(self, exc: BaseException) -> None:
        self.running = False
        self.crashes += 1
        self.last_error = exc
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self._close_loop()
        self._watch_ctx.clear()
        self._ctx_wds.clear()
        self._wake_pending = False
        self.state = ProcState.CRASHED
        self._count("proc.crashes")
        if self.supervisor is not None:
            self.supervisor._on_crash(self)

    # -- accounting ------------------------------------------------------------

    def _syscalls(self) -> int:
        return self.sc.meter.syscalls if self.sc is not None else 0

    def _charge(self, syscalls_before: int) -> None:
        if self._table is not None:
            self._table.charge_cpu(self, self._syscalls() - syscalls_before)

    def _count(self, name: str, amount: int = 1) -> None:
        if self._table is not None:
            self._table.counters.add(name, amount)


class Supervisor:
    """Restarts crashed processes according to their policy."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.supervised: list[Process] = []

    def supervise(self, process: Process, policy: RestartPolicy | None = None) -> Process:
        """Adopt ``process``; on-crash restart unless ``policy`` says never."""
        process.supervisor = self
        process.restart_policy = policy if policy is not None else ON_CRASH
        if process not in self.supervised:
            self.supervised.append(process)
        return process

    def _on_crash(self, process: Process) -> None:
        policy = process.restart_policy
        if policy.mode != "on-crash":
            return
        if policy.max_restarts is not None and process.restarts >= policy.max_restarts:
            return
        self.sim.schedule(policy.restart_delay(process.crashes), lambda: self._restart(process))

    def _restart(self, process: Process) -> None:
        if process.state is not ProcState.CRASHED:
            return  # stopped or revived in the meantime
        process.restarts += 1
        process._count("proc.restarts")
        try:
            process.start()
        except Exception as exc:  # noqa: BLE001 — a failing on_start is one more crash
            process._crash(exc)


class _ProcFile(FileInode):
    """A read-only file whose bytes are rendered from live process state."""

    def __init__(self, fs: Filesystem, render: Callable[[], str], *, mode: int = 0o444) -> None:
        super().__init__(fs, mode=mode, uid=0, gid=0)
        self._render = render

    def _refresh(self) -> None:
        # Refill the backing buffer directly: /proc reads must not emit
        # IN_MODIFY storms or trip close-time validation hooks.
        self._data = bytearray(self._render().encode())

    @property
    def size(self) -> int:
        self._refresh()
        return len(self._data)

    def read(self, offset: int, size: int) -> bytes:
        self._refresh()
        return super().read(offset, size)


class ProcFs(Filesystem):
    """The ``/proc`` tree: one directory per PID with live status files."""

    fs_type = "procfs"

    def __init__(self, *, clock: Callable[[], float] | None = None) -> None:
        super().__init__(clock=clock)
        self._dirs: dict[int, DirInode] = {}

    def add_process(self, proc: Process, table: "ProcessTable") -> None:
        """Publish ``/proc/<pid>/{status,cmdline,cgroup}`` for ``proc``."""
        directory = self.make_dir()
        for fname, render in (
            ("status", lambda p=proc: _render_status(p)),
            ("cmdline", lambda p=proc: f"{p.proc_name}\n"),
            ("cgroup", lambda p=proc, t=table: _render_cgroup(p, t)),
        ):
            directory.attach(fname, _ProcFile(self, render))
        self.root.attach(str(proc.pid), directory)
        self._dirs[proc.pid] = directory

    def remove_process(self, pid: int) -> None:
        """Retire a PID's directory (process reaped or re-execed)."""
        directory = self._dirs.pop(pid, None)
        if directory is None:
            return
        for name, _node in list(directory.children()):
            directory.detach(name)
        self.root.detach(str(pid))


def _render_status(proc: Process) -> str:
    lines = [
        f"Name:\t{proc.proc_name}",
        f"Pid:\t{proc.pid}",
        f"Uid:\t{proc.sc.cred.uid if proc.sc is not None else 0}",
        f"State:\t{proc.state.value}",
        f"Crashes:\t{proc.crashes}",
        f"Restarts:\t{proc.restarts}",
        f"Watches:\t{len(proc._watch_ctx)}",
        f"Tasks:\t{len(proc._tasks)}",
    ]
    return "\n".join(lines) + "\n"


def _render_cgroup(proc: Process, table: "ProcessTable") -> str:
    group = table.cgroups.group_of(table._cg_key(proc))
    return f"0::{group.path if group is not None else '/'}\n"


class ProcessTable:
    """PID allocation, cgroup placement, CPU charging, /proc publication."""

    def __init__(self, root_sc: "Syscalls", sim: "Simulator") -> None:
        self.root_sc = root_sc
        self.sim = sim
        self.counters = root_sc.vfs.counters
        self.model = root_sc.meter.model
        self.cgroups = CgroupManager()
        self.supervisor = Supervisor(sim)
        self.procfs = ProcFs(clock=root_sc.vfs.clock)
        # Machine-wide perf counters as one flat root-level file, so any
        # process (or a human at the shell) can `cat /proc/counters` —
        # ShmRing overflow drops, uring chain autocloses, resolution-memo
        # hits — without reaching into kernel objects.
        self.procfs.root.attach("counters", _ProcFile(self.procfs, self._render_counters))
        self._procs: dict[int, Process] = {}
        self._next_pid = 1

    def _render_counters(self) -> str:
        # The memo counts in its own slots (no registry update per look-up);
        # a read of the file is when the root namespace's deltas land here.
        self.root_sc.vfs.root_ns.dcache.publish(self.counters)
        return "".join(f"{name} {self.counters.get(name)}\n" for name in self.counters.names())

    # -- lifecycle -------------------------------------------------------------

    def spawn(self, *, cred: Credentials = ROOT, meter: "SyscallMeter | None" = None, name: str = "") -> Process:
        """Fork-like: a registered process with its own syscall context."""
        proc = Process(self.root_sc.spawn(cred=cred, meter=meter), self.sim, name=name)
        self.register(proc)
        return proc

    def register(self, proc: Process) -> int:
        """Assign a PID, place the process in cgroups, publish /proc."""
        pid = self._next_pid
        self._next_pid += 1
        proc.pid = pid
        proc._table = self
        if proc.proc_name == Process.proc_name:
            proc.proc_name = f"proc{pid}"
        if proc.sc is not None:
            proc.sc.owner_pid = pid
            proc.sc.owner_name = proc.proc_name
        self._procs[pid] = proc
        self.cgroups.attach(self._cg_key(proc), "/")
        self.procfs.add_process(proc, self)
        self.counters.add("proc.spawned")
        return pid

    def _exec(self, donor: Process, successor: Process) -> None:
        """A component took over a spawned context: same PID, new image."""
        if self._procs.get(donor.pid) is donor:
            self._procs[donor.pid] = successor
            if successor.sc is not None:
                successor.sc.owner_pid = successor.pid
                successor.sc.owner_name = successor.proc_name
            self.procfs.remove_process(donor.pid)
            self.procfs.add_process(successor, self)

    def reap(self, proc: Process) -> None:
        """Forget an exited/crashed process and retire its /proc entry."""
        if self._procs.get(proc.pid) is proc:
            del self._procs[proc.pid]
            self.procfs.remove_process(proc.pid)

    # -- introspection ---------------------------------------------------------

    def get(self, pid: int) -> Process | None:
        """The process owning ``pid`` (None when unknown/reaped)."""
        return self._procs.get(pid)

    def pids(self) -> list[int]:
        """All live PIDs, ascending."""
        return sorted(self._procs)

    def processes(self) -> list[Process]:
        """All registered processes in PID order."""
        return [self._procs[pid] for pid in self.pids()]

    def ps(self) -> list[tuple[int, str, str]]:
        """(pid, name, state) rows, PID order — the shell's ``ps``."""
        return [(p.pid, p.proc_name, p.state.value) for p in self.processes()]

    # -- supervision and accounting -------------------------------------------

    def supervise(self, proc: Process, policy: RestartPolicy | None = None) -> Process:
        """Put ``proc`` under the table's supervisor."""
        return self.supervisor.supervise(proc, policy)

    def _cg_key(self, proc: Process) -> str:
        return f"pid:{proc.pid}"

    def assign_cgroup(self, proc: Process, path: str) -> None:
        """Move a process into the cgroup at ``path``."""
        self.cgroups.attach(self._cg_key(proc), path)

    def charge_cpu(self, proc: Process, syscall_delta: int) -> None:
        """Bill one scheduled run: dispatch overhead plus syscall time."""
        cpu = self.model.syscall_time(syscall_delta) + 2 * self.model.ctxsw_cost
        if syscall_delta and proc.sc is not None:
            # Per-uid accounting: the quota view item-4 will meter against,
            # and what makes the reference monitor's picture shell-readable.
            self.counters.add(f"uid.{proc.sc.cred.uid}.syscalls", syscall_delta)
        try:
            self.cgroups.charge(self._cg_key(proc), "cpu", cpu)
            if syscall_delta:
                self.cgroups.charge(self._cg_key(proc), "syscalls", syscall_delta)
        except ResourceLimitExceeded as exc:
            # Saturated groups stop accumulating; the breach is recorded,
            # not raised into the middle of the dispatch loop.
            proc.last_error = exc
            self.counters.add("proc.throttled")
