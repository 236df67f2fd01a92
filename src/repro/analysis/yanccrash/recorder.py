"""The durable-op recorder: yanccrash's dynamic instrumentation.

Subscribes to the same trace-point bus as yancrace
(:mod:`repro.perf.tracepoints`), but records the opposite projection of
a workload: not *orderings* between accesses but the *durable-effect
trace* — every operation that changes what a crash would leave on disk,
in program order, as the ``syscall`` trace point reports it.
``write_text``/``makedirs`` decompose into their primitive calls inside
``Syscalls`` (``open → write → close``, ``exists + mkdir`` per
component), so the trace naturally carries every point a crash could
split a composite operation.  ``IoUring.submit`` dispatches each batched
entry through the same ``Syscalls`` methods, so batched ops land in the
trace too; the ``uring_submit`` trace point tags them with a
submit-batch id so the explorer can label mid-chain sever prefixes.
Direct-store ``libyanc`` mutations never cross ``Syscalls`` — those
arrive on the ``libyanc`` trace point and are recorded as synthetic
``fastpath-*`` ops, and the ``libyanc_flush`` pair opens a *reorder
window* around the per-flow commits a flush performs (the write-behind
contract orders commits per flow, not across flows, so the explorer may
legally replay any subset of a window as having reached the store before
the crash).

Only paths under the recorder's roots (default ``/net`` and ``/var``)
are recorded — analysis scratch I/O and unrelated trees stay out of the
trace.  The recorder takes no snapshots and issues no syscalls of its
own: replay is deterministic, so the explorer reconstructs any
intermediate state it needs from the trace alone.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass

from repro.analysis.race import _call_site  # reported sites skip substrate frames, same as yancrace
from repro.perf import tracepoints
from repro.vfs.syscalls import SYSCALLS, Syscalls
from repro.yancfs.schema import YancFs

#: The file and namespace calls that change the tree — the ones a ring
#: carries; recorded by absolute path when any path is in scope (metadata
#: and mount-table calls are outside the crash model).
_PATH_OPS = frozenset(op for op, row in SYSCALLS.items() if row.ring and row.mutates and row.paths)

#: ``libyanc`` trace-point op -> the synthetic durable op it records as.
_FASTPATH_OPS = {
    "create_flow": "fastpath-create",
    "commit_flow": "fastpath-commit",
    "write_flow_files": "fastpath-write",
    "delete_flow": "fastpath-delete",
}


@dataclass(frozen=True)
class DurableOp:
    """One recorded durable effect (crash prefixes cut between these)."""

    op: str  # a Syscalls primitive name, "mount", or "fastpath-*"
    args: tuple  # op-specific; paths are absolute
    vfs: int  # id() of the kernel the op landed on
    batch: int | None = None  # uring submit batch, when dispatched by one
    window: int | None = None  # write-behind flush window, when inside one
    site: str = "<unknown>"


class CrashRecorder:
    """Collects the durable-op trace between :meth:`install` and :meth:`uninstall`."""

    def __init__(self, roots: tuple[str, ...] = ("/net", "/var")) -> None:
        self.roots = tuple(roots)
        self.ops: list[DurableOp] = []
        # Keyed weakly by the object the bus hands over, so a collected
        # context or store cannot bequeath its entries to a successor
        # that happens to reuse its id().
        #: Syscalls -> {fd: absolute path} for write-capable opens under a root.
        self._tracked_fds: weakref.WeakKeyDictionary[Syscalls, dict[int, str]] = weakref.WeakKeyDictionary()
        #: YancFs -> (mount path, id() of the kernel it is mounted in), so
        #: fastpath ops are replayed by path, in order with that kernel's ops.
        self._fs_mounts: weakref.WeakKeyDictionary[YancFs, tuple[str, int]] = weakref.WeakKeyDictionary()
        #: Enclosing uring submit batches / write-behind flush windows
        #: (innermost last; empty outside any) and the ids handed out so far.
        self._batches: list[int] = []
        self._windows: list[int] = []
        self._batch_seq = 0
        self._window_seq = 0

    def in_scope(self, path: str) -> bool:
        return any(path == root or path.startswith(root + "/") for root in self.roots)

    def record(self, op: str, args: tuple, vfs_id: int) -> None:
        self.ops.append(
            DurableOp(
                op=op,
                args=args,
                vfs=vfs_id,
                batch=self._batches[-1] if self._batches else None,
                window=self._windows[-1] if self._windows else None,
                site=_call_site(),
            )
        )

    # -- lifecycle -----------------------------------------------------------------

    def install(self) -> "CrashRecorder":
        tracepoints.subscribe(self)
        return self

    def uninstall(self) -> None:
        """Stop recording; the trace stays until :meth:`reset`."""
        tracepoints.unsubscribe(self)
        self._forget_context()

    def reset(self) -> None:
        self.ops.clear()
        self._forget_context()

    # -- the CLI workload protocol (repro.analysis.cli.run_workload) -----------------

    def report(self) -> tuple[list[dict], list[str]]:
        """Model-check every crash prefix of the recorded trace: JSON-ready
        violations plus the coverage summary as the epilogue."""
        from repro.analysis.yanccrash.explorer import explore

        result = explore(self.ops)
        return [asdict(v) for v in result.violations], [f"yanccrash: {result.summary()}"]

    @staticmethod
    def record_key(rec: dict) -> tuple:
        return (rec.get("kind", ""), rec.get("path", ""), rec.get("site", ""))

    @staticmethod
    def render(rec: dict, marker: str) -> str:
        return f"yanccrash [{rec['kind']}]{marker} {rec['path']} @prefix={rec['prefix']}: {rec['detail']}"

    def _forget_context(self) -> None:
        self._tracked_fds.clear()
        self._fs_mounts.clear()
        self._batches.clear()
        self._windows.clear()
        self._batch_seq = self._window_seq = 0

    # -- trace-point handlers --------------------------------------------------------

    def on_syscall_exit(self, sc: Syscalls, op: str, paths: tuple, args: tuple, result: object, exc: BaseException | None) -> None:
        if op == "close":
            # Recorded even when close-time validation raises: the replay
            # tree runs the same validator and rolls back the same way.
            if self._tracked_fds.get(sc, {}).pop(args[0], None) is not None:
                self.record("close", (args[0],), id(sc.vfs))
            return
        if exc is not None:
            return
        if op == "open":
            if SYSCALLS["open"].writes(args) and self.in_scope(paths[0]):
                self._tracked_fds.setdefault(sc, {})[result] = paths[0]
                self.record("open", (paths[0], args[1], result), id(sc.vfs))
        elif op in ("write", "pwrite", "ftruncate"):
            if args[0] in self._tracked_fds.get(sc, ()):
                if op != "ftruncate":  # (fd, data[, offset]): pin the payload
                    args = (args[0], bytes(args[1])) + args[2:]
                self.record(op, args, id(sc.vfs))
        elif op == "symlink":
            if self.in_scope(paths[0]):
                self.record("symlink", (args[0], paths[0]), id(sc.vfs))
        elif op in _PATH_OPS:
            if any(self.in_scope(path) for path in paths):
                size = (args[1],) if op == "truncate" else ()
                self.record(op, paths + size, id(sc.vfs))
        elif op == "mount":
            kind = "yanc" if isinstance(args[1], YancFs) else type(args[1]).__name__
            if kind == "yanc":
                self._fs_mounts[args[1]] = (paths[0], id(sc.vfs))
            if self.in_scope(paths[0]):
                self.record("mount", (paths[0], kind), id(sc.vfs))

    def on_uring_submit_enter(self, ring: object) -> None:
        self._batch_seq += 1
        self._batches.append(self._batch_seq)

    def on_uring_submit_exit(self, ring: object, result: object, exc: BaseException | None) -> None:
        if self._batches:
            self._batches.pop()

    def on_libyanc_flush_enter(self, ly: object) -> None:
        self._window_seq += 1
        self._windows.append(self._window_seq)

    def on_libyanc_flush_exit(self, ly: object, result: object, exc: BaseException | None) -> None:
        if self._windows:
            self._windows.pop()

    def on_libyanc(self, ly, op: str, switch: str, name: str, files: dict | None = None) -> None:
        mount, vfs_id = self._fs_mounts.get(ly.fs, ("", 0))
        if not mount or not self.in_scope(mount):
            return  # store not reachable through any recorded tree
        extra = () if files is None else (dict(files),)
        self.record(_FASTPATH_OPS[op], (mount, switch, name) + extra, vfs_id)


__all__ = ["CrashRecorder", "DurableOp"]
