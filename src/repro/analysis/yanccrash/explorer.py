"""The crash-point model checker: replay every crash prefix, assert recovery.

Takes the durable-op trace a :class:`~repro.analysis.yanccrash.recorder.CrashRecorder`
captured and exhaustively enumerates *crash points*: for every prefix of
the trace (each one a legal "power failed here" state, including cuts
inside an ``IoUring.submit`` dispatch — a mid-chain sever) it maintains
an incrementally replayed file tree, reconstructs the post-crash state,
runs the real :func:`repro.yancfs.recovery.fsck` in dry-run mode, and
asserts the §3.4/§3.5 invariants:

* **leaked-dot-entry** — a dot-entry present at the crash point that the
  recovery sweep would *not* remove (mount-time fsck is incomplete);
* **unswept-torn-flow** — a flow directory whose version is still 0 at
  the crash point but which recovery would leave behind;
* **version-regression** — a replayed write moved a flow's ``version``
  backwards (versions only grow, §3.4);
* **torn-publication** — a maildir-published entry (events spool, or any
  entry outside the yanc mounts) whose content at a later crash point
  differs from what the atomic ``rename()`` published;
* **spec-after-commit** — a spec write to an already-committed flow with
  no later version increment in its kernel's trace: every crash point
  after it exposes modified spec state under a stale version.

The last two are :class:`~repro.yancfs.commit.CommitAutomaton`'s, fed by
the sequential replay and keyed by the replay tree's flow nodes: a
renamed flow keeps its state, an ``rmdir`` ends it, and each recorded
kernel has flows of its own.

Write-behind ``flush()`` windows get extra states beyond prefixes: the
contract orders commits per flow but not across flows, so every subset
of a window's per-flow commits is a legal crash state; the explorer
replays each (bounded by ``max_window_states``, truncation reported).

The replay tree is rebuilt from nothing — fresh kernel, fresh
:class:`~repro.yancfs.schema.YancFs` per recorded mount — so the checks
exercise exactly what a restarted controller would find on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.yanccrash.recorder import DurableOp
from repro.vfs.errors import FsError
from repro.vfs.stat import FileType
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.commit import COMMIT_FILE, CommitAutomaton, is_spec_file, version_of
from repro.yancfs.recovery import flow_version, fsck
from repro.yancfs.schema import FlowNode, YancFs

#: Per-flush-window cap on explored commit subsets (2^n grows fast).
DEFAULT_MAX_WINDOW_STATES = 256


@dataclass(frozen=True)
class CrashViolation:
    """One invariant broken at one crash point."""

    kind: str
    path: str
    prefix: int  # ops applied before the crash (or -1 for trace-level)
    detail: str
    site: str = ""

    def __str__(self) -> str:
        return f"yanccrash [{self.kind}] {self.path} @prefix={self.prefix}: {self.detail}"


@dataclass
class ExploreResult:
    """What one exploration covered and found."""

    ops: int = 0
    prefixes: int = 0
    window_states: int = 0
    truncated_windows: int = 0
    violations: list[CrashViolation] = field(default_factory=list)

    def summary(self) -> str:
        extra = f" + {self.window_states} flush-window states" if self.window_states else ""
        note = f" ({self.truncated_windows} window(s) truncated)" if self.truncated_windows else ""
        return (
            f"explored {self.prefixes} crash prefixes{extra} over {self.ops} "
            f"durable ops{note}: {len(self.violations)} invariant violation(s)"
        )


class ReplayTree:
    """A fresh kernel the trace is replayed into, one op at a time."""

    def __init__(self) -> None:
        self.vfs = VirtualFileSystem()
        self.sc = Syscalls(self.vfs)
        self.fds: dict[int, int] = {}  # live fd -> replay fd
        self.fd_paths: dict[int, str] = {}  # live fd -> path
        self.yanc_mounts: list[str] = []
        #: published entry path -> {relative path: content} at rename time.
        self.published: dict[str, dict[str, bytes]] = {}

    # -- applying one durable op -----------------------------------------------------

    def apply(self, op: DurableOp) -> str | None:
        """Apply ``op``; returns the path whose durable state it changed."""
        handler = getattr(self, "_op_" + op.op.replace("-", "_"), None)
        if handler is None:
            return None
        try:
            return handler(*op.args)
        except FsError:
            return None

    def _op_mount(self, path: str, kind: str) -> str:
        if not self.sc.exists(path):
            self.sc.makedirs(path)
        if kind == "yanc":
            self.sc.mount(path, YancFs(clock=self.vfs.clock), source="yanc")
            self.yanc_mounts.append(path)
        return path

    def _op_open(self, path: str, flags: int, live_fd: int) -> str:
        self.fds[live_fd] = self.sc.open(path, flags)
        self.fd_paths[live_fd] = path
        return path

    def _op_write(self, live_fd: int, data: bytes) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.write(fd, data)
        return self.fd_paths.get(live_fd)

    def _op_pwrite(self, live_fd: int, data: bytes, offset: int) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.pwrite(fd, data, offset)
        return self.fd_paths.get(live_fd)

    def _op_ftruncate(self, live_fd: int, size: int) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.ftruncate(fd, size)
        return self.fd_paths.get(live_fd)

    def _op_close(self, live_fd: int) -> str | None:
        fd = self.fds.pop(live_fd, None)
        path = self.fd_paths.pop(live_fd, None)
        if fd is not None:
            # Close-time validation may reject and roll back, exactly as
            # it did (or would have) in the live run.
            self.sc.close(fd)
        return path

    def _op_truncate(self, path: str, size: int) -> str:
        self.sc.truncate(path, size)
        return path

    def _op_mkdir(self, path: str) -> str:
        self.sc.mkdir(path)
        return path

    def _op_rmdir(self, path: str) -> str:
        self.sc.rmdir(path)
        self._forget(path)
        return path

    def _op_unlink(self, path: str) -> str:
        self.sc.unlink(path)
        self._forget(path)
        return path

    def _op_rename(self, oldpath: str, newpath: str) -> str:
        self.sc.rename(oldpath, newpath)
        self._forget(oldpath)
        self._forget(newpath)
        old_base = oldpath.rsplit("/", 1)[-1]
        if old_base.startswith(".") and self._publication_checked(newpath):
            self.published[newpath] = self._snapshot(newpath)
        return newpath

    def _op_symlink(self, target: str, linkpath: str) -> str:
        self.sc.symlink(target, linkpath)
        return linkpath

    def _op_link(self, oldpath: str, newpath: str) -> str:
        self.sc.link(oldpath, newpath)
        return newpath

    def _op_fastpath_create(self, mount: str, switch: str, name: str, files: dict) -> str:
        flow_dir = f"{mount}/switches/{switch}/flows/{name}"
        self.sc.mkdir(flow_dir)
        for filename, content in files.items():
            try:
                # Replay machinery: reconstructing a recorded (possibly
                # torn) crash state, so no commit obligation applies here.
                self.sc.write_text(f"{flow_dir}/{filename}", content)  # yanclint: disable=flow-no-commit
            except FsError:
                continue
        return flow_dir + "/x"  # any direct child: flags spec writes below

    def _op_fastpath_write(self, mount: str, switch: str, name: str, files: dict) -> str:
        flow_dir = f"{mount}/switches/{switch}/flows/{name}"
        for filename, content in files.items():
            try:
                # Same as _op_fastpath_create: replay, not authorship.
                self.sc.write_text(f"{flow_dir}/{filename}", content)  # yanclint: disable=flow-no-commit
            except FsError:
                continue
        return flow_dir + "/x"

    def _op_fastpath_commit(self, mount: str, switch: str, name: str) -> str:
        flow_dir = f"{mount}/switches/{switch}/flows/{name}"
        version = flow_version(self.sc, flow_dir)
        self.sc.write_text(f"{flow_dir}/version", str(version + 1))
        return f"{flow_dir}/version"

    def _op_fastpath_delete(self, mount: str, switch: str, name: str) -> str:
        flow_dir = f"{mount}/switches/{switch}/flows/{name}"
        self.sc.rmdir(flow_dir)
        self._forget(flow_dir)
        return flow_dir

    # -- replay-side bookkeeping ------------------------------------------------------

    def _forget(self, path: str) -> None:
        """Drop per-path state for a removed/replaced subtree."""
        prefix = path + "/"
        for key in [k for k in self.published if k == path or k.startswith(prefix)]:
            del self.published[key]

    def _publication_checked(self, path: str) -> bool:
        """Is this rename target held to exact publication content?

        Event-spool entries and anything outside the yanc mounts are
        write-once maildir publications; switch/host objects are also
        rename-published but legitimately accumulate driver state later.
        """
        if "/events/" in path:
            return True
        return not any(
            path == m or path.startswith(m + "/") for m in self.yanc_mounts
        )

    def _snapshot(self, path: str) -> dict[str, bytes]:
        """Relative-path -> content of one published entry (file or dir)."""
        out: dict[str, bytes] = {}
        try:
            st = self.sc.stat(path)
        except FsError:
            return out
        if st.ftype is not FileType.DIRECTORY:
            try:
                out[""] = self.sc.read_bytes(path)
            except FsError:
                pass
            return out
        stack = [path]
        while stack:
            current = stack.pop()
            try:
                entries = self.sc.scandir(current)
            except FsError:
                continue
            for name, st in entries:
                child = f"{current}/{name}"
                if st.ftype is FileType.DIRECTORY:
                    stack.append(child)
                else:
                    try:
                        out[child[len(path) + 1 :]] = self.sc.read_bytes(child)
                    except FsError:
                        pass
        return out


# -- invariant checks over one replayed crash state ------------------------------------


def _walk_debris(sc: Syscalls, root: str) -> tuple[list[str], list[str]]:
    """Independently collect (dot entries, version-0 flow dirs) under root.

    Descendants of a dot-entry are not listed separately — recovery
    removes the whole entry.
    """
    dots: list[str] = []
    torn: list[str] = []
    stack = [(root, "")]
    while stack:
        path, parent_name = stack.pop()
        try:
            entries = sc.scandir(path)
        except FsError:
            continue
        for name, st in entries:
            child = f"{path}/{name}"
            if name.startswith("."):
                dots.append(child)
                continue
            if st.ftype is not FileType.DIRECTORY:
                continue
            if parent_name == "flows" and flow_version(sc, child) == 0:
                torn.append(child)
                continue
            stack.append((child, name))
    return dots, torn


def check_crash_state(tree: ReplayTree, prefix: int, out: list[CrashViolation], site: str = "") -> None:
    """Assert the post-crash invariants recovery must restore."""
    for root in tree.yanc_mounts:
        report = fsck(tree.sc, root, dry_run=True)
        stale = set(report.stale_entries)
        swept = set(report.torn_flows)
        dots, torn = _walk_debris(tree.sc, root)
        for path in dots:
            if path not in stale:
                out.append(
                    CrashViolation(
                        kind="leaked-dot-entry",
                        path=path,
                        prefix=prefix,
                        detail="dot-entry present at this crash point but the mount-time fsck sweep would not remove it",
                        site=site,
                    )
                )
        for path in torn:
            if path not in swept:
                out.append(
                    CrashViolation(
                        kind="unswept-torn-flow",
                        path=path,
                        prefix=prefix,
                        detail="flow directory still at version 0 at this crash point but recovery would leave it behind",
                        site=site,
                    )
                )
    for path, want in tree.published.items():
        have = tree._snapshot(path)
        if not have:
            continue  # consumed (or never landed): absence is legal
        if have != want:
            out.append(
                CrashViolation(
                    kind="torn-publication",
                    path=path,
                    prefix=prefix,
                    detail="published entry's content at this crash point differs from what its atomic rename() published",
                    site=site,
                )
            )


#: What a spec write still pending at the end of its kernel's replay means.
_UNCOMMITTED = (
    "spec write to an already-committed flow with no later version increment: "
    "every crash point after it exposes torn spec state under a stale version"
)


def _follow_commits(
    tree: ReplayTree, commits: CommitAutomaton, op: DurableOp, changed: str | None, prefix: int, out: list[CrashViolation]
) -> None:
    """Feed the group's §3.4 automaton what one replayed op did to a flow file."""
    if not changed or changed.split("/")[-3:-2] != ["flows"]:
        return  # not a file directly in a flow directory
    flow_dir, _, filename = changed.rpartition("/")
    try:
        flow = tree.vfs.resolve(tree.sc.ns, tree.sc.cred, flow_dir)
    except FsError:
        return
    if not isinstance(flow, FlowNode):
        return
    if filename == COMMIT_FILE:
        value = version_of(flow)
        high = commits.commit(flow, value)
        if high is not None:
            detail = f"flow version moved backwards ({high} -> {value}); versions only grow (§3.4)"
            out.append(CrashViolation(kind="version-regression", path=changed, prefix=prefix, detail=detail, site=op.site))
        return
    names = [filename] if op.op in ("write", "pwrite") else op.args[3] if op.op == "fastpath-write" else ()
    for name in filter(is_spec_file, names):
        late = CrashViolation(kind="spec-after-commit", path=f"{flow_dir}/{name}", prefix=prefix - 1, detail=_UNCOMMITTED, site=op.site)
        commits.spec(flow, note=late)


# -- the exploration loops -------------------------------------------------------------


def explore(
    ops: list[DurableOp], *, max_window_states: int = DEFAULT_MAX_WINDOW_STATES
) -> ExploreResult:
    """Enumerate every crash state of the trace and check each one."""
    result = ExploreResult(ops=len(ops))
    by_vfs: dict[int, list[DurableOp]] = {}
    for op in ops:
        by_vfs.setdefault(op.vfs, []).append(op)
    uncommitted: list[CrashViolation] = []
    for group in by_vfs.values():
        _explore_group(group, result, max_window_states, uncommitted)
    # Trace-level findings come last, by flow directory.
    result.violations.extend(sorted(uncommitted, key=lambda v: (v.path.rpartition("/")[0], v.prefix)))
    return result


def _explore_group(ops: list[DurableOp], result: ExploreResult, max_window_states: int, uncommitted: list[CrashViolation]) -> None:
    tree = ReplayTree()
    commits = CommitAutomaton()
    check_crash_state(tree, 0, result.violations)  # the empty-trace crash
    result.prefixes += 1
    windows: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        changed = tree.apply(op)
        _follow_commits(tree, commits, op, changed, index + 1, result.violations)
        check_crash_state(tree, index + 1, result.violations, op.site)
        result.prefixes += 1
        if op.window is not None:
            windows.setdefault(op.window, []).append(index)
    uncommitted.extend(pending.note for pending in commits.pending())
    for indices in windows.values():
        _explore_window(ops, indices, result, max_window_states)


def _explore_window(
    ops: list[DurableOp], indices: list[int], result: ExploreResult, max_window_states: int
) -> None:
    """Replay non-prefix subsets of one flush window's commits.

    The write-behind contract orders a flow's own ops but makes no
    promise across flows: any subset of a window's per-flow commits may
    have reached the store when the crash hit.  Prefix-shaped subsets
    were already covered by the main loop.
    """
    count = len(indices)
    if count < 2:
        return
    total = (1 << count) - 1  # skip the full set (== the prefix after the window)
    if total > max_window_states:
        total = max_window_states
        result.truncated_windows += 1
    before = indices[0]
    for mask in range(1, total + 1):
        subset = {indices[bit] for bit in range(count) if mask & (1 << bit)}
        if all(index in subset for index in indices[: len(subset)]):
            continue  # prefix-shaped: already explored
        tree = ReplayTree()
        # Non-window ops interleaved inside the window span (there are
        # none in practice — flush() only commits) would be skipped here.
        for index in range(before):
            tree.apply(ops[index])
        for index in sorted(subset):
            tree.apply(ops[index])
        check_crash_state(tree, before, result.violations, ops[indices[0]].site)
        result.window_states += 1


__all__ = [
    "CrashViolation",
    "DEFAULT_MAX_WINDOW_STATES",
    "ExploreResult",
    "ReplayTree",
    "check_crash_state",
    "explore",
]
