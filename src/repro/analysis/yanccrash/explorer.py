"""The crash-point model checker: replay every crash prefix, assert the §3.4/§3.5 invariants.

Takes the durable-op trace a :class:`~repro.analysis.yanccrash.recorder.CrashRecorder`
captured and enumerates *crash points*: every prefix of the trace (each a
legal "power failed here" state, cuts inside an ``IoUring.submit``
dispatch — mid-chain severs — included) of an incrementally replayed
tree, plus every subset of a write-behind ``flush()`` window's per-flow
commits (the contract orders commits per flow, not across flows; bounded
by ``max_window_states``, truncation reported).  Three runtime kinds:

* **version-regression** — a replayed write moved a flow's ``version``
  backwards (versions only grow, §3.4);
* **torn-publication** — a maildir-published entry (events spool, or any
  entry outside the yanc mounts) whose content at a later crash point
  differs from what the atomic ``rename()`` published; an entry is
  re-read only where an op changed an inode its last reading covered;
* **spec-after-commit** — a spec write to an already-committed flow with
  no later version increment in its kernel's trace.

The first and last are :class:`~repro.yancfs.commit.CommitAutomaton`'s,
keyed by the replay tree's flow nodes (a renamed flow keeps its state,
an ``rmdir`` ends it, each recorded kernel has flows of its own).
Recovery is not re-run per prefix: :func:`repro.yancfs.recovery.fsck` is
a function of the tree alone, and that it sweeps every dot-entry and
version-0 flow of any tree, and nothing else, is a property test over
random trees (``tests/yancfs/test_recovery.py``).  The replay tree is
rebuilt from nothing — fresh kernel, fresh :class:`~repro.yancfs.schema.YancFs`
per recorded mount — so it holds what a restarted controller would find.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.yanccrash.recorder import DurableOp
from repro.vfs.errors import FsError
from repro.vfs.stat import FileType
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.commit import COMMIT_FILE, CommitAutomaton, is_spec_file, version_of
from repro.yancfs.recovery import flow_version
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


#: An inode, as ``(st_dev, st_ino)``: what a published entry's reading covers.
Key = tuple[int, int]


class ReplayTree:
    """A fresh kernel the trace is replayed into, one op at a time."""

    def __init__(self) -> None:
        self.vfs = VirtualFileSystem()
        self.sc = Syscalls(self.vfs)
        self.fds: dict[int, int] = {}  # live fd -> replay fd
        self.opened: dict[int, tuple[object, str]] = {}  # live fd -> the inode it is open on, and the path it was opened by
        #: a root inode (by id) -> where it is mounted: the root's ``""`` and every yanc mount's path
        self.mounts: dict[int, str] = {id(self.vfs.resolve(self.sc.ns, self.sc.cred, "/")): ""}
        #: published entry path -> {relative path: content} at rename time.
        self.published: dict[str, dict[str, bytes]] = {}
        #: published entry path -> the inodes its last reading covered.
        self.covers: dict[str, set[Key]] = {}
        #: published entries whose content at their last reading differed from it.
        self.torn: set[str] = set()
        #: inodes whose content or entries the ops applied since the last :meth:`settle` changed.
        self.changed: set[Key] = set()

    # -- applying one durable op -----------------------------------------------------

    def apply(self, op: DurableOp) -> str | None:
        """Apply ``op``; returns the path whose durable state it changed (an fd's file where it is now).

        While any entry is published, every inode the op changed joins
        :attr:`changed`: the file it wrote, each directory it added a name
        to or took one from (a ``rename``'s source and target both).
        Inodes, not names: a write through an fd opened before a rename,
        or through a second name a ``link`` made, still lands on what a
        reading covered.  libyanc's ops write only flow files, which no
        checked entry holds, so they note nothing.
        """
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
        self._note(self.sc.lstat, path)  # the directory the mount covers
        if kind == "yanc":
            self.sc.mount(path, YancFs(clock=self.vfs.clock), source="yanc")
            self.mounts[id(self.vfs.resolve(self.sc.ns, self.sc.cred, path))] = path
        return path

    def _op_open(self, path: str, flags: int, live_fd: int) -> str:
        self.fds[live_fd] = self.sc.open(path, flags)
        self.opened[live_fd] = (self.vfs.resolve(self.sc.ns, self.sc.cred, path), path)
        self._note_dir(path)
        self._note(self.sc.fstat, self.fds[live_fd])
        return path

    def _op_write(self, live_fd: int, data: bytes) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.write(fd, data)
        self._note(self.sc.fstat, fd)
        return self._path_of(self.opened.get(live_fd))

    def _op_pwrite(self, live_fd: int, data: bytes, offset: int) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.pwrite(fd, data, offset)
        self._note(self.sc.fstat, fd)
        return self._path_of(self.opened.get(live_fd))

    def _op_ftruncate(self, live_fd: int, size: int) -> str | None:
        fd = self.fds.get(live_fd)
        if fd is None:
            return None
        self.sc.ftruncate(fd, size)
        self._note(self.sc.fstat, fd)
        return self._path_of(self.opened.get(live_fd))

    def _op_close(self, live_fd: int) -> str | None:
        fd = self.fds.pop(live_fd, None)
        path = self._path_of(self.opened.pop(live_fd, None))
        if fd is not None:
            self._note(self.sc.fstat, fd)  # a rolled-back write changes the file
            # Close-time validation may reject and roll back, exactly as
            # it did (or would have) in the live run.
            self.sc.close(fd)
        return path

    def _op_truncate(self, path: str, size: int) -> str:
        self.sc.truncate(path, size)
        self._note(self.sc.stat, path)
        return path

    def _op_mkdir(self, path: str) -> str:
        self.sc.mkdir(path)
        self._note_dir(path)
        return path

    def _op_rmdir(self, path: str) -> str:
        self.sc.rmdir(path)
        self._forget(path)
        self._note_dir(path)
        return path

    def _op_unlink(self, path: str) -> str:
        self.sc.unlink(path)
        self._forget(path)
        self._note_dir(path)
        return path

    def _op_rename(self, oldpath: str, newpath: str) -> str:
        self.sc.rename(oldpath, newpath)
        self._forget(oldpath)
        self._forget(newpath)
        self._note_dir(oldpath)
        self._note_dir(newpath)
        old_base = oldpath.rsplit("/", 1)[-1]
        if old_base.startswith(".") and self._publication_checked(newpath):
            self.published[newpath], self.covers[newpath] = self._snapshot(newpath)
        return newpath

    def _op_symlink(self, target: str, linkpath: str) -> str:
        self.sc.symlink(target, linkpath)
        self._note_dir(linkpath)
        return linkpath

    def _op_link(self, oldpath: str, newpath: str) -> str:
        self.sc.link(oldpath, newpath)
        self._note_dir(newpath)
        return newpath

    def _op_fastpath_create(self, mount: str, switch: str, name: str, files: dict) -> str:
        flow_dir = f"{mount}/switches/{switch}/flows/{name}"
        self.sc.mkdir(flow_dir)
        for filename, content in files.items():
            # Replay machinery: reconstructing a recorded (possibly torn)
            # crash state, so no commit obligation applies here.
            self.sc.write_text(f"{flow_dir}/{filename}", content)  # yanclint: disable=flow-no-commit
        return flow_dir

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

    def _note(self, stat, arg) -> None:
        """Add the inode ``stat(arg)`` names to :attr:`changed` (nothing to do while nothing is published)."""
        if not self.published:
            return
        try:
            st = stat(arg)
        except FsError:
            return
        self.changed.add((st.dev, st.ino))

    def _path_of(self, opened: tuple[object, str] | None) -> str | None:
        """Where an fd's file is now, through its inode: the path it was opened by while that still names it, else the first of its names in order.

        A rename since the open moves it, an unlink leaves it none, and a
        file with several names (a ``link``) gets the same one every run.
        """
        if opened is None:
            return None
        node, path = opened
        paths = sorted(self._paths(node))
        return path if path in paths else next(iter(paths), None)

    def _paths(self, node) -> Iterator[str]:
        """Every path ``node`` has now: one per chain of names up to a mounted root."""
        if not node.dentries:
            top = self.mounts.get(id(node))
            if top is not None:
                yield top
            return
        for parent, name in node.dentries:
            for head in self._paths(parent):
                yield f"{head}/{name}"

    def _note_dir(self, path: str) -> None:
        self._note(self.sc.stat, path.rpartition("/")[0] or "/")  # a path's directory components are followed

    def _forget(self, path: str) -> None:
        """Drop per-path state for a removed/replaced subtree."""
        prefix = path + "/"
        for key in [k for k in self.published if k == path or k.startswith(prefix)]:
            del self.published[key], self.covers[key]
            self.torn.discard(key)

    def settle(self) -> None:
        """Re-read every published entry an op changed since the last call, and mark each torn or whole."""
        if not self.changed:
            return
        stale = [path for path, covers in self.covers.items() if not covers.isdisjoint(self.changed)]
        self.changed.clear()
        for path in stale:
            have, self.covers[path] = self._snapshot(path)
            if have and have != self.published[path]:
                self.torn.add(path)
            else:
                self.torn.discard(path)  # whole again, or consumed (or never landed): absence is legal

    def _publication_checked(self, path: str) -> bool:
        """Is this rename target held to exact publication content?

        Event-spool entries and anything outside the yanc mounts are
        write-once maildir publications; switch/host objects are also
        rename-published but legitimately accumulate driver state later.
        """
        if "/events/" in path:
            return True
        return not any(path == m or path.startswith(m + "/") for m in self.mounts.values() if m)

    def _snapshot(self, path: str) -> tuple[dict[str, bytes], set[Key]]:
        """One published entry (file or dir) as relative path -> content, and the inodes read.

        A symlink reads as its target text: the entry publishes the link,
        not what it points at.
        """
        out: dict[str, bytes] = {}
        covers: set[Key] = set()
        try:
            st = self.sc.lstat(path)
        except FsError:
            return out, covers
        covers.add((st.dev, st.ino))
        stack = [(path, st)]
        while stack:
            current, st = stack.pop()
            try:
                if st.ftype is FileType.DIRECTORY:
                    for name, child_st in self.sc.scandir(current):
                        covers.add((child_st.dev, child_st.ino))
                        stack.append((f"{current}/{name}", child_st))
                    continue
                content = self.sc.readlink(current).encode() if st.ftype is FileType.SYMLINK else self.sc.read_bytes(current)
            except FsError:
                continue
            out[current[len(path) + 1 :]] = content
        return out, covers


# -- the invariant checked at each replayed crash state --------------------------------


#: What a torn publication means.
_TORN = "published entry's content at this crash point differs from what its atomic rename() published"


def check_crash_state(tree: ReplayTree, prefix: int, out: list[CrashViolation], site: str = "") -> None:
    """Report every published entry whose content differs from what its rename published."""
    tree.settle()
    if tree.torn:
        out.extend(CrashViolation(kind="torn-publication", path=path, prefix=prefix, detail=_TORN, site=site) for path in tree.published if path in tree.torn)


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
    if op.op in ("write", "pwrite") and is_spec_file(filename):
        late = CrashViolation(kind="spec-after-commit", path=f"{flow_dir}/{filename}", prefix=prefix - 1, detail=_UNCOMMITTED, site=op.site)
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
