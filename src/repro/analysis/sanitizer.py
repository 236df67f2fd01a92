"""yancsan: an opt-in runtime sanitizer for the VFS and yanc tree.

Where yanclint checks source, yancsan checks *executions*.  When enabled
(``YANCSAN=1`` in the environment, or an explicit :func:`install`), it
subscribes to the trace-point bus (:mod:`repro.perf.tracepoints`) for
the small number of choke points everything flows through — the
``open``/``close`` syscalls, ``FileInode.set_content``, writable
``FileHandle.close``, ``NotifyHub.emit_dirent`` — and records invariant
violations instead of raising, so a whole test runs to completion and
reports every finding at teardown:

* **fd-leak** — descriptors opened through a ``Syscalls`` instance and
  never closed.  Close is where attribute validation happens, so a leaked
  writable handle is also a validation hole.
* **unvalidated-write** — an :class:`AttributeFile` mutated via
  ``set_content`` with content its validator rejects (direct-store paths
  bypass close-time validation; ``libyanc.fastpath`` validates explicitly
  and this check keeps everyone else honest).
* **notify-inconsistency** — a directory-entry event whose mask
  contradicts tree state (IN_CREATE for an absent child, IN_DELETE for a
  present one) or an IN_MOVED_FROM/IN_MOVED_TO cookie with only one half.
* **flow-commit** — the §3.4 commit protocol: mutating a committed flow's
  spec files without a subsequent ``version`` increment means the change
  never reaches the switch; decreasing ``version`` breaks the protocol
  outright.

Usage::

    YANCSAN=1 python -m pytest        # conftest wires teardown checks

or programmatically::

    san = Sanitizer()
    san.install()
    try:
        ...
        assert san.check() == []
    finally:
        san.uninstall()
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import tracepoints
from repro.vfs.errors import InvalidArgument
from repro.vfs.inode import DirInode, FileInode
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import FileHandle
from repro.yancfs.schema import AttributeFile, FlowNode

#: Flow spec files whose mutation requires a version bump to take effect.
_FLOW_SPEC_NAMES = {"priority", "timeout", "idle_timeout", "hard_timeout", "cookie"}


@dataclass(frozen=True)
class SanFinding:
    """One runtime invariant violation."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"yancsan [{self.kind}] {self.detail}"


@dataclass
class _PendingCommit:
    flow: FlowNode
    version_at_mutation: int
    detail: str


class Sanitizer:
    """Collects runtime findings between :meth:`reset` and :meth:`check`."""

    def __init__(self) -> None:
        self.findings: list[SanFinding] = []
        # (id(syscalls), fd) -> (path, handle); populated at open's exit.
        self._open_fds: dict[tuple[int, int], tuple[str, FileHandle]] = {}
        # id(flow node) -> last committed version value seen.
        self._versions: dict[int, int] = {}
        # id(flow node) -> mutation awaiting a version bump.
        self._pending: dict[int, _PendingCommit] = {}
        # rename cookie -> set of halves seen ("from"/"to").
        self._move_cookies: dict[int, set[str]] = {}

    # -- lifecycle -----------------------------------------------------------------

    def install(self) -> "Sanitizer":
        """Start observing; idempotent per sanitizer."""
        tracepoints.subscribe(self)
        return self

    def uninstall(self) -> None:
        """Stop observing; what was recorded stays until :meth:`reset`."""
        tracepoints.unsubscribe(self)

    def reset(self) -> None:
        """Drop all recorded state, e.g. between tests."""
        self.findings.clear()
        self._open_fds.clear()
        self._versions.clear()
        self._pending.clear()
        self._move_cookies.clear()

    def check(self) -> list[SanFinding]:
        """Return all findings, including teardown-only ones (fd leaks,
        unpaired move cookies, uncommitted flow mutations)."""
        findings = list(self.findings)
        for (_, fd), (path, handle) in sorted(self._open_fds.items()):
            findings.append(SanFinding("fd-leak", f"fd {fd} open on {path!r} was never closed"))
            if handle.writable and isinstance(handle.inode, AttributeFile) and handle.inode.validator is not None:
                findings.append(
                    SanFinding(
                        "unvalidated-write",
                        f"writable fd {fd} on validated attribute {path!r} leaked: "
                        "its content was never validated at close",
                    )
                )
        for cookie, halves in sorted(self._move_cookies.items()):
            if halves != {"from", "to"}:
                only = next(iter(halves))
                findings.append(
                    SanFinding(
                        "notify-inconsistency",
                        f"rename cookie {cookie} emitted IN_MOVED_{only.upper()} without its pair",
                    )
                )
        for pending in self._pending.values():
            findings.append(SanFinding("flow-commit", pending.detail))
        return findings

    # -- trace-point handlers ------------------------------------------------------

    def on_syscall_exit(self, sc: Syscalls, op: str, paths: tuple, args: tuple, result: object, exc: BaseException | None) -> None:
        if op == "open" and exc is None:
            handle = sc._fds.get(result)
            if handle is not None:
                self._open_fds[(id(sc), result)] = (args[0], handle)
        elif op == "close":
            # Syscalls.close drops the fd before handle.close(), so the
            # descriptor is gone even when close-time validation raises.
            self._open_fds.pop((id(sc), args[0]), None)

    def on_set_content(self, inode: FileInode, data: bytes) -> None:
        if not isinstance(inode, AttributeFile) or inode.validator is None:
            return
        if bytes(data) == inode._last_valid:
            return  # the close-time rollback path restores known-good content
        text = bytes(data).decode(errors="replace")
        try:
            inode.validator(text)
        except InvalidArgument as exc:
            self.findings.append(
                SanFinding(
                    "unvalidated-write",
                    f"set_content({text!r}) bypassed close-time validation and the "
                    f"validator rejects it: {exc.detail or exc}",
                )
            )
            return
        self._note_attribute_write(inode, text)

    def on_handle_close(self, handle: FileHandle) -> None:
        inode = handle.inode
        if isinstance(inode, AttributeFile):
            self._note_attribute_write(inode, inode.read_all().decode(errors="replace"))

    def _note_attribute_write(self, inode: AttributeFile, text: str) -> None:
        """Track the §3.4 commit protocol on flow attribute files."""
        for parent, name in list(inode.dentries):
            if not isinstance(parent, FlowNode):
                continue
            key = id(parent)
            if name == "version":
                if not text.strip():
                    # The O_TRUNC half of an open-truncate-write-close
                    # sequence (e.g. distfs write-through) — not a commit.
                    continue
                try:
                    new = int(text.strip(), 0)
                except ValueError:
                    continue  # unvalidated-write already covers garbage
                old = self._versions.get(key, 0)
                if new < old:
                    self.findings.append(
                        SanFinding(
                            "flow-commit",
                            f"flow version decreased {old} -> {new}; versions must only grow (§3.4)",
                        )
                    )
                elif new > old:
                    self._pending.pop(key, None)
                self._versions[key] = max(old, new)
            elif name in _FLOW_SPEC_NAMES or name.startswith(("match.", "action.")):
                version = self._current_version(parent)
                self._versions.setdefault(key, version)
                if version > 0 and key not in self._pending:
                    self._pending[key] = _PendingCommit(
                        flow=parent,
                        version_at_mutation=version,
                        detail=f"flow spec file {name!r} changed at version {version} "
                        "but 'version' was never incremented; the switch will not see it (§3.4)",
                    )

    def on_emit_dirent(self, parent: object, child: object, mask: int, name: str, cookie: int) -> None:
        event = EventMask(mask)
        if isinstance(parent, DirInode):
            # Inspect the raw child map: has_child()/lookup() run policy
            # hooks (distfs proxies refresh over RPC) and a sanitizer must
            # never perturb the system it observes.
            present = parent._children.get(name) is child
            if event & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO) and not present:
                self.findings.append(
                    SanFinding(
                        "notify-inconsistency",
                        f"{self._mask_name(event)} for {name!r} but the directory has no such child",
                    )
                )
            if event & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM) and parent._children.get(name) is not None:
                self.findings.append(
                    SanFinding(
                        "notify-inconsistency",
                        f"{self._mask_name(event)} for {name!r} but the child is still attached",
                    )
                )
        if cookie:
            halves = self._move_cookies.setdefault(cookie, set())
            if event & EventMask.IN_MOVED_FROM:
                halves.add("from")
            if event & EventMask.IN_MOVED_TO:
                halves.add("to")

    @staticmethod
    def _mask_name(event: EventMask) -> str:
        for flag in (EventMask.IN_CREATE, EventMask.IN_DELETE, EventMask.IN_MOVED_FROM, EventMask.IN_MOVED_TO):
            if event & flag:
                return flag.name or str(flag)
        return str(event)

    @staticmethod
    def _current_version(flow: FlowNode) -> int:
        node = flow._children.get("version")
        if not isinstance(node, FileInode):
            return 0
        try:
            return int(node.read_all().decode(errors="replace").strip() or "0", 0)
        except ValueError:
            return 0


# -- environment opt-in ---------------------------------------------------------

_ENV = tracepoints.EnvTool("YANCSAN", Sanitizer)
enabled, install_from_env, active, reset_all = _ENV.enabled, _ENV.install_from_env, _ENV.active, _ENV.reset_all
