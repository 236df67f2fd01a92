"""The VFS core: path resolution, permission checks, and operations.

This is the analogue of the Linux VFS layer the paper builds on: one
namespace-aware object tree under which any :class:`Filesystem` — tmpfs,
yancfs, a distributed-FS client — can be mounted, with uniform permissions,
ACLs, xattrs, symlinks, and notification.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.perf.counters import PerfCounters
from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.acl import Acl
from repro.vfs.cred import Credentials
from repro.vfs.dcache import holds
from repro.vfs.errors import (
    BadFileDescriptor,
    CrossDevice,
    DeviceBusy,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    NotPermitted,
    PermissionDenied,
    ReadOnly,
    TooManyLinks,
)
from repro.vfs.inode import (
    DirInode,
    FileInode,
    Filesystem,
    Inode,
    SymlinkInode,
    require_dir,
    require_file,
    validate_name,
)
from repro.vfs.memfs import MemFs
from repro.vfs.mount import MountEntry, MountNamespace
from repro.vfs.notify import EventMask, Inotify, NotifyHub
from repro.vfs.path import split_path
from repro.vfs.stat import MAY_EXEC, MAY_READ, MAY_WRITE, S_ISVTX, FileType, Stat

MAX_SYMLINK_DEPTH = 40

# open(2) flags.
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_EXCL = 0o200
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_DIRECTORY = 0o200000
_ACCMODE = 0o3


class FileHandle:
    """An open file description: inode, flags, offset."""

    def __init__(self, vfs: "VirtualFileSystem", inode: FileInode, flags: int, cred: Credentials) -> None:
        self._vfs = vfs
        self.inode = inode
        self.flags = flags
        self.cred = cred
        self.offset = 0
        self.closed = False

    @property
    def readable(self) -> bool:
        """True when the handle was opened for reading."""
        return self.flags & _ACCMODE in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        """True when the handle was opened for writing."""
        return self.flags & _ACCMODE in (O_WRONLY, O_RDWR)

    def _alive(self) -> None:
        if self.closed:
            raise BadFileDescriptor(detail="handle closed")

    def read(self, size: int = -1) -> bytes:
        """Read up to ``size`` bytes from the current offset (-1 = to EOF)."""
        self._alive()
        if not self.readable:
            raise BadFileDescriptor(detail="not open for reading")
        self._vfs.fanotify.check_access(self.inode, self.cred)
        if size < 0:
            size = max(0, self.inode.size - self.offset)
        data = self.inode.read(self.offset, size)
        self.offset += len(data)
        self.inode.fs.emit(self.inode, EventMask.IN_ACCESS)
        return data

    def pread(self, size: int, offset: int) -> bytes:
        """Positional read; does not move the handle offset."""
        self._alive()
        if not self.readable:
            raise BadFileDescriptor(detail="not open for reading")
        # Positional I/O must pass the same fanotify permission gate as
        # read(): FAN_ACCESS_PERM listeners see every byte access.
        self._vfs.fanotify.check_access(self.inode, self.cred)
        data = self.inode.read(offset, size)
        self.inode.fs.emit(self.inode, EventMask.IN_ACCESS)
        return data

    def write(self, data: bytes) -> int:
        """Write at the current offset (or at EOF with O_APPEND)."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        if self.inode.fs.readonly:
            raise ReadOnly(detail="read-only file system")
        if self.flags & O_APPEND:
            self.offset = self.inode.size
        written = self.inode.write(self.offset, bytes(data))
        self.offset += written
        return written

    def pwrite(self, data: bytes, offset: int) -> int:
        """Positional write; does not move the handle offset."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        if self.inode.fs.readonly:
            raise ReadOnly(detail="read-only file system")
        return self.inode.write(offset, bytes(data))

    def seek(self, offset: int) -> int:
        """Set the handle offset (absolute)."""
        self._alive()
        if offset < 0:
            raise InvalidArgument(detail="negative seek offset")
        self.offset = offset
        return offset

    def truncate(self, size: int = 0) -> None:
        """Truncate the open file."""
        self._alive()
        if not self.writable:
            raise BadFileDescriptor(detail="not open for writing")
        self.inode.truncate(size)

    def close(self) -> None:
        """Close; fires the attribute-apply hook for written-to files."""
        if self.closed:
            return
        self.closed = True
        if self.writable:
            self.inode.on_close_write(self.cred)
            self.inode.fs.emit(self.inode, EventMask.IN_CLOSE_WRITE)
            if _tracing:
                _publish("handle_close", self)  # a writable handle closed and its content was accepted
        else:
            self.inode.fs.emit(self.inode, EventMask.IN_CLOSE_NOWRITE)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DirHandle:
    """A directory descriptor (``open(path, O_DIRECTORY)``): the directory's inode and its canonical path.

    It anchors ``dir_fd`` opens (:meth:`VirtualFileSystem.openat`) and
    follows its inode wherever a rename takes it, as a Linux dirfd does.
    Like Linux's ``O_PATH | O_DIRECTORY`` it reads and writes nothing, so
    opening it needs no access to the directory itself (its ancestors are
    searched as in any walk) and opening or closing it emits no event;
    every data call on it is ``IsADirectory``.
    """

    readable = writable = False

    def __init__(self, inode: DirInode, path: str) -> None:
        self.inode = inode
        self.path = path
        self.closed = False

    def _no_data(self, *_args: object) -> None:
        raise IsADirectory(self.path)

    read = pread = write = pwrite = seek = truncate = _no_data

    def close(self) -> None:
        """Drop the descriptor."""
        self.closed = True


class VirtualFileSystem:
    """The kernel-side VFS: one of these per simulated host."""

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        counters: PerfCounters | None = None,
        root_fs: Filesystem | None = None,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.counters = counters or PerfCounters()
        self.hub = NotifyHub(self.counters)
        from repro.vfs.fanotify import FanotifyRegistry

        self.fanotify = FanotifyRegistry()
        self.root_fs = root_fs or MemFs(clock=self.clock)
        self.root_fs.hub = self.hub
        self.root_ns = MountNamespace(self.root_fs, name="init")
        # path string -> component tuple (see _tokens()).
        self._parts_memo: dict[str, tuple[str, ...]] = {}

    # -- namespaces and mounts -------------------------------------------------

    def inotify(self, *, max_queued_events: int | None = None) -> Inotify:
        """Create a notification instance for an application."""
        return Inotify(self.hub, max_queued_events=max_queued_events)

    def mount(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        fs: Filesystem,
        *,
        root: DirInode | None = None,
        source: str = "",
    ) -> MountEntry:
        """Mount ``fs`` at ``path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(path, "mount requires root")
        mountpoint = require_dir(self._mountpoint_node(ns, cred, path), path)
        fs.hub = self.hub
        return ns.mount(mountpoint, fs, root=root, source=source)

    def _mountpoint_node(self, ns: MountNamespace, cred: Credentials, path: str) -> Inode:
        """Resolve ``path`` without crossing a mount at the final node."""
        parts = self._tokens(path)
        if not parts:
            return ns.root_entry.root
        parent = self._resolve_dir(ns, cred, parts[:-1], path)
        node = parent.lookup(parts[-1])
        if isinstance(node, SymlinkInode):
            return self.resolve(ns, cred, path)
        return node

    def bind_mount(self, ns: MountNamespace, cred: Credentials, source_path: str, target_path: str) -> MountEntry:
        """Bind ``source_path`` over ``target_path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(target_path, "mount requires root")
        subtree = require_dir(self.resolve(ns, cred, source_path), source_path)
        mountpoint = require_dir(self._mountpoint_node(ns, cred, target_path), target_path)
        return ns.bind(mountpoint, subtree, source=source_path)

    def umount(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Unmount whatever is mounted at ``path`` (root only)."""
        if not cred.is_root:
            raise NotPermitted(path, "umount requires root")
        node = self._mountpoint_node(ns, cred, path)
        ns.umount(node)

    # -- path resolution ---------------------------------------------------------

    def _tokens(self, path: str) -> tuple[str, ...]:
        """``path`` as a component tuple.

        Tokenizing is pure string work, so it is memoized; the tuple doubles
        as the resolution memo's key without a copy.
        """
        parts = self._parts_memo.get(path)
        if parts is None:
            parts = tuple(split_path(path))
            if len(self._parts_memo) >= 4096:
                self._parts_memo.clear()
            self._parts_memo[path] = parts
        return parts

    def resolve(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        *,
        follow_last: bool = True,
    ) -> Inode:
        """Resolve ``path`` to an inode (symlinks followed; mounts crossed)."""
        return self._resolve_parts(ns, cred, self._tokens(path), follow_last, path)

    def resolve_parent(self, ns: MountNamespace, cred: Credentials, path: str) -> tuple[DirInode, str]:
        """Resolve the parent directory of ``path``; return (dir, last name)."""
        parts = self._tokens(path)
        if not parts:
            raise InvalidArgument(path, "operation on / is not allowed")
        parent = self._resolve_dir(ns, cred, parts[:-1], path)
        return parent, validate_name(parts[-1])

    def _resolve_dir(self, ns: MountNamespace, cred: Credentials, parts: tuple[str, ...], path: str) -> DirInode:
        return require_dir(self._resolve_parts(ns, cred, parts, True, path), path)

    def _resolve_parts(
        self,
        ns: MountNamespace,
        cred: Credentials,
        parts: tuple[str, ...],
        follow_last: bool,
        full_path: str,
    ) -> Inode:
        """Resolve ``parts`` from the namespace root: the memo, else the walk.

        A memoized resolution is served iff every dentry it walked still
        stands and every permission input it checked is unchanged (the one
        rule, :func:`repro.vfs.dcache.holds`); nothing else validates it and
        nothing invalidates it from outside.
        """
        if not parts:
            return ns.root_entry.root
        dcache = ns.dcache
        deps: list | None = None
        if dcache.enabled:
            key = (parts, follow_last, cred)
            entry = dcache.paths.get(key)
            if entry is not None:
                if holds(entry[0]):
                    dcache.path_hits += 1
                    return entry[1]
                del dcache.paths[key]
                dcache.invalidations += 1
            dcache.path_misses += 1
            deps = []
        stack: list[Inode] = [ns.root_entry.root]
        self._walk(ns, cred, stack, parts, follow_last, [MAX_SYMLINK_DEPTH], full_path, deps)
        # A non-cacheable file system poisons the walk with a None dep.
        if deps is not None and None not in deps:
            dcache.store_path(key, deps, stack[-1])
        return stack[-1]

    def _walk(
        self,
        ns: MountNamespace,
        cred: Credentials,
        stack: list[Inode],
        parts: tuple[str, ...],
        follow_last: bool,
        budget: list[int],
        full_path: str,
        deps: list | None,
    ) -> None:
        """The walk: extend ``stack`` by one inode per component of ``parts``.

        Per component: the current node must be a directory granting
        ``MAY_EXEC``, the child comes from its ``lookup`` (so a file system's
        refreshing override runs), a symlink is followed by walking its
        target on the same stack, and mounts are crossed to the topmost
        root.  With ``deps`` it records what a memo entry must re-check.
        """
        unchecked = cred.is_root  # the access rule's first line: nothing refuses uid 0
        cross = ns.cross
        last = len(parts) - 1
        for index, part in enumerate(parts):
            cur_dir = stack[-1]
            if not isinstance(cur_dir, DirInode):
                raise NotADirectory(full_path)
            if not unchecked:
                self.check_access(cur_dir, cred, MAY_EXEC, full_path)
            if part == "..":
                # Permission-only dep: no directory has a child called "..".
                child = None
                if len(stack) > 1:
                    stack.pop()
            else:
                child = cur_dir.lookup(part)
            if deps is not None:
                if cur_dir.fs.cacheable:
                    deps.append((cur_dir, part, child, cur_dir.acl, cur_dir.uid, cur_dir.gid, cur_dir.mode))
                else:
                    deps.append(None)
            if child is None:
                continue
            if isinstance(child, SymlinkInode) and (follow_last or index != last):
                budget[0] -= 1
                if budget[0] < 0:
                    raise TooManyLinks(full_path, "too many levels of symbolic links")
                if child.target.startswith("/"):
                    del stack[1:]
                target_parts = tuple(p for p in child.target.split("/") if p and p != ".")
                self._walk(ns, cred, stack, target_parts, True, budget, full_path, deps)
                continue
            stack.append(cross(child))

    # -- permissions ---------------------------------------------------------------

    def check_access(self, inode: Inode, cred: Credentials, want: int, path: str = "") -> None:
        """Raise PermissionDenied unless ``cred`` may access ``inode`` (one without an ACL is judged by the one its mode spells)."""
        acl = inode.acl or Acl.from_mode(inode.mode & 0o777)
        if not acl.check(cred, inode.uid, inode.gid, want):
            raise PermissionDenied(path, "ACL forbids access" if inode.acl else "")

    def _check_write_dir(self, parent: DirInode, cred: Credentials, path: str) -> None:
        if parent.fs.readonly:
            raise ReadOnly(path, "read-only file system")
        self.check_access(parent, cred, MAY_WRITE | MAY_EXEC, path)

    def _check_sticky(self, parent: DirInode, node: Inode, cred: Credentials, path: str) -> None:
        if parent.mode & S_ISVTX and not cred.is_root and cred.uid not in (node.uid, parent.uid):
            raise NotPermitted(path, "sticky directory")

    def _create(
        self,
        parent: DirInode,
        name: str,
        ftype: FileType,
        cred: Credentials,
        path: str,
        *,
        mode: int = 0,
        target: str = "",
        node: Inode | None = None,
    ) -> Inode:
        """The create rule: EEXIST, write + search on the directory, its veto hook, then attach
        ``node`` (a hard link), else a symlink to ``target``, else what the directory's factory builds, with ``mode``."""
        if parent.has_child(name):
            raise FileExists(path)
        self._check_write_dir(parent, cred, path)
        parent.may_create(name, ftype, cred)
        if node is None:
            if ftype is FileType.SYMLINK:
                node = parent.fs.make_symlink(target, uid=cred.uid, gid=cred.gid)
            else:
                node = parent.child_factory(name, ftype, cred)
                node.mode = mode & 0o7777
                node.uid, node.gid = cred.uid, cred.gid
        parent.attach(name, node)
        return node

    # -- directory operations -----------------------------------------------------

    def mkdir(self, ns: MountNamespace, cred: Credentials, path: str, mode: int = 0o755) -> DirInode:
        """Create a directory (semantic file systems may auto-populate it)."""
        parent, name = self.resolve_parent(ns, cred, path)
        return require_dir(self._create(parent, name, FileType.DIRECTORY, cred, path, mode=mode), path)

    def rmdir(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Remove a directory.

        Plain directories must be empty (ENOTEMPTY); yanc object
        directories opt in to recursive removal (paper section 3.2).
        """
        parent, name = self.resolve_parent(ns, cred, path)
        node = parent.lookup(name)
        target = require_dir(node, path)
        if ns.mount_at(node) is not None:
            raise DeviceBusy(path, "is a mountpoint")
        self._check_write_dir(parent, cred, path)
        self._check_sticky(parent, node, cred, path)
        parent.may_remove(name, node, cred)
        if not target.is_empty():
            if not target.recursive_rmdir_ok():
                raise DirectoryNotEmpty(path)
            target.remove_subtree()
        parent.detach(name)

    def readdir(self, ns: MountNamespace, cred: Credentials, path: str) -> list[str]:
        """List directory entries (requires read permission)."""
        node = require_dir(self.resolve(ns, cred, path), path)
        self.check_access(node, cred, MAY_READ, path)
        return node.names()

    def scandir(self, ns: MountNamespace, cred: Credentials, path: str) -> list[tuple[str, Stat]]:
        """readdir + per-entry lstat metadata, resolving the directory once.

        Entries that are mountpoints report the mounted root's stat (as
        ``walk`` does); symlinks report their own stat (lstat semantics).
        The directory needs ``MAY_READ`` (to list) and ``MAY_EXEC`` (the
        per-entry ``lstat`` reaches through it).
        """
        node = require_dir(self.resolve(ns, cred, path), path)
        self.check_access(node, cred, MAY_READ | MAY_EXEC, path)
        return [(name, ns.cross(child).stat()) for name, child in node.children()]

    def readdirplus(self, ns: MountNamespace, cred: Credentials, path: str) -> list[tuple[str, bytes | None]]:
        """readdir + every regular file's whole content, resolving the directory once.

        What a ``listdir`` followed by open + read + close of each entry
        performs, minus the per-entry path walk: the directory needs
        ``MAY_READ`` (to list) and ``MAY_EXEC`` (to reach its children),
        and every file passes ``MAY_READ``, the fanotify open and access
        gates, and emits IN_OPEN, IN_ACCESS, IN_CLOSE_NOWRITE — in
        directory order, raising at the first file the loop would have
        raised at.  Sub-directories (so mountpoints, which only
        directories can be) and symlinks report ``None``.
        """
        node = require_dir(self.resolve(ns, cred, path), path)
        self.check_access(node, cred, MAY_READ | MAY_EXEC, path)
        out: list[tuple[str, bytes | None]] = []
        for name, child in node.children():
            if not isinstance(child, FileInode):
                out.append((name, None))
                continue
            try:
                self.check_access(child, cred, MAY_READ)
            except PermissionDenied as exc:
                raise PermissionDenied(f"{path}/{name}", exc.detail) from None
            self.fanotify.check_open(child, cred, writable=False)
            child.fs.emit(child, EventMask.IN_OPEN)
            with FileHandle(self, child, O_RDONLY, cred) as handle:
                out.append((name, handle.read()))
        return out

    # -- file operations ---------------------------------------------------------

    def open(
        self,
        ns: MountNamespace,
        cred: Credentials,
        path: str,
        flags: int = O_RDONLY,
        mode: int = 0o644,
    ) -> FileHandle | DirHandle:
        """Open (optionally creating) a regular file; with ``O_DIRECTORY``, a directory descriptor."""
        if flags & O_DIRECTORY:
            if flags & O_CREAT:
                raise InvalidArgument(path, "O_CREAT with O_DIRECTORY")
            if flags & _ACCMODE != O_RDONLY:
                raise IsADirectory(path)
            return DirHandle(require_dir(self.resolve(ns, cred, path), path), path)
        parts = self._tokens(path)
        if flags & O_CREAT and parts and parts[-1] != "..":
            # Ask the directory for the name (a search of it): a new file
            # costs this one walk, and of the names that exist only a symlink
            # is resolved further (a mountpoint is a directory on either side).
            parent, name = self.resolve_parent(ns, cred, path)
            return self._open_in(ns, cred, parent, name, path, flags, mode)
        return self._open_in(ns, cred, None, "", path, flags, mode, self.resolve(ns, cred, path))

    def openat(
        self,
        ns: MountNamespace,
        cred: Credentials,
        dirfd: DirHandle,
        name: str,
        flags: int = O_RDONLY,
        mode: int = 0o644,
    ) -> FileHandle:
        """openat(2): open ``name`` in the directory ``dirfd`` holds, walking none of its ancestors.

        The directory needs ``MAY_EXEC`` (and a new name the create rule's
        ``MAY_WRITE``); a directory removed since ``dirfd`` was opened has
        no names left, so the open fails ``FileNotFound``.  The rest is
        :meth:`open`'s: the same access checks, fanotify gate, ``IN_OPEN``
        and ``O_TRUNC``.
        """
        path = f"{dirfd.path.rstrip('/')}/{name}"
        if flags & O_DIRECTORY:
            raise InvalidArgument(path, "O_DIRECTORY under a directory descriptor")
        parent = dirfd.inode
        if not parent.dentries and parent is not parent.fs.root:
            raise FileNotFound(path, "directory removed")
        return self._open_in(ns, cred, parent, validate_name(name), path, flags, mode)

    def _open_in(
        self,
        ns: MountNamespace,
        cred: Credentials,
        parent: DirInode | None,
        name: str,
        path: str,
        flags: int,
        mode: int,
        node: Inode | None = None,
    ) -> FileHandle:
        """The one open routine: find ``name`` in ``parent`` (or take the ``node`` a walk resolved), then open it.

        Finding is a search of the directory, and under ``O_CREAT`` the
        create rule for a new name.  Opening is what every open shares:
        ``O_EXCL``, the access checks, the fanotify gate, ``IN_OPEN``,
        ``O_TRUNC`` and the handle.
        """
        created = False
        if node is None:
            self.check_access(parent, cred, MAY_EXEC, path)
            if parent.has_child(name):
                node = parent._children[name]  # what has_child just answered from (and, on distfs, refreshed)
                if isinstance(node, SymlinkInode):
                    try:
                        node = self.resolve(ns, cred, path)
                    except FileNotFound:
                        if flags & O_CREAT:
                            raise FileExists(path, "dangling symlink in the way") from None
                        raise
            elif flags & O_CREAT:
                node = self._create(parent, name, FileType.REGULAR, cred, path, mode=mode)
                created = True
            else:
                raise FileNotFound(path)
        if flags & O_CREAT and flags & O_EXCL and not created:
            raise FileExists(path)
        inode = require_file(node, path)
        accmode = flags & _ACCMODE
        if not created:
            if accmode in (O_RDONLY, O_RDWR):
                self.check_access(inode, cred, MAY_READ, path)
            if accmode in (O_WRONLY, O_RDWR):
                self.check_access(inode, cred, MAY_WRITE, path)
        if accmode in (O_WRONLY, O_RDWR) and inode.fs.readonly:
            raise ReadOnly(path, "read-only file system")
        # fanotify permission events: a listener may veto this open (§5.2)
        self.fanotify.check_open(inode, cred, writable=accmode in (O_WRONLY, O_RDWR))
        inode.fs.emit(inode, EventMask.IN_OPEN)
        if flags & O_TRUNC and accmode in (O_WRONLY, O_RDWR) and not created:
            inode.truncate(0)
        return FileHandle(self, inode, flags, cred)

    def truncate(self, ns: MountNamespace, cred: Credentials, path: str, size: int) -> None:
        """Truncate by path."""
        inode = require_file(self.resolve(ns, cred, path), path)
        self.check_access(inode, cred, MAY_WRITE, path)
        if inode.fs.readonly:
            raise ReadOnly(path)
        inode.truncate(size)

    def unlink(self, ns: MountNamespace, cred: Credentials, path: str) -> None:
        """Remove a non-directory."""
        parent, name = self.resolve_parent(ns, cred, path)
        node = parent.lookup(name)
        if isinstance(node, DirInode):
            raise IsADirectory(path)
        self._check_write_dir(parent, cred, path)
        self._check_sticky(parent, node, cred, path)
        parent.may_remove(name, node, cred)
        parent.detach(name)

    # -- links -------------------------------------------------------------------

    def symlink(self, ns: MountNamespace, cred: Credentials, target: str, linkpath: str) -> SymlinkInode:
        """Create a symbolic link at ``linkpath`` pointing to ``target``."""
        parent, name = self.resolve_parent(ns, cred, linkpath)
        return self._create(parent, name, FileType.SYMLINK, cred, linkpath, target=target)

    def readlink(self, ns: MountNamespace, cred: Credentials, path: str) -> str:
        """Read a symlink's target."""
        node = self.resolve(ns, cred, path, follow_last=False)
        if not isinstance(node, SymlinkInode):
            raise InvalidArgument(path, "not a symlink")
        return node.target

    def link(self, ns: MountNamespace, cred: Credentials, oldpath: str, newpath: str) -> None:
        """Create a hard link (non-directories, same file system)."""
        node = self.resolve(ns, cred, oldpath)
        if isinstance(node, DirInode):
            raise NotPermitted(oldpath, "cannot hard-link directories")
        parent, name = self.resolve_parent(ns, cred, newpath)
        if node.fs is not parent.fs:
            raise CrossDevice(newpath)
        self._create(parent, name, node.ftype, cred, newpath, node=node)

    # -- rename --------------------------------------------------------------------

    def rename(self, ns: MountNamespace, cred: Credentials, oldpath: str, newpath: str) -> None:
        """POSIX rename, with IN_MOVED_FROM/IN_MOVED_TO event pairing."""
        old_parent, old_name = self.resolve_parent(ns, cred, oldpath)
        new_parent, new_name = self.resolve_parent(ns, cred, newpath)
        node = old_parent.lookup(old_name)
        if node.fs is not new_parent.fs:
            raise CrossDevice(newpath, "rename across file systems")
        if ns.mount_at(node) is not None:
            raise DeviceBusy(oldpath, "is a mountpoint")
        if old_parent is new_parent and old_name == new_name:
            return
        if isinstance(node, DirInode) and self._is_same_or_descendant(new_parent, node):
            raise InvalidArgument(newpath, "cannot move a directory into itself")
        self._check_write_dir(old_parent, cred, oldpath)
        self._check_write_dir(new_parent, cred, newpath)
        self._check_sticky(old_parent, node, cred, oldpath)
        old_parent.may_rename_from(old_name, node, cred)
        new_parent.may_rename_into(new_name, node, cred)
        if new_parent.has_child(new_name):
            existing = new_parent.lookup(new_name)
            if existing is node:
                return
            if isinstance(existing, DirInode):
                if not isinstance(node, DirInode):
                    raise IsADirectory(newpath)
                if not existing.is_empty():
                    raise DirectoryNotEmpty(newpath)
            elif isinstance(node, DirInode):
                raise NotADirectory(newpath)
            self._check_sticky(new_parent, existing, cred, newpath)
            new_parent.may_remove(new_name, existing, cred)
            new_parent.detach(new_name)
        cookie = self.hub.next_cookie()
        old_parent.detach(old_name, emit_mask=int(EventMask.IN_MOVED_FROM), cookie=cookie)
        new_parent.attach(new_name, node, emit_mask=int(EventMask.IN_MOVED_TO), cookie=cookie)
        node.fs.emit(node, EventMask.IN_MOVE_SELF)

    @staticmethod
    def _is_same_or_descendant(candidate: DirInode, ancestor: DirInode) -> bool:
        seen = set()
        node: Inode = candidate
        while True:
            if node is ancestor:
                return True
            if id(node) in seen or not node.dentries:
                return False
            seen.add(id(node))
            node = next(iter(node.dentries))[0]

    # -- metadata ------------------------------------------------------------------

    def stat(self, ns: MountNamespace, cred: Credentials, path: str) -> Stat:
        """stat(2): follows symlinks."""
        return self.resolve(ns, cred, path).stat()

    def lstat(self, ns: MountNamespace, cred: Credentials, path: str) -> Stat:
        """lstat(2): does not follow a final symlink."""
        return self.resolve(ns, cred, path, follow_last=False).stat()

    def exists(self, ns: MountNamespace, cred: Credentials, path: str) -> bool:
        """True when ``path`` resolves."""
        try:
            self.resolve(ns, cred, path)
        except (FileNotFound, NotADirectory):
            return False
        return True

    def chmod(self, ns: MountNamespace, cred: Credentials, path: str, mode: int) -> None:
        """Change permission bits (owner or root)."""
        node = self.resolve(ns, cred, path)
        if not cred.is_root and cred.uid != node.uid:
            raise NotPermitted(path, "chmod by non-owner")
        node.mode = mode & 0o7777
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def chown(self, ns: MountNamespace, cred: Credentials, path: str, uid: int, gid: int) -> None:
        """Change ownership (root; owners may change group to one of theirs)."""
        node = self.resolve(ns, cred, path)
        if cred.is_root:
            node.uid, node.gid = uid, gid
        elif cred.uid == node.uid and uid == node.uid and cred.in_group(gid):
            node.gid = gid
        else:
            raise NotPermitted(path, "chown requires root")
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def set_acl(self, ns: MountNamespace, cred: Credentials, path: str, acl) -> None:
        """Attach a POSIX ACL (owner or root)."""
        node = self.resolve(ns, cred, path)
        if not cred.is_root and cred.uid != node.uid:
            raise NotPermitted(path, "setfacl by non-owner")
        node.acl = acl
        node.ctime = node.fs.now()
        node.fs.emit(node, EventMask.IN_ATTRIB)

    # -- extended attributes ----------------------------------------------------------

    def setxattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str, value: bytes) -> None:
        """Set an extended attribute (needs write access)."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_WRITE, path)
        node.set_xattr(name, value)
        node.fs.emit(node, EventMask.IN_ATTRIB)

    def getxattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str) -> bytes:
        """Get an extended attribute (needs read access)."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_READ, path)
        return node.get_xattr(name)

    def listxattr(self, ns: MountNamespace, cred: Credentials, path: str) -> list[str]:
        """List extended attribute names."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_READ, path)
        return node.list_xattrs()

    def removexattr(self, ns: MountNamespace, cred: Credentials, path: str, name: str) -> None:
        """Remove an extended attribute."""
        node = self.resolve(ns, cred, path)
        self.check_access(node, cred, MAY_WRITE, path)
        node.remove_xattr(name)
        node.fs.emit(node, EventMask.IN_ATTRIB)

    # -- traversal helpers -------------------------------------------------------------

    def walk(self, ns: MountNamespace, cred: Credentials, path: str) -> Iterator[tuple[str, list[str], list[str]]]:
        """os.walk-style traversal yielding (dirpath, dirnames, filenames).

        Every directory visited needs ``MAY_READ | MAY_EXEC``, as ``scandir``
        asks: the top directory raises, a refusing sub-directory stays named
        in its parent's ``dirnames`` and is not entered (``os.walk`` with
        ``onerror=None``).
        """
        node = require_dir(self.resolve(ns, cred, path), path)
        base = "/" + "/".join(self._tokens(path))
        stack: list[tuple[str, DirInode]] = [(base, node)]
        while stack:
            dirpath, dirnode = stack.pop(0)
            try:
                self.check_access(dirnode, cred, MAY_READ | MAY_EXEC, dirpath)
            except PermissionDenied:
                if dirnode is node:
                    raise
                continue
            dirnames, filenames = [], []
            for name, child in dirnode.children():
                target = ns.cross(child)
                if isinstance(target, DirInode):
                    dirnames.append(name)
                    stack.append((dirpath.rstrip("/") + "/" + name, target))
                else:
                    filenames.append(name)
            yield dirpath, dirnames, filenames
