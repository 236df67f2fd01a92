"""The metered syscall facade: what an application process sees.

Applications never touch :class:`~repro.vfs.vfs.VirtualFileSystem` directly;
they hold a :class:`Syscalls` object that carries their credentials, mount
namespace, working directory, and file-descriptor table, and meters every
call through a :class:`~repro.perf.meter.SyscallMeter`.  This boundary is
what makes section 8.1's syscall/context-switch accounting exact: one
``Syscalls`` method call == one system call.

The same boundary is where observation happens: every metered method is
a ``syscall`` trace point on the bus in :mod:`repro.perf.tracepoints`,
publishing ``on_syscall_enter(sc, op, paths, args)`` and
``on_syscall_exit(sc, op, paths, args, result, exc)`` — ``op`` is the
method name, ``paths`` its path arguments made absolute and canonical,
``args`` the positional arguments as passed.  Operations a ring submits
dispatch through these methods, so they fire the same events.

**The syscall table.**  :data:`SYSCALLS` states the surface once: one
row per public metered method, saying which arguments are paths, whether
the first is a descriptor, whether the call changes the tree, whether a
ring accepts it and how many crossings it costs.  The trace point takes
its ``paths`` from the row; the ring, the cost model and every runtime
and static analysis tool read the same rows, so a new method is taught
to all of them by adding its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.perf.meter import SyscallMeter
from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.acl import Acl
from repro.vfs.cred import ROOT, Credentials
from repro.vfs.errors import BadFileDescriptor, FsError, InvalidArgument, NotADirectory
from repro.vfs.inode import Filesystem
from repro.vfs.mount import MountNamespace
from repro.vfs.notify import EventMask, Inotify, NotifyEvent
from repro.vfs.path import clean, join
from repro.vfs.poll import EPOLL_CTL_ADD, EPOLL_CTL_DEL, Epoll
from repro.vfs.stat import Stat
from repro.vfs.vfs import (
    O_APPEND,
    O_CREAT,
    O_DIRECTORY,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    DirHandle,
    FileHandle,
    VirtualFileSystem,
)

if TYPE_CHECKING:
    from repro.vfs.uring import IoUring

__all__ = [
    "SYSCALLS",
    "Syscall",
    "Syscalls",
    "O_APPEND",
    "O_CREAT",
    "O_DIRECTORY",
    "O_EXCL",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
]

_WRITE_FLAGS = O_WRONLY | O_RDWR | O_CREAT | O_TRUNC


@dataclass(frozen=True, slots=True)
class Syscall:
    """One row of :data:`SYSCALLS`: what every observer needs to know about a method."""

    name: str
    paths: tuple[int, ...] = ()  # argument positions of the paths the call resolves
    fd: bool = False  # the first argument is a descriptor
    mutates: bool = False  # the call changes the tree (``open`` decides by its flags: :meth:`writes`)
    ring: bool = False  # an ``IoUring`` accepts it
    crossings: int = 1  # metered crossings per call (``walk``: per directory visited)
    stores: tuple[int, ...] = ()  # argument positions of paths kept, not resolved (a symlink's target)

    def writes(self, args: tuple) -> bool:
        """Did a call with these arguments change the tree?"""
        return self.mutates or (self.name == "open" and bool(args[1] & _WRITE_FLAGS))


#: The syscall surface, one row per public metered ``Syscalls`` method.
SYSCALLS: dict[str, Syscall] = {
    row.name: row
    for row in (
        Syscall("chdir", (0,)),
        Syscall("open", (0,), ring=True),
        Syscall("close", fd=True, ring=True),
        Syscall("read", fd=True, ring=True),
        Syscall("write", fd=True, mutates=True, ring=True),
        Syscall("pread", fd=True, ring=True),
        Syscall("pwrite", fd=True, mutates=True, ring=True),
        Syscall("lseek", fd=True, ring=True),
        Syscall("ftruncate", fd=True, mutates=True, ring=True),
        Syscall("fstat", fd=True, ring=True),
        Syscall("read_text", (0,), crossings=3),
        Syscall("read_bytes", (0,), crossings=3),
        Syscall("write_text", (0,), mutates=True, crossings=3),
        Syscall("write_bytes", (0,), mutates=True, crossings=3),
        Syscall("mkdir", (0,), mutates=True, ring=True),
        Syscall("makedirs", (0,), mutates=True, crossings=2),
        Syscall("rmdir", (0,), mutates=True, ring=True),
        Syscall("unlink", (0,), mutates=True, ring=True),
        Syscall("rename", (0, 1), mutates=True, ring=True),
        Syscall("symlink", (1,), mutates=True, ring=True, stores=(0,)),
        Syscall("readlink", (0,)),
        Syscall("link", (0, 1), mutates=True, ring=True),
        Syscall("stat", (0,), ring=True),
        Syscall("lstat", (0,), ring=True),
        Syscall("exists", (0,), ring=True),
        Syscall("listdir", (0,), ring=True),
        Syscall("scandir", (0,), ring=True),
        Syscall("readdirplus", (0,), ring=True),
        Syscall("truncate", (0,), mutates=True, ring=True),
        Syscall("chmod", (0,), mutates=True),
        Syscall("chown", (0,), mutates=True),
        Syscall("set_acl", (0,), mutates=True),
        Syscall("setxattr", (0,), mutates=True),
        Syscall("getxattr", (0,), ring=True),
        Syscall("listxattr", (0,)),
        Syscall("removexattr", (0,), mutates=True),
        Syscall("mount", (0,), mutates=True),
        Syscall("bind_mount", (0, 1), mutates=True),
        Syscall("umount", (0,), mutates=True),
        Syscall("io_uring_setup"),
        Syscall("inotify_init"),
        Syscall("inotify_add_watch", (1,), ring=True),
        Syscall("inotify_read"),
        Syscall("epoll_create"),
        Syscall("epoll_ctl"),
        Syscall("epoll_wait"),
        Syscall("walk", (0,)),
    )
}


class Syscalls:
    """A process's system-call interface to one VFS."""

    def __init__(
        self,
        vfs: VirtualFileSystem,
        *,
        cred: Credentials = ROOT,
        ns: MountNamespace | None = None,
        meter: SyscallMeter | None = None,
        cwd: str = "/",
    ) -> None:
        self.vfs = vfs
        self.cred = cred
        self.ns = ns or vfs.root_ns
        self.meter = meter or SyscallMeter()
        self._cwd = cwd
        self._fds: dict[int, FileHandle] = {}
        self._next_fd = 3
        #: Owning-process identity, stamped by the process table at
        #: registration; 0/"" for bare contexts (test harnesses, shells).
        #: Diagnostics only (yancrace names racing parties with these).
        self.owner_pid = 0
        self.owner_name = ""
        #: Lexical (cwd, path) -> absolute-path memo.  _abspath is a pure
        #: string function, so the memo needs no invalidation — only a size
        #: bound against pathological workloads.
        self._abs_memo: dict[tuple[str, str], str] = {}
        self._ring: "IoUring | None" = None

    def spawn(
        self,
        *,
        cred: Credentials | None = None,
        ns: MountNamespace | None = None,
        meter: SyscallMeter | None = None,
        cwd: str | None = None,
    ) -> "Syscalls":
        """Fork-like: a new process context on the same VFS.

        The child gets its own fd table and (by default) its own meter;
        credentials, namespace, and cwd are inherited unless overridden.
        """
        child = Syscalls(
            self.vfs,
            cred=cred or self.cred,
            ns=ns or self.ns,
            meter=meter or SyscallMeter(model=self.meter.model),
            cwd=cwd or self._cwd,
        )
        if _tracing:
            _publish("spawn", self, child)
        return child

    # -- path handling ------------------------------------------------------------

    def _abspath(self, path: str) -> str:
        """Make ``path`` absolute and canonical without resolving ``..``.

        Both branches collapse ``//`` and ``.`` so equivalent spellings
        produce one key; ``..`` is preserved for the VFS walk, which
        resolves it physically (mount- and symlink-aware).  Lexically
        collapsing ``..`` here would mis-resolve any path whose prefix
        crosses a symlink (e.g. ``../x`` from a symlinked cwd).
        """
        key = (self._cwd, path)
        cached = self._abs_memo.get(key)
        if cached is not None:
            return cached
        if path.startswith("/"):
            out = clean(path)
        else:
            out = clean(join(self._cwd, path))
        if len(self._abs_memo) >= 4096:
            self._abs_memo.clear()
        self._abs_memo[key] = out
        return out

    def _traced(self, op: str, method, *args, **kwargs):
        """Run ``method`` between the ``syscall`` trace point's events, ``paths`` read off ``op``'s row.

        A ``dir_fd`` open publishes the name joined to its directory's
        path, so every subscriber sees the path it would see without one.
        """
        dir_fd = kwargs.get("dir_fd")
        if dir_fd is not None:
            handle = self._fds.get(dir_fd)
            paths = (f"{handle.path.rstrip('/')}/{args[0]}" if isinstance(handle, DirHandle) else args[0],)
        else:
            paths = tuple([self._abspath(args[i]) for i in SYSCALLS[op].paths])
        return _around("syscall", (self, op, paths, args), method, *args, **kwargs)

    def getcwd(self) -> str:
        """Current working directory."""
        return self._cwd

    def chdir(self, path: str) -> None:
        """Change working directory (must resolve to a directory).

        The cwd is stored as :meth:`_abspath` spells it, ``..`` kept, so a
        relative path resolves under the directory this call checked.
        """
        if _tracing and _entering(self):
            return self._traced("chdir", self.chdir, path)
        self.meter.enter("chdir")
        path = self._abspath(path)
        from repro.vfs.inode import require_dir

        require_dir(self.vfs.resolve(self.ns, self.cred, path), path)
        self._cwd = path

    # -- descriptors ---------------------------------------------------------------

    def _handle(self, fd: int) -> FileHandle | DirHandle:
        try:
            return self._fds[fd]
        except KeyError:
            raise BadFileDescriptor(detail=f"fd {fd}") from None

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644, *, dir_fd: int | None = None) -> int:
        """open(2); returns a file descriptor (with ``O_DIRECTORY``, a directory's).

        With ``dir_fd``, a directory descriptor, it is openat(2): ``path`` is
        one name in that directory and no ancestor is walked again
        (:meth:`VirtualFileSystem.openat`); metered as ``openat``.
        """
        if _tracing and _entering(self):
            return self._traced("open", self.open, path, flags, mode, dir_fd=dir_fd)
        if dir_fd is None:
            self.meter.enter("open")
            handle = self.vfs.open(self.ns, self.cred, self._abspath(path), flags, mode)
        else:
            self.meter.enter("openat")
            dirfd = self._fds.get(dir_fd)
            if not isinstance(dirfd, DirHandle):
                raise (BadFileDescriptor if dirfd is None else NotADirectory)(detail=f"fd {dir_fd}")
            handle = self.vfs.openat(self.ns, self.cred, dirfd, path, flags, mode)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = handle
        return fd

    def close(self, fd: int) -> None:
        """close(2)."""
        if _tracing and _entering(self):
            return self._traced("close", self.close, fd)
        self.meter.enter("close")
        handle = self._fds.pop(fd, None)
        if handle is None:
            raise BadFileDescriptor(detail=f"fd {fd}")
        handle.close()

    def read(self, fd: int, size: int = -1) -> bytes:
        """read(2) from the descriptor's offset."""
        if _tracing and _entering(self):
            return self._traced("read", self.read, fd, size)
        handle = self._handle(fd)
        data = handle.read(size)
        self.meter.enter("read", nbytes=len(data))
        return data

    def write(self, fd: int, data: bytes) -> int:
        """write(2) at the descriptor's offset."""
        if _tracing and _entering(self):
            return self._traced("write", self.write, fd, data)
        self.meter.enter("write", nbytes=len(data))
        return self._handle(fd).write(data)

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        """pread(2)."""
        if _tracing and _entering(self):
            return self._traced("pread", self.pread, fd, size, offset)
        data = self._handle(fd).pread(size, offset)
        self.meter.enter("pread", nbytes=len(data))
        return data

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """pwrite(2)."""
        if _tracing and _entering(self):
            return self._traced("pwrite", self.pwrite, fd, data, offset)
        self.meter.enter("pwrite", nbytes=len(data))
        return self._handle(fd).pwrite(data, offset)

    def lseek(self, fd: int, offset: int) -> int:
        """lseek(2) (absolute only)."""
        if _tracing and _entering(self):
            return self._traced("lseek", self.lseek, fd, offset)
        self.meter.enter("lseek")
        return self._handle(fd).seek(offset)

    def ftruncate(self, fd: int, size: int) -> None:
        """ftruncate(2)."""
        if _tracing and _entering(self):
            return self._traced("ftruncate", self.ftruncate, fd, size)
        self.meter.enter("ftruncate")
        self._handle(fd).truncate(size)

    def fstat(self, fd: int) -> Stat:
        """fstat(2)."""
        if _tracing and _entering(self):
            return self._traced("fstat", self.fstat, fd)
        self.meter.enter("fstat")
        return self._handle(fd).inode.stat()

    # -- whole-file helpers (decompose into real syscalls for the meter) -----------

    def read_text(self, path: str) -> str:
        """open + read + close, decoded as UTF-8."""
        return self.read_bytes(path).decode()

    def read_bytes(self, path: str) -> bytes:
        """open + read + close."""
        fd = self.open(path, O_RDONLY)
        try:
            return self.read(fd)
        finally:
            self.close(fd)

    def write_text(self, path: str, text: str, *, append: bool = False) -> int:
        """open + write + close (the ``echo value > file`` idiom)."""
        return self.write_bytes(path, text.encode(), append=append)

    def write_bytes(self, path: str, data: bytes, *, append: bool = False) -> int:
        """open + write + close with raw bytes."""
        flags = O_WRONLY | O_CREAT | (O_APPEND if append else O_TRUNC)
        fd = self.open(path, flags)
        try:
            return self.write(fd, data)
        finally:
            self.close(fd)

    # -- namespace / tree operations -------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """mkdir(2)."""
        if _tracing and _entering(self):
            return self._traced("mkdir", self.mkdir, path, mode)
        self.meter.enter("mkdir")
        self.vfs.mkdir(self.ns, self.cred, self._abspath(path), mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """mkdir -p: create missing ancestors."""
        parts = [p for p in self._abspath(path).split("/") if p]
        current = ""
        for part in parts:
            current += "/" + part
            if not self.exists(current):
                self.mkdir(current, mode)

    def rmdir(self, path: str) -> None:
        """rmdir(2)."""
        if _tracing and _entering(self):
            return self._traced("rmdir", self.rmdir, path)
        self.meter.enter("rmdir")
        self.vfs.rmdir(self.ns, self.cred, self._abspath(path))

    def unlink(self, path: str) -> None:
        """unlink(2)."""
        if _tracing and _entering(self):
            return self._traced("unlink", self.unlink, path)
        self.meter.enter("unlink")
        self.vfs.unlink(self.ns, self.cred, self._abspath(path))

    def rename(self, oldpath: str, newpath: str) -> None:
        """rename(2)."""
        if _tracing and _entering(self):
            return self._traced("rename", self.rename, oldpath, newpath)
        self.meter.enter("rename")
        self.vfs.rename(self.ns, self.cred, self._abspath(oldpath), self._abspath(newpath))

    def symlink(self, target: str, linkpath: str) -> None:
        """symlink(2)."""
        if _tracing and _entering(self):
            return self._traced("symlink", self.symlink, target, linkpath)
        self.meter.enter("symlink")
        self.vfs.symlink(self.ns, self.cred, target, self._abspath(linkpath))

    def readlink(self, path: str) -> str:
        """readlink(2)."""
        if _tracing and _entering(self):
            return self._traced("readlink", self.readlink, path)
        self.meter.enter("readlink")
        return self.vfs.readlink(self.ns, self.cred, self._abspath(path))

    def link(self, oldpath: str, newpath: str) -> None:
        """link(2)."""
        if _tracing and _entering(self):
            return self._traced("link", self.link, oldpath, newpath)
        self.meter.enter("link")
        self.vfs.link(self.ns, self.cred, self._abspath(oldpath), self._abspath(newpath))

    def stat(self, path: str) -> Stat:
        """stat(2)."""
        if _tracing and _entering(self):
            return self._traced("stat", self.stat, path)
        self.meter.enter("stat")
        return self.vfs.stat(self.ns, self.cred, self._abspath(path))

    def lstat(self, path: str) -> Stat:
        """lstat(2)."""
        if _tracing and _entering(self):
            return self._traced("lstat", self.lstat, path)
        self.meter.enter("lstat")
        return self.vfs.lstat(self.ns, self.cred, self._abspath(path))

    def exists(self, path: str) -> bool:
        """access(2)-style existence probe."""
        if _tracing and _entering(self):
            return self._traced("exists", self.exists, path)
        self.meter.enter("access")
        return self.vfs.exists(self.ns, self.cred, self._abspath(path))

    def listdir(self, path: str) -> list[str]:
        """getdents(2): directory entry names."""
        if _tracing and _entering(self):
            return self._traced("listdir", self.listdir, path)
        self.meter.enter("getdents")
        return self.vfs.readdir(self.ns, self.cred, self._abspath(path))

    def scandir(self, path: str) -> list[tuple[str, Stat]]:
        """Batched getdents(2)+statx: entry names with lstat-style metadata.

        The §8.1 batching remedy for readdir-then-stat storms: one metered
        call replaces ``listdir`` plus an ``lstat`` per entry.
        """
        if _tracing and _entering(self):
            return self._traced("scandir", self.scandir, path)
        self.meter.enter("scandir")
        return self.vfs.scandir(self.ns, self.cred, self._abspath(path))

    def readdirplus(self, path: str) -> list[tuple[str, bytes | None]]:
        """Batched getdents(2)+read (NFSv3 READDIRPLUS): entry names with file contents.

        The §8.1 batching remedy for reading an object back one small
        file at a time: one metered call replaces ``listdir`` plus an
        open/read/close per entry, with every per-file permission check,
        fanotify gate and notify event kept.  Regular files carry their
        whole content; sub-directories and symlinks carry ``None``.
        """
        if _tracing and _entering(self):
            return self._traced("readdirplus", self.readdirplus, path)
        copied = 0
        try:
            entries = self.vfs.readdirplus(self.ns, self.cred, self._abspath(path))
            copied = sum(len(data) for _name, data in entries if data is not None)
            return entries
        finally:
            self.meter.enter("readdirplus", nbytes=copied)  # a refused crossing is still a crossing

    def truncate(self, path: str, size: int) -> None:
        """truncate(2)."""
        if _tracing and _entering(self):
            return self._traced("truncate", self.truncate, path, size)
        self.meter.enter("truncate")
        self.vfs.truncate(self.ns, self.cred, self._abspath(path), size)

    def chmod(self, path: str, mode: int) -> None:
        """chmod(2)."""
        if _tracing and _entering(self):
            return self._traced("chmod", self.chmod, path, mode)
        self.meter.enter("chmod")
        self.vfs.chmod(self.ns, self.cred, self._abspath(path), mode)

    def chown(self, path: str, uid: int, gid: int) -> None:
        """chown(2)."""
        if _tracing and _entering(self):
            return self._traced("chown", self.chown, path, uid, gid)
        self.meter.enter("chown")
        self.vfs.chown(self.ns, self.cred, self._abspath(path), uid, gid)

    def set_acl(self, path: str, acl: Acl) -> None:
        """setfacl equivalent."""
        if _tracing and _entering(self):
            return self._traced("set_acl", self.set_acl, path, acl)
        self.meter.enter("setxattr")  # ACLs ride the xattr syscall on Linux
        self.vfs.set_acl(self.ns, self.cred, self._abspath(path), acl)

    def setxattr(self, path: str, name: str, value: bytes) -> None:
        """setxattr(2)."""
        if _tracing and _entering(self):
            return self._traced("setxattr", self.setxattr, path, name, value)
        self.meter.enter("setxattr")
        self.vfs.setxattr(self.ns, self.cred, self._abspath(path), name, value)

    def getxattr(self, path: str, name: str) -> bytes:
        """getxattr(2)."""
        if _tracing and _entering(self):
            return self._traced("getxattr", self.getxattr, path, name)
        self.meter.enter("getxattr")
        return self.vfs.getxattr(self.ns, self.cred, self._abspath(path), name)

    def listxattr(self, path: str) -> list[str]:
        """listxattr(2)."""
        if _tracing and _entering(self):
            return self._traced("listxattr", self.listxattr, path)
        self.meter.enter("listxattr")
        return self.vfs.listxattr(self.ns, self.cred, self._abspath(path))

    def removexattr(self, path: str, name: str) -> None:
        """removexattr(2)."""
        if _tracing and _entering(self):
            return self._traced("removexattr", self.removexattr, path, name)
        self.meter.enter("removexattr")
        self.vfs.removexattr(self.ns, self.cred, self._abspath(path), name)

    def mount(self, path: str, fs: Filesystem, *, source: str = "") -> None:
        """mount(2)."""
        if _tracing and _entering(self):
            return self._traced("mount", self.mount, path, fs, source=source)
        self.meter.enter("mount")
        self.vfs.mount(self.ns, self.cred, self._abspath(path), fs, source=source)

    def bind_mount(self, source_path: str, target_path: str) -> None:
        """mount(2) with MS_BIND."""
        if _tracing and _entering(self):
            return self._traced("bind_mount", self.bind_mount, source_path, target_path)
        self.meter.enter("mount")
        self.vfs.bind_mount(self.ns, self.cred, self._abspath(source_path), self._abspath(target_path))

    def umount(self, path: str) -> None:
        """umount(2)."""
        if _tracing and _entering(self):
            return self._traced("umount", self.umount, path)
        self.meter.enter("umount")
        self.vfs.umount(self.ns, self.cred, self._abspath(path))

    # -- batched submission (§8.1: amortize the kernel crossing) -----------------------

    def io_uring_setup(self, entries: int = 256) -> "IoUring":
        """io_uring_setup(2): create a submission ring.

        The ring shares this context's fd table and meter; queueing
        entries on a :meth:`~repro.vfs.uring.IoUring.batch` is free, and
        each :meth:`~repro.vfs.uring.IoUring.submit` costs exactly one
        metered ``io_uring_enter`` however many entries it carries.
        """
        if _tracing and _entering(self):
            return self._traced("io_uring_setup", self.io_uring_setup, entries)
        self.meter.enter("io_uring_setup")
        from repro.vfs.uring import IoUring

        return IoUring(self, entries)

    @property
    def ring(self) -> "IoUring":
        """This context's submission ring, set up on first use (one ``io_uring_setup``, 1024 entries).

        Every batch the context opens on it crosses through it: a step
        that touches several files crosses once (§8.1), and the ring keeps
        each batch's room.
        """
        if self._ring is None:
            self._ring = self.io_uring_setup(entries=1024)
        return self._ring

    # -- notification ------------------------------------------------------------------

    def inotify_init(self, *, max_queued_events: int | None = None) -> Inotify:
        """inotify_init(2); the queue bound mirrors fs.inotify.max_queued_events."""
        if _tracing and _entering(self):
            return self._traced("inotify_init", self.inotify_init, max_queued_events=max_queued_events)
        self.meter.enter("inotify_init")
        return self.vfs.inotify(max_queued_events=max_queued_events)

    def inotify_add_watch(self, instance: Inotify, path: str, mask: EventMask) -> int:
        """inotify_add_watch(2): watch a path."""
        if _tracing and _entering(self):
            return self._traced("inotify_add_watch", self.inotify_add_watch, instance, path, mask)
        self.meter.enter("inotify_add_watch")
        inode = self.vfs.resolve(self.ns, self.cred, self._abspath(path))
        return instance.add_watch(inode, mask)

    def inotify_read(self, instance: Inotify) -> list[NotifyEvent]:
        """read(2) on the inotify descriptor: drain queued events."""
        if _tracing and _entering(self):
            return self._traced("inotify_read", self.inotify_read, instance)
        self.meter.enter("read")
        return instance.read()

    def epoll_create(self) -> Epoll:
        """epoll_create(2): a readiness set over notification descriptors."""
        if _tracing and _entering(self):
            return self._traced("epoll_create", self.epoll_create)
        self.meter.enter("epoll_create")
        return Epoll()

    def epoll_ctl(self, ep: Epoll, op: int, pollable: object, data: object | None = None) -> None:
        """epoll_ctl(2): add/remove a pollable; ``data`` rides the event."""
        if _tracing and _entering(self):
            return self._traced("epoll_ctl", self.epoll_ctl, ep, op, pollable, data)
        self.meter.enter("epoll_ctl")
        if op == EPOLL_CTL_ADD:
            ep.add(pollable, data)
        elif op == EPOLL_CTL_DEL:
            ep.remove(pollable)
        else:
            raise InvalidArgument(detail=f"unknown epoll_ctl op {op}")

    def epoll_wait(self, ep: Epoll) -> list[object]:
        """epoll_wait(2): the ``data`` of every ready pollable (no blocking)."""
        if _tracing and _entering(self):
            return self._traced("epoll_wait", self.epoll_wait, ep)
        self.meter.enter("epoll_wait")
        return ep.wait()

    # -- traversal ---------------------------------------------------------------------

    def walk(self, path: str) -> Iterator[tuple[str, list[str], list[str]]]:
        """os.walk equivalent (each directory visit is one getdents).

        A generator, so its trace events bracket the whole traversal —
        the caller's own syscalls between visits fall inside the pair.
        """
        abspath = self._abspath(path)
        info = (self, "walk", (abspath,), (path,))
        if _tracing:
            _publish("syscall_enter", *info)
        failure = None
        try:
            for dirpath, dirnames, filenames in self.vfs.walk(self.ns, self.cred, abspath):
                self.meter.enter("getdents")
                yield dirpath, dirnames, filenames
        except FsError as exc:
            failure = exc
            raise
        finally:
            if _tracing:
                _publish("syscall_exit", *info, None, failure)
