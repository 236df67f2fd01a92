"""The remote-FS client: a mountable Filesystem backed by RPC.

Mount a :class:`RemoteFs` anywhere in a host's tree and every application
on that host transparently operates on the server's subtree — mounted
over ``/net``, a whole controller machine works against another machine's
yanc tree, which is the paper's distributed-controller construction (§6).

Consistency modes (the "varying trade-offs" of §6):

* ``strict`` — every operation refetches from the server;
* ``cached`` — close-to-open-ish: directory listings, attributes, and
  file contents are cached for ``cache_ttl`` seconds (NFS-flavoured;
  remote writers may be invisible until the TTL lapses);
* ``eventual`` — like ``cached``, plus write-behind: writes complete
  locally and reach the server on :meth:`RemoteFs.flush` (WheelFS-ish
  relaxed durability for latency-sensitive writers).

Fidelity notes: inotify events fire only for *local* mutations (real NFS
gives no remote change notification either), and client-side ``rmdir``
defers per-directory emptiness policy to the server entry by entry.
"""

from __future__ import annotations

from typing import Callable

from repro.distfs.rpc import RpcChannel
from repro.vfs.cred import Credentials
from repro.vfs.errors import InvalidArgument
from repro.vfs.inode import DirInode, FileInode, Filesystem, Inode, SymlinkInode
from repro.vfs.notify import EventMask
from repro.vfs.stat import FileType

_CONSISTENCY_MODES = ("strict", "cached", "eventual")


class RemoteFs(Filesystem):
    """A file system whose truth lives on a :class:`FileServer`."""

    fs_type = "remotefs"
    # Directory contents are refreshed over RPC inside lookup(), which a
    # served memo entry would skip: no resolution through here is memoized.
    cacheable = False

    def __init__(
        self,
        channel: RpcChannel,
        *,
        consistency: str = "strict",
        cache_ttl: float = 0.5,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if consistency not in _CONSISTENCY_MODES:
            raise InvalidArgument(detail=f"unknown consistency mode {consistency!r}")
        self.channel = channel
        self.consistency = consistency
        self.cache_ttl = cache_ttl
        self._dirty: dict[str, "RemoteFile"] = {}
        super().__init__(clock=clock)

    def make_root(self) -> "RemoteDir":
        return RemoteDir(self, "", mode=0o755, uid=0, gid=0)

    def make_symlink(self, target: str, *, uid: int = 0, gid: int = 0) -> "RemoteSymlink":
        node = RemoteSymlink(self, "", target, uid=uid, gid=gid)
        node._remote_exists = False
        return node

    # -- caching policy ---------------------------------------------------------------

    def cache_fresh(self, fetched_at: float) -> bool:
        """Is data fetched at ``fetched_at`` still servable?"""
        if self.consistency == "strict":
            return False
        return self.now() - fetched_at < self.cache_ttl

    @property
    def write_behind(self) -> bool:
        """True in eventual mode: writes buffer locally until flush."""
        return self.consistency == "eventual"

    def flush(self) -> int:
        """Push buffered writes to the server; returns files flushed."""
        flushed = 0
        for rpath, node in list(self._dirty.items()):
            self.channel.call("write", rpath, node.content_bytes())
            node.dirty = False
            node._remote_exists = True
            flushed += 1
            del self._dirty[rpath]
        return flushed

    def invalidate(self) -> None:
        """Drop every cache (force refetch on next access)."""
        self._invalidate_node(self.root)

    def _invalidate_node(self, node: Inode) -> None:
        if isinstance(node, RemoteDir):
            node._fetched_at = float("-inf")
            for _name, child in node.children():
                self._invalidate_node(child)
        elif isinstance(node, RemoteFile):
            node._cached_at = float("-inf")


class _RemoteNode:
    """Mixin: a node mirroring one remote path.

    Extended attributes pass through to the server (so §5.1 consistency
    tags set anywhere are authoritative on the master).
    """

    fs: RemoteFs
    rpath: str
    _remote_exists: bool
    _move_src: str | None

    def set_xattr(self, name: str, value: bytes) -> None:
        self.fs.channel.call("setxattr", self.rpath, name, bytes(value))
        if name == "user.consistency" and isinstance(self, RemoteFile):
            self.consistency_override = value.decode()

    def get_xattr(self, name: str) -> bytes:
        return self.fs.channel.call("getxattr", self.rpath, name)

    def list_xattrs(self) -> list[str]:
        return list(self.fs.channel.call("listxattr", self.rpath))


class RemoteDir(_RemoteNode, DirInode):
    """A directory proxy with TTL-cached listings."""

    def __init__(self, fs: RemoteFs, rpath: str, *, mode: int, uid: int, gid: int) -> None:
        super().__init__(fs, mode=mode, uid=uid, gid=gid)
        self.fs: RemoteFs = fs
        self.rpath = rpath
        self._remote_exists = True
        self._move_src: str | None = None
        self._fetched_at = float("-inf")

    def _child_rpath(self, name: str) -> str:
        return f"{self.rpath}/{name}" if self.rpath else name

    def _refresh(self) -> None:
        if self.fs.cache_fresh(self._fetched_at):
            return
        entries = self.fs.channel.call("readdir", self.rpath)
        self._fetched_at = self.fs.now()
        remote_names = set()
        for name, ftype_value, mode, uid, gid, size, target, consistency in entries:
            remote_names.add(name)
            ftype = FileType(ftype_value)
            existing = self._children.get(name)
            if existing is not None and existing.ftype is ftype:
                existing.mode, existing.uid, existing.gid = mode, uid, gid
                if isinstance(existing, RemoteFile):
                    existing._remote_size = size
                    existing.consistency_override = consistency
                continue
            node = self._make_proxy(name, ftype, mode, uid, gid, size, target)
            if isinstance(node, RemoteFile):
                node.consistency_override = consistency
            if existing is not None:
                super().detach(name, emit_mask=None)
            self._children[name] = node
            node.dentries.add((self, name))
        for name in list(self._children):
            child = self._children[name]
            if name not in remote_names and getattr(child, "_remote_exists", True):
                if not (isinstance(child, RemoteFile) and child.dirty):
                    super().detach(name, emit_mask=None)

    def _make_proxy(self, name: str, ftype: FileType, mode: int, uid: int, gid: int, size: int, target: str) -> Inode:
        rpath = self._child_rpath(name)
        if ftype is FileType.DIRECTORY:
            return RemoteDir(self.fs, rpath, mode=mode, uid=uid, gid=gid)
        if ftype is FileType.SYMLINK:
            node = RemoteSymlink(self.fs, rpath, target or ".", uid=uid, gid=gid)
            return node
        proxy = RemoteFile(self.fs, rpath, mode=mode, uid=uid, gid=gid)
        proxy._remote_size = size
        return proxy

    # -- reads go through the cache ---------------------------------------------------

    def lookup(self, name: str) -> Inode:
        self._refresh()
        return super().lookup(name)

    def has_child(self, name: str) -> bool:
        self._refresh()
        return super().has_child(name)

    def names(self) -> list[str]:
        self._refresh()
        return super().names()

    def children(self):
        self._refresh()
        return super().children()

    def is_empty(self) -> bool:
        self._refresh()
        return super().is_empty()

    def recursive_rmdir_ok(self) -> bool:
        # Per-entry emptiness policy is the server's call (see module docs).
        return True

    # -- writes go through RPC -----------------------------------------------------------

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        rpath = self._child_rpath(name)
        if ftype is FileType.DIRECTORY:
            node = RemoteDir(self.fs, rpath, mode=0o755, uid=cred.uid, gid=cred.gid)
        elif ftype is FileType.REGULAR:
            node = RemoteFile(self.fs, rpath, mode=0o644, uid=cred.uid, gid=cred.gid)
        else:
            raise InvalidArgument(name, "use make_symlink for symlinks")
        node._remote_exists = False
        return node

    def attach(self, name: str, node: Inode, *, emit_mask: int | None = int(EventMask.IN_CREATE), cookie: int = 0) -> None:
        rpath = self._child_rpath(name)
        move_src = getattr(node, "_move_src", None)
        if move_src is not None:
            self.fs.channel.call("rename", move_src, rpath)
            node._move_src = None  # type: ignore[attr-defined]
        elif not getattr(node, "_remote_exists", True):
            if isinstance(node, RemoteDir):
                self.fs.channel.call("mkdir", rpath)
                node._remote_exists = True
            elif isinstance(node, RemoteSymlink):
                self.fs.channel.call("symlink", rpath, node.target)
                node._remote_exists = True
            # RemoteFile creation is deferred to the first content push:
            # the server sees one write RPC carrying the whole content, so
            # server-side close validation judges the real content, never
            # a transient empty file.
        if hasattr(node, "rpath"):
            _rebase_rpaths(node, rpath)
        super().attach(name, node, emit_mask=emit_mask, cookie=cookie)
        self._fetched_at = float("-inf")

    def detach(self, name: str, *, emit_mask: int | None = int(EventMask.IN_DELETE), cookie: int = 0) -> Inode:
        if name not in self._children:
            self._refresh()
        node = super().lookup(name)
        rpath = self._child_rpath(name)
        if emit_mask is not None and EventMask(emit_mask) & EventMask.IN_MOVED_FROM:
            node._move_src = rpath  # type: ignore[attr-defined]
        elif emit_mask is not None:
            if isinstance(node, DirInode):
                self.fs.channel.call("rmdir", rpath)
            elif getattr(node, "_remote_exists", True):
                self.fs.channel.call("unlink", rpath)
            self.fs._dirty.pop(rpath, None)
        result = super().detach(name, emit_mask=emit_mask, cookie=cookie)
        self._fetched_at = float("-inf")
        return result


def _rebase_rpaths(node: Inode, rpath: str) -> None:
    """Point a proxy (and, for directories, its cached subtree) at a new
    remote path — the client-side half of a rename."""
    node.rpath = rpath  # type: ignore[attr-defined]
    if isinstance(node, RemoteDir):
        # walk the *cached* children only (no refresh RPCs mid-rename)
        for name, child in list(node._children.items()):
            if hasattr(child, "rpath"):
                _rebase_rpaths(child, f"{rpath}/{name}")


class RemoteFile(_RemoteNode, FileInode):
    """A file proxy: TTL-cached content, write-through or write-behind."""

    def __init__(self, fs: RemoteFs, rpath: str, *, mode: int, uid: int, gid: int) -> None:
        super().__init__(fs, mode=mode, uid=uid, gid=gid)
        self.fs: RemoteFs = fs
        self.rpath = rpath
        self._remote_exists = True
        self._move_src: str | None = None
        self._cached_at = float("-inf")
        self._remote_size = 0
        self.dirty = False
        #: The file's ``user.consistency`` xattr (§5.1): "strict" forces
        #: refetch-on-read for this file even under a cached mount.
        self.consistency_override = ""

    @property
    def size(self) -> int:
        if self.dirty or self._cache_ok():
            return len(self._data)
        return self._remote_size

    def content_bytes(self) -> bytes:
        """The local (possibly dirty) content."""
        return bytes(self._data)

    def _cache_ok(self) -> bool:
        if self.consistency_override == "strict":
            return False
        return self.fs.cache_fresh(self._cached_at)

    def _ensure_content(self) -> None:
        if self.dirty or self._cache_ok():
            return
        if self._remote_exists:
            data = self.fs.channel.call("read", self.rpath)
            self._data = bytearray(data)
            self._remote_size = len(data)
        self._cached_at = self.fs.now()

    def read(self, offset: int, size: int) -> bytes:
        self._ensure_content()
        return super().read(offset, size)

    def write(self, offset: int, data: bytes) -> int:
        self._ensure_content()
        written = super().write(offset, data)
        self._push()
        return written

    def truncate(self, size: int) -> None:
        self._ensure_content()
        super().truncate(size)
        self._push()

    def _push(self) -> None:
        self._cached_at = self.fs.now()
        self._remote_size = len(self._data)
        if self.fs.write_behind:
            self.dirty = True
            self.fs._dirty[self.rpath] = self
            return
        self.fs.channel.call("write", self.rpath, bytes(self._data))
        self._remote_exists = True


class RemoteSymlink(_RemoteNode, SymlinkInode):
    """A symlink proxy."""

    def __init__(self, fs: RemoteFs, rpath: str, target: str, *, uid: int, gid: int) -> None:
        super().__init__(fs, target, uid=uid, gid=gid)
        self.fs: RemoteFs = fs
        self.rpath = rpath
        self._remote_exists = True
        self._move_src: str | None = None
