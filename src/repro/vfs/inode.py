"""The inode layer: nodes, dentries, and the filesystem base class.

A :class:`Filesystem` owns a tree of :class:`Inode` objects.  The three
concrete node kinds mirror what the yanc design needs: directories
(:class:`DirInode`), regular files (:class:`FileInode`), and symbolic links
(:class:`SymlinkInode`).  File system types — tmpfs (:mod:`repro.vfs.memfs`),
yancfs (:mod:`repro.yancfs`), the distributed-FS client — subclass these and
override the ``may_*`` policy hooks and the node factories to attach
semantics to plain file operations, exactly the trick FUSE lets the paper's
prototype play.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Iterator

from repro.perf.tracepoints import publish as _publish
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.acl import Acl
from repro.vfs.cred import Credentials
from repro.vfs.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoData,
    NotADirectory,
    NotSupported,
)
from repro.vfs.notify import EventMask
from repro.vfs.stat import (
    DEFAULT_DIR_MODE,
    DEFAULT_FILE_MODE,
    FileType,
    Stat,
)

if TYPE_CHECKING:
    from repro.vfs.notify import NotifyHub

_NAME_MAX = 255
_dev_counter = itertools.count(1)

def validate_name(name: str) -> str:
    """Reject names no POSIX file system would accept."""
    if not name or name in (".", ".."):
        raise InvalidArgument(name, "invalid file name")
    if "/" in name or "\x00" in name:
        raise InvalidArgument(name, "name contains '/' or NUL")
    if len(name) > _NAME_MAX:
        raise NameTooLong(name)
    return name


class Filesystem:
    """A mountable file system instance.

    Subclasses override the ``*_class`` attributes (or :meth:`make_dir`,
    :meth:`make_file`, :meth:`make_symlink`) to substitute semantic node
    types, and may set ``readonly``.
    """

    fs_type = "none"

    #: Whether a resolution that traverses this file system's directories
    #: may be memoized (:mod:`repro.vfs.dcache`).  A served memo entry reads
    #: the directory's children without calling ``lookup``, so a file system
    #: whose ``lookup`` has side effects (e.g. the distributed-FS client,
    #: which refreshes over RPC inside it) must set this False.
    cacheable = True

    def __init__(self, *, clock: Callable[[], float] | None = None, readonly: bool = False) -> None:
        self.dev = next(_dev_counter)
        self.readonly = readonly
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._ino_counter = itertools.count(1)
        self.hub: "NotifyHub | None" = None  # set by the VFS at mount time
        self.root: DirInode = self.make_root()

    def make_root(self) -> "DirInode":
        """Create the root directory node.  Subclasses may override."""
        return self.make_dir(mode=DEFAULT_DIR_MODE, uid=0, gid=0)

    def next_ino(self) -> int:
        """Allocate the next inode number."""
        return next(self._ino_counter)

    def make_dir(self, *, mode: int = DEFAULT_DIR_MODE, uid: int = 0, gid: int = 0) -> "DirInode":
        """Create a detached directory node."""
        return DirInode(self, mode=mode, uid=uid, gid=gid)

    def make_file(self, *, mode: int = DEFAULT_FILE_MODE, uid: int = 0, gid: int = 0) -> "FileInode":
        """Create a detached regular-file node."""
        return FileInode(self, mode=mode, uid=uid, gid=gid)

    def make_symlink(self, target: str, *, uid: int = 0, gid: int = 0) -> "SymlinkInode":
        """Create a detached symlink node."""
        return SymlinkInode(self, target, uid=uid, gid=gid)

    def now(self) -> float:
        """Current time for timestamp updates."""
        return self.clock()

    def emit(self, inode: "Inode", mask: int, name: str | None = None, cookie: int = 0) -> None:
        """Publish a notify event for ``inode`` (no-op when unmounted)."""
        if self.hub is not None:
            self.hub.emit(inode, mask, name=name, cookie=cookie)

    def emit_dirent(self, parent: "Inode", child: "Inode", mask: int, name: str, cookie: int = 0) -> None:
        """Publish a directory-entry event (no-op when unmounted)."""
        if self.hub is not None:
            self.hub.emit_dirent(parent, child, mask, name, cookie=cookie)


class Inode:
    """Base node: identity, ownership, permissions, timestamps, xattrs."""

    ftype: FileType

    def __init__(self, fs: Filesystem, *, mode: int, uid: int, gid: int) -> None:
        self.fs = fs
        self.ino = fs.next_ino()
        self.mode = mode & 0o7777
        self.uid = uid
        self.gid = gid
        now = fs.now()
        self.atime = now
        self.mtime = now
        self.ctime = now
        self.xattrs: dict[str, bytes] = {}
        self.acl: Acl | None = None
        self.nlink = 1
        #: dentries referencing this node: (parent directory, name) pairs.
        self.dentries: set[tuple["DirInode", str]] = set()

    @property
    def size(self) -> int:
        """Size in bytes (0 for directories with no better answer)."""
        return 0

    @property
    def is_dir(self) -> bool:
        """True for directory nodes."""
        return self.ftype is FileType.DIRECTORY

    def stat(self) -> Stat:
        """Snapshot this node's metadata."""
        return Stat(
            ino=self.ino,
            ftype=self.ftype,
            mode=self.mode,
            uid=self.uid,
            gid=self.gid,
            size=self.size,
            nlink=self.nlink,
            atime=self.atime,
            mtime=self.mtime,
            ctime=self.ctime,
            dev=self.fs.dev,
        )

    def touch_mtime(self) -> None:
        """Update modification (and change) time to now."""
        now = self.fs.now()
        self.mtime = now
        self.ctime = now

    # -- extended attributes ------------------------------------------------

    def set_xattr(self, name: str, value: bytes) -> None:
        """Set extended attribute ``name``."""
        if not name:
            raise InvalidArgument(detail="empty xattr name")
        self.xattrs[name] = bytes(value)
        self.ctime = self.fs.now()

    def get_xattr(self, name: str) -> bytes:
        """Get extended attribute ``name``; raises NoData when absent."""
        try:
            return self.xattrs[name]
        except KeyError:
            raise NoData(detail=f"xattr {name!r}") from None

    def remove_xattr(self, name: str) -> None:
        """Remove extended attribute ``name``; raises NoData when absent."""
        if name not in self.xattrs:
            raise NoData(detail=f"xattr {name!r}")
        del self.xattrs[name]
        self.ctime = self.fs.now()

    def list_xattrs(self) -> list[str]:
        """All extended attribute names, sorted."""
        return sorted(self.xattrs)


class DirInode(Inode):
    """A directory: an ordered name -> inode mapping plus policy hooks."""

    ftype = FileType.DIRECTORY

    def __init__(self, fs: Filesystem, *, mode: int, uid: int, gid: int) -> None:
        super().__init__(fs, mode=mode, uid=uid, gid=gid)
        self._children: dict[str, Inode] = {}
        self.nlink = 2  # "." and the parent's entry

    @property
    def size(self) -> int:
        return len(self._children)

    def lookup(self, name: str) -> Inode:
        """Find the child called ``name``; raises FileNotFound."""
        try:
            return self._children[name]
        except KeyError:
            raise FileNotFound(name) from None

    def has_child(self, name: str) -> bool:
        """True if a child called ``name`` exists."""
        return name in self._children

    def names(self) -> list[str]:
        """Child names in creation order."""
        return list(self._children)

    def children(self) -> Iterator[tuple[str, Inode]]:
        """Iterate (name, inode) pairs in creation order."""
        return iter(list(self._children.items()))

    def is_empty(self) -> bool:
        """True when the directory has no entries."""
        return not self._children

    # -- policy hooks (overridden by semantic file systems) ------------------

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        """Veto hook before a child is created.  Raise to reject."""

    def may_remove(self, name: str, node: Inode, cred: Credentials) -> None:
        """Veto hook before a child is removed.  Raise to reject."""

    def may_rename_from(self, name: str, node: Inode, cred: Credentials) -> None:
        """Veto hook before a child is renamed away.  Raise to reject."""

    def may_rename_into(self, name: str, node: Inode, cred: Credentials) -> None:
        """Veto hook before a node is renamed into this directory."""

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        """Build the node that mkdir/create will attach.

        Semantic file systems override this to return subclassed nodes (the
        yanc "semantic mkdir" of paper section 3.1).
        """
        if ftype is FileType.DIRECTORY:
            return self.fs.make_dir(mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)
        if ftype is FileType.REGULAR:
            return self.fs.make_file(mode=DEFAULT_FILE_MODE, uid=cred.uid, gid=cred.gid)
        raise NotSupported(name, "child_factory cannot build this type")

    def on_child_attached(self, name: str, node: Inode) -> None:
        """Post hook after a child is linked in (semantic population point)."""

    def on_child_detached(self, name: str, node: Inode) -> None:
        """Post hook after a child is unlinked."""

    def recursive_rmdir_ok(self) -> bool:
        """If True, rmdir on this directory removes its subtree.

        Plain POSIX directories return False (ENOTEMPTY applies); yanc
        object directories return True (paper section 3.2: "the rmdir()
        call for switches is automatically recursive").
        """
        return False

    # -- structural operations ------------------------------------------------

    def attach(self, name: str, node: Inode, *, emit_mask: int | None = int(EventMask.IN_CREATE), cookie: int = 0) -> None:
        """Link ``node`` in as ``name`` (low level; no permission checks).

        Emits ``emit_mask`` (IN_CREATE by default; IN_MOVED_TO for the
        rename path; None to suppress) so that semantic auto-population
        inside hooks generates watchable events with no extra code —
        the paper's "comes free" property (section 5.2).
        """
        validate_name(name)
        if name in self._children:
            raise FileExists(name)
        if node.is_dir and node.dentries:
            raise InvalidArgument(name, "directories cannot be hard-linked")
        self._children[name] = node
        node.dentries.add((self, name))
        if node.is_dir:
            self.nlink += 1  # the child's ".."
        else:
            node.nlink = len(node.dentries)
        self.touch_mtime()
        if emit_mask is not None:
            self.fs.emit_dirent(self, node, emit_mask, name, cookie=cookie)
        self.on_child_attached(name, node)

    def detach(self, name: str, *, emit_mask: int | None = int(EventMask.IN_DELETE), cookie: int = 0) -> Inode:
        """Unlink child ``name`` and return it (low level)."""
        try:
            node = self._children[name]
        except KeyError:
            raise FileNotFound(name) from None
        del self._children[name]
        node.dentries.discard((self, name))
        if node.is_dir:
            self.nlink -= 1
            node.nlink = 0 if not node.dentries else node.nlink
        else:
            node.nlink = len(node.dentries)
        self.touch_mtime()
        if emit_mask is not None:
            self.fs.emit_dirent(self, node, emit_mask, name, cookie=cookie)
            if not node.dentries:
                self.fs.emit(node, EventMask.IN_DELETE_SELF)
        self.on_child_detached(name, node)
        return node


    def remove_subtree(self) -> None:
        """Detach every descendant, depth first (the ``rm -r`` event stream)."""
        for name, child in self.children():
            if isinstance(child, DirInode):
                child.remove_subtree()
            self.detach(name)


class FileInode(Inode):
    """A regular file holding bytes."""

    ftype = FileType.REGULAR

    def __init__(self, fs: Filesystem, *, mode: int, uid: int, gid: int) -> None:
        super().__init__(fs, mode=mode, uid=uid, gid=gid)
        self._data = bytearray()

    @property
    def size(self) -> int:
        return len(self._data)

    def read(self, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes starting at ``offset``."""
        if offset < 0 or size < 0:
            raise InvalidArgument(detail="negative offset or size")
        self.atime = self.fs.now()
        return bytes(self._data[offset : offset + size])

    def read_all(self) -> bytes:
        """Read the whole file."""
        return self.read(0, len(self._data))

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset`` (zero-filling any gap); return count."""
        if offset < 0:
            raise InvalidArgument(detail="negative offset")
        if offset > len(self._data):
            self._data.extend(b"\x00" * (offset - len(self._data)))
        self._data[offset : offset + len(data)] = data
        self.touch_mtime()
        self.fs.emit(self, EventMask.IN_MODIFY)
        return len(data)

    def truncate(self, size: int) -> None:
        """Cut or zero-extend the file to ``size`` bytes."""
        if size < 0:
            raise InvalidArgument(detail="negative truncate size")
        if size < len(self._data):
            del self._data[size:]
        else:
            self._data.extend(b"\x00" * (size - len(self._data)))
        self.touch_mtime()
        self.fs.emit(self, EventMask.IN_MODIFY)

    def set_content(self, data: bytes) -> None:
        """Replace the whole content (used by semantic attribute files)."""
        if _tracing:
            _publish("set_content", self, data)  # before the store: the old content is still readable
        self._data = bytearray(data)
        self.touch_mtime()
        self.fs.emit(self, EventMask.IN_MODIFY)

    def on_close_write(self, cred: Credentials) -> None:
        """Hook invoked when a writable handle is closed.

        yanc attribute files validate and apply their new content here,
        matching the write-then-close idiom of ``echo 1 > config.port_down``.
        """


class SymlinkInode(Inode):
    """A symbolic link."""

    ftype = FileType.SYMLINK

    def __init__(self, fs: Filesystem, target: str, *, uid: int, gid: int) -> None:
        super().__init__(fs, mode=0o777, uid=uid, gid=gid)
        if not target:
            raise InvalidArgument(detail="empty symlink target")
        self.target = target

    @property
    def size(self) -> int:
        return len(self.target)


def require_dir(node: Inode, path: str = "") -> DirInode:
    """Downcast to DirInode or raise NotADirectory."""
    if not isinstance(node, DirInode):
        raise NotADirectory(path)
    return node


def require_file(node: Inode, path: str = "") -> FileInode:
    """Downcast to FileInode or raise the right POSIX error."""
    if isinstance(node, DirInode):
        raise IsADirectory(path)
    if not isinstance(node, FileInode):
        raise InvalidArgument(path, "not a regular file")
    return node
