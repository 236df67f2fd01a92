"""Mount table and mount namespaces.

A :class:`MountNamespace` maps mountpoint directories to mounted file-system
roots.  Namespaces clone cheaply and can be *pivoted* so that an arbitrary
directory becomes ``/`` — the mechanism the reproduction uses for the
paper's section 5.3: giving a tenant application a namespace whose root is
its own network view, so the rest of ``/net`` simply does not exist for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.vfs.dcache import DentryCache
from repro.vfs.errors import DeviceBusy, InvalidArgument, NotADirectory
from repro.vfs.inode import DirInode, Filesystem, Inode

_ns_counter = itertools.count(1)


@dataclass
class MountEntry:
    """One mount: a file system (or bind subtree) grafted onto a directory."""

    fs: Filesystem
    root: DirInode
    mountpoint: DirInode | None  # None for the namespace root
    source: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.root, DirInode):
            raise NotADirectory(self.source, "mount root must be a directory")


class MountNamespace:
    """A per-process view of what is mounted where."""

    def __init__(self, root_fs: Filesystem, root_node: DirInode | None = None, *, name: str = "") -> None:
        self.ns_id = next(_ns_counter)
        self.name = name or f"ns{self.ns_id}"
        self.root_entry = MountEntry(fs=root_fs, root=root_node or root_fs.root, mountpoint=None, source=root_fs.fs_type)
        self._mounts: dict[int, MountEntry] = {}
        #: Per-namespace resolution memo.  Results sit on the far side of
        #: mount crossings, so every mount-table change below flushes it;
        #: clones and pivots start empty (a fresh namespace, a fresh memo).
        self.dcache = DentryCache()

    def mounts(self) -> list[MountEntry]:
        """All non-root mounts in this namespace."""
        return list(self._mounts.values())

    def mount(self, mountpoint: Inode, fs: Filesystem, *, root: DirInode | None = None, source: str = "") -> MountEntry:
        """Graft ``fs`` (or a bind subtree ``root`` of it) onto ``mountpoint``."""
        if not isinstance(mountpoint, DirInode):
            raise NotADirectory(source, "mountpoint must be a directory")
        if id(mountpoint) in self._mounts:
            raise DeviceBusy(source, "mountpoint already in use")
        entry = MountEntry(fs=fs, root=root or fs.root, mountpoint=mountpoint, source=source or fs.fs_type)
        self._mounts[id(mountpoint)] = entry
        self.dcache.flush()
        return entry

    def bind(self, mountpoint: Inode, subtree: DirInode, *, source: str = "bind") -> MountEntry:
        """Bind-mount an existing directory onto ``mountpoint``."""
        return self.mount(mountpoint, subtree.fs, root=subtree, source=source)

    def umount(self, mountpoint: Inode) -> MountEntry:
        """Remove the mount at ``mountpoint``; raises InvalidArgument if none."""
        entry = self._mounts.pop(id(mountpoint), None)
        if entry is None:
            raise InvalidArgument(detail="not a mountpoint")
        self.dcache.flush()
        return entry

    def mount_at(self, node: Inode) -> MountEntry | None:
        """The mount whose mountpoint is ``node``, if any."""
        return self._mounts.get(id(node))

    def cross(self, node: Inode) -> Inode:
        """``node`` as a path sees it: the root of the topmost mount stacked on it, else ``node`` itself."""
        mounts = self._mounts
        mount = mounts.get(id(node))
        while mount is not None:
            node = mount.root
            mount = mounts.get(id(node))
        return node

    def clone(self, *, name: str = "") -> "MountNamespace":
        """Copy this namespace (CLONE_NEWNS): same mounts, independent table."""
        ns = MountNamespace(self.root_entry.fs, self.root_entry.root, name=name)
        ns._mounts = dict(self._mounts)
        return ns

    def pivoted(self, new_root: DirInode, *, name: str = "") -> "MountNamespace":
        """A clone whose ``/`` is ``new_root`` (pivot_root + CLONE_NEWNS).

        Mounts below the new root remain visible; everything else is
        unreachable, which is the isolation property views rely on.
        """
        ns = MountNamespace(new_root.fs, new_root, name=name)
        ns._mounts = dict(self._mounts)
        return ns
