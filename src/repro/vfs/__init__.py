"""The in-memory virtual file system (the reproduction's Linux VFS).

Public surface:

* :class:`VirtualFileSystem` — the kernel side (one per simulated host).
* :class:`Syscalls` — the metered per-process facade applications use.
* :class:`MemFs` — tmpfs; :class:`Filesystem` and the inode classes are the
  extension points semantic file systems (yancfs, distfs) subclass.
* :class:`MountNamespace` — per-process mount tables (isolation, §5.3).
* :mod:`repro.vfs.notify` — inotify-style monitoring (§5.2).
* :mod:`repro.vfs.acl` — POSIX ACLs (§5.1).
"""

from repro.vfs.acl import Acl, AclEntry, AclTag
from repro.vfs.cred import ROOT, Credentials
from repro.vfs.dcache import DentryCache
from repro.vfs.fanotify import FanEvent, FanMask, FanotifyGroup, FanotifyRegistry
from repro.vfs.errors import (
    BadFileDescriptor,
    CrossDevice,
    DeviceBusy,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FsError,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoData,
    NotADirectory,
    NotPermitted,
    NotSupported,
    PermissionDenied,
    ReadOnly,
    StaleHandle,
    TimedOut,
    TooManyLinks,
)
from repro.vfs.inode import (
    DirInode,
    FileInode,
    Filesystem,
    Inode,
    SymlinkInode,
)
from repro.vfs.memfs import MemFs
from repro.vfs.mount import MountEntry, MountNamespace
from repro.vfs.notify import IN_ALL_EVENTS, EventMask, Inotify, NotifyEvent, NotifyHub
from repro.vfs.poll import EPOLL_CTL_ADD, EPOLL_CTL_DEL, Epoll
from repro.vfs.stat import FileType, Stat, format_mode
from repro.vfs.syscalls import (
    O_APPEND,
    O_CREAT,
    O_DIRECTORY,
    O_EXCL,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    Syscalls,
)
from repro.vfs.uring import LINK_DIRFD, LINK_FD, Cqe, IoUring, Sqe
from repro.vfs.vfs import DirHandle, FileHandle, VirtualFileSystem

__all__ = [
    "Acl",
    "AclEntry",
    "AclTag",
    "ROOT",
    "Credentials",
    "DentryCache",
    "FanEvent",
    "FanMask",
    "FanotifyGroup",
    "FanotifyRegistry",
    "BadFileDescriptor",
    "CrossDevice",
    "DeviceBusy",
    "DirectoryNotEmpty",
    "FileExists",
    "FileNotFound",
    "FsError",
    "InvalidArgument",
    "IsADirectory",
    "NameTooLong",
    "NoData",
    "NotADirectory",
    "NotPermitted",
    "NotSupported",
    "PermissionDenied",
    "ReadOnly",
    "StaleHandle",
    "TimedOut",
    "TooManyLinks",
    "DirInode",
    "FileInode",
    "Filesystem",
    "Inode",
    "SymlinkInode",
    "MemFs",
    "MountEntry",
    "MountNamespace",
    "IN_ALL_EVENTS",
    "EventMask",
    "Inotify",
    "NotifyEvent",
    "NotifyHub",
    "EPOLL_CTL_ADD",
    "EPOLL_CTL_DEL",
    "Epoll",
    "FileType",
    "Stat",
    "format_mode",
    "O_APPEND",
    "O_CREAT",
    "O_DIRECTORY",
    "O_EXCL",
    "O_RDONLY",
    "O_RDWR",
    "O_TRUNC",
    "O_WRONLY",
    "Syscalls",
    "LINK_DIRFD",
    "LINK_FD",
    "Cqe",
    "IoUring",
    "Sqe",
    "DirHandle",
    "FileHandle",
    "VirtualFileSystem",
]
