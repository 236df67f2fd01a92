"""The syscall table: one row per public metered ``Syscalls`` method, true to the method.

Each row is checked against the call it describes: driving it on a
scratch tree publishes the row's paths on the ``syscall`` trace point,
costs the row's crossings, and changes the tree exactly when the row says
it mutates.  The ring accepts exactly the ring rows, and the cost model's
weights derived from the table are the literals it used to spell out.
"""

from __future__ import annotations

import inspect
import posixpath

import pytest

from repro.analysis.yancperf.model import PATH_RESOLVING, WEIGHTS
from repro.perf import tracepoints
from repro.vfs import EPOLL_CTL_ADD, ROOT, Acl, EventMask, InvalidArgument, MemFs, O_RDONLY, O_WRONLY
from repro.vfs.inode import DirInode, FileInode, SymlinkInode
from repro.vfs.syscalls import SYSCALLS, Syscalls
from repro.vfs.vfs import VirtualFileSystem

#: Public ``Syscalls`` methods that cross nothing: they read or copy the context.
_UNMETERED = {"getcwd", "spawn"}


def tree_state(vfs: VirtualFileSystem) -> dict[str, tuple]:
    """Everything a call can change, path by path: names, inodes, metadata, data.

    File systems are numbered in the order the walk meets them, so two
    kernels that did the same thing compare equal.
    """
    ns = vfs.root_ns
    out: dict[str, tuple] = {}
    devs: dict[int, int] = {}

    def visit(path: str) -> None:
        node = vfs.resolve(ns, ROOT, path, follow_last=False)
        dev = devs.setdefault(node.fs.dev, len(devs))
        state = (dev, node.ino, node.mode, node.uid, node.gid, node.acl, dict(node.xattrs))
        if isinstance(node, FileInode):
            state += (node.read_all(),)
        elif isinstance(node, SymlinkInode):
            state += (node.target,)
        out[path] = state
        if isinstance(node, DirInode):
            for name in vfs.readdir(ns, ROOT, path):
                visit(posixpath.join(path, name))

    visit("/")
    return out


class SyscallStream:
    """The ``syscall`` events one context publishes, as ``(op, paths, args)``."""

    def __init__(self, sc: Syscalls) -> None:
        self.sc = sc
        self.events: list[tuple[str, tuple, tuple]] = []

    def on_syscall_enter(self, sc, op, paths, args) -> None:
        if sc is self.sc:
            self.events.append((op, paths, args))


def _scratch() -> Syscalls:
    """A root context in ``/w``, holding ``f`` (5 bytes), ``sub/`` and ``mnt/``."""
    sc = Syscalls(VirtualFileSystem())
    for directory in ("/w", "/w/sub", "/w/mnt"):
        sc.mkdir(directory)
    sc.write_bytes("/w/f", b"hello")
    sc.chdir("/w")
    return sc


def _inotify(sc: Syscalls):
    return sc.inotify_init()


def _epoll(sc: Syscalls):
    ep = sc.epoll_create()
    sc.epoll_ctl(ep, EPOLL_CTL_ADD, _inotify(sc))
    return ep


def _after(_setup: object, *args: object) -> tuple:
    """``args``, once the setup call that is the first argument has run."""
    return args


#: op -> a function preparing the scratch context and returning the call's
#: arguments, relative paths wherever the call takes one.
_ARGS = {
    "chdir": lambda sc: ("sub",),
    "open": lambda sc: ("f", O_RDONLY, 0o644),
    "close": lambda sc: (sc.open("f"),),
    "read": lambda sc: (sc.open("f"), -1),
    "write": lambda sc: (sc.open("f", O_WRONLY), b"x"),
    "pread": lambda sc: (sc.open("f"), 2, 1),
    "pwrite": lambda sc: (sc.open("f", O_WRONLY), b"x", 1),
    "lseek": lambda sc: (sc.open("f"), 2),
    "ftruncate": lambda sc: (sc.open("f", O_WRONLY), 1),
    "fstat": lambda sc: (sc.open("f"),),
    "read_text": lambda sc: ("f",),
    "read_bytes": lambda sc: ("f",),
    "write_text": lambda sc: ("g", "x"),
    "write_bytes": lambda sc: ("g", b"x"),
    "mkdir": lambda sc: ("new", 0o755),
    "makedirs": lambda sc: ("a/b", 0o755),
    "rmdir": lambda sc: ("sub",),
    "unlink": lambda sc: ("f",),
    "rename": lambda sc: ("f", "g"),
    "symlink": lambda sc: ("f", "ln"),
    "readlink": lambda sc: _after(sc.symlink("f", "ln"), "ln"),
    "link": lambda sc: ("f", "h"),
    "stat": lambda sc: ("f",),
    "lstat": lambda sc: ("f",),
    "exists": lambda sc: ("f",),
    "listdir": lambda sc: (".",),
    "scandir": lambda sc: (".",),
    "readdirplus": lambda sc: (".",),
    "truncate": lambda sc: ("f", 1),
    "chmod": lambda sc: ("f", 0o600),
    "chown": lambda sc: ("f", 1, 1),
    "set_acl": lambda sc: ("f", Acl.from_mode(0o640)),
    "setxattr": lambda sc: ("f", "user.k", b"v"),
    "getxattr": lambda sc: _after(sc.setxattr("f", "user.k", b"v"), "f", "user.k"),
    "listxattr": lambda sc: ("f",),
    "removexattr": lambda sc: _after(sc.setxattr("f", "user.k", b"v"), "f", "user.k"),
    "mount": lambda sc: ("mnt", MemFs()),
    "bind_mount": lambda sc: ("sub", "mnt"),
    "umount": lambda sc: _after(sc.mount("mnt", MemFs()), "mnt"),
    "io_uring_setup": lambda sc: (8,),
    "inotify_init": lambda sc: (),
    "inotify_add_watch": lambda sc: (_inotify(sc), "f", EventMask.IN_MODIFY),
    "inotify_read": lambda sc: (_inotify(sc),),
    "epoll_create": lambda sc: (),
    "epoll_ctl": lambda sc: (_epoll(sc), EPOLL_CTL_ADD, _inotify(sc), None),
    "epoll_wait": lambda sc: (_epoll(sc),),
    "walk": lambda sc: ("sub",),
}


def test_every_public_metered_method_has_exactly_one_row():
    public = {name for name, value in vars(Syscalls).items() if not name.startswith("_") and inspect.isfunction(value)}
    assert set(SYSCALLS) == public - _UNMETERED
    assert all(row.name == op for op, row in SYSCALLS.items())
    assert set(_ARGS) == set(SYSCALLS)


def test_the_methods_without_a_row_cross_nothing():
    sc = Syscalls(VirtualFileSystem())
    sc.getcwd()
    sc.spawn()
    assert sc.meter.syscalls == 0


@pytest.mark.parametrize("op", sorted(SYSCALLS))
def test_a_row_is_what_its_call_does(op):
    row = SYSCALLS[op]
    sc = _scratch()
    args = _ARGS[op](sc)
    before = tree_state(sc.vfs)
    if row.fd:
        assert not row.paths and args[0] in sc._fds
    syscalls = sc.meter.syscalls
    recorder = SyscallStream(sc)
    tracepoints.subscribe(recorder)
    try:
        result = getattr(sc, op)(*args)
        if op == "walk":
            list(result)
    finally:
        tracepoints.unsubscribe(recorder)
    paths = tuple(posixpath.normpath(posixpath.join("/w", args[i])) for i in row.paths)
    if row.crossings > 1:
        # A composite: the primitives it issues publish, and the last of
        # them that takes a path takes the row's.
        assert [event for event in recorder.events if event[1]][-1][1] == paths
    else:
        assert recorder.events == [(op, paths, args)]
    if op == "makedirs":  # its crossings are per missing component, plus one probe per existing one
        assert sc.meter.syscalls - syscalls <= row.crossings * len(args[0].split("/")) + 1
    else:  # walk visits one directory here
        assert sc.meter.syscalls - syscalls == row.crossings
    assert row.writes(args) == (tree_state(sc.vfs) != before)
    for fd in list(sc._fds):
        sc.close(fd)


def test_a_symlink_stores_its_target_unresolved():
    sc = _scratch()
    sc.symlink("missing/../f", "ln")
    assert SYSCALLS["symlink"].stores == (0,)
    assert sc.readlink("ln") == "missing/../f"


def test_the_ring_accepts_exactly_the_ring_rows():
    batch = _scratch().io_uring_setup(entries=len(SYSCALLS)).batch()
    for op, row in SYSCALLS.items():
        if row.ring:
            batch.prep(op)
        else:
            with pytest.raises(InvalidArgument):
                batch.prep(op)
    for op in _UNMETERED | {"submit", "watch"}:
        with pytest.raises(InvalidArgument):
            batch.prep(op)
    assert len(batch._sq) == sum(row.ring for row in SYSCALLS.values())


# The cost model's weights, as they were spelled out before they were read
# off the table: the derivation must reproduce them name for name.
_LITERAL_WEIGHTS = {
    "open": 1, "close": 1, "read": 1, "write": 1, "pread": 1, "pwrite": 1, "lseek": 1, "ftruncate": 1, "fstat": 1,
    "read_text": 3, "read_bytes": 3, "write_text": 3, "write_bytes": 3,
    "chdir": 1, "mkdir": 1, "makedirs": 2, "rmdir": 1, "unlink": 1, "rename": 1, "symlink": 1, "readlink": 1,
    "link": 1, "stat": 1, "lstat": 1, "exists": 1, "listdir": 1, "scandir": 1, "readdirplus": 1, "truncate": 1,
    "chmod": 1, "chown": 1, "set_acl": 1, "setxattr": 1, "getxattr": 1, "listxattr": 1, "removexattr": 1,
    "mount": 1, "bind_mount": 1, "umount": 1,
    "inotify_init": 1, "inotify_add_watch": 1, "inotify_read": 1, "epoll_create": 1, "epoll_ctl": 1, "epoll_wait": 1,
    "watch": 1, "walk": 1, "io_uring_setup": 1, "submit": 1,
}
_LITERAL_NOT_PATH_RESOLVING = {
    "close", "read", "write", "pread", "pwrite", "lseek", "ftruncate", "fstat",
    "inotify_init", "inotify_read", "epoll_create", "epoll_ctl", "epoll_wait", "io_uring_setup", "submit",
}


def test_the_cost_model_reads_the_weights_it_used_to_spell_out():
    assert WEIGHTS == _LITERAL_WEIGHTS
    assert PATH_RESOLVING == set(_LITERAL_WEIGHTS) - _LITERAL_NOT_PATH_RESOLVING
