"""Directory descriptors: ``open(path, O_DIRECTORY)`` and the ``dir_fd`` form of ``open`` (openat(2)).

The semantics are the kernel's: a descriptor holds an inode, not a path,
so it follows the directory across a rename (the maildir publish of
``write_objects_batched`` relies on it) and a directory removed under it
has no names left.  The ring's ``LINK_DIRFD`` stands for the directory a
chain opened; the per-syscall ``write_object`` stays the reference the
ring's object chains are held to.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Match, Output
from repro.perf import tracepoints
from repro.vfs import (
    LINK_DIRFD,
    LINK_FD,
    O_CREAT,
    O_DIRECTORY,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    BadFileDescriptor,
    FileNotFound,
    FsError,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.vfs.cred import Credentials
from repro.vfs.inode import Filesystem
from repro.vfs.memfs import MemFs
from repro.vfs.notify import IN_ALL_EVENTS, EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, flow_spec_files, mount_yancfs, write_object, write_objects_batched
from tests.vfs.test_syscall_table import SyscallStream, tree_state

_CREATE = O_WRONLY | O_CREAT | O_TRUNC


@pytest.fixture
def sc() -> Syscalls:
    sc = Syscalls(VirtualFileSystem())
    sc.mkdir("/d")
    sc.mkdir("/d/.x")
    return sc


# -- the descriptor ---------------------------------------------------------------------


def test_a_dirfd_follows_its_inode_across_a_rename(sc):
    fd = sc.open("/d/.x", O_DIRECTORY)
    sc.rename("/d/.x", "/d/x")
    sc.close(sc.open("f", _CREATE, dir_fd=fd))
    sc.close(fd)
    assert sc.listdir("/d/x") == ["f"] and not sc.exists("/d/.x")


def test_a_create_under_a_removed_directory_is_file_not_found(sc):
    fd = sc.open("/d/.x", O_DIRECTORY)
    sc.rmdir("/d/.x")
    with pytest.raises(FileNotFound):
        sc.open("f", _CREATE, dir_fd=fd)
    sc.mkdir("/d/.x")  # a new directory at the old path is not the descriptor's
    with pytest.raises(FileNotFound):
        sc.open("f", _CREATE, dir_fd=fd)
    sc.close(fd)
    assert sc.listdir("/d/.x") == []


def test_a_directory_without_search_permission_refuses_a_name_under_it():
    root = Syscalls(VirtualFileSystem())
    root.mkdir("/home")
    root.chmod("/home", 0o777)
    user = root.spawn(cred=Credentials(uid=1000, gid=1000))
    user.mkdir("/home/u")
    user.write_bytes("/home/u/f", b"x")
    fd = user.open("/home/u", O_DIRECTORY)
    user.chmod("/home/u", 0o600)  # read and write, no search
    with pytest.raises(PermissionDenied):
        user.open("f", O_RDONLY, dir_fd=fd)
    with pytest.raises(PermissionDenied):
        user.open("g", _CREATE, dir_fd=fd)
    user.chmod("/home/u", 0o500)  # search, but the create rule's write is missing
    with pytest.raises(PermissionDenied):
        user.open("g", _CREATE, dir_fd=fd)
    file_fd = user.open("f", O_RDONLY, dir_fd=fd)
    assert user.read(file_fd) == b"x"
    user.close(file_fd)
    user.close(fd)


def test_each_misuse_raises_its_own_error(sc):
    sc.write_bytes("/d/file", b"x")
    with pytest.raises(NotADirectory):
        sc.open("/d/file", O_DIRECTORY)
    with pytest.raises(InvalidArgument):
        sc.open("/d/.x", O_DIRECTORY | O_CREAT)
    with pytest.raises(IsADirectory):
        sc.open("/d/.x", O_DIRECTORY | O_WRONLY)
    file_fd = sc.open("/d/file")
    with pytest.raises(NotADirectory):
        sc.open("f", _CREATE, dir_fd=file_fd)
    with pytest.raises(BadFileDescriptor):
        sc.open("f", _CREATE, dir_fd=999)
    fd = sc.open("/d/.x", O_DIRECTORY)
    with pytest.raises(IsADirectory):
        sc.read(fd)
    with pytest.raises(IsADirectory):
        sc.write(fd, b"x")
    with pytest.raises(InvalidArgument):
        sc.open("../file", O_RDONLY, dir_fd=fd)  # one name, not a path
    assert sc.fstat(fd).ino == sc.stat("/d/.x").ino
    for open_fd in (fd, file_fd):
        sc.close(open_fd)
    assert sc.listdir("/d/.x") == []


def test_opening_a_directory_is_silent_and_the_name_under_it_is_not(sc):
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/d/.x", IN_ALL_EVENTS)
    fd = sc.open("/d/.x", O_DIRECTORY)
    sc.close(sc.open("f", _CREATE, dir_fd=fd))
    sc.close(fd)
    assert [(e.mask, e.name) for e in sc.inotify_read(ino)] == [
        (EventMask.IN_CREATE, "f"),
        (EventMask.IN_OPEN, "f"),
        (EventMask.IN_CLOSE_WRITE, "f"),
    ]


def test_the_trace_point_publishes_the_joined_path(sc):
    stream = SyscallStream(sc)
    tracepoints.subscribe(stream)
    try:
        fd = sc.open("/d/.x", O_DIRECTORY)
        sc.close(sc.open("f", _CREATE, dir_fd=fd))
        sc.close(fd)
    finally:
        tracepoints.unsubscribe(stream)
    opens = [(paths, args) for op, paths, args in stream.events if op == "open"]
    assert opens == [(("/d/.x",), ("/d/.x", O_DIRECTORY, 0o644)), (("/d/.x/f",), ("f", _CREATE, 0o644))]


# -- on the ring ------------------------------------------------------------------------


def test_link_dirfd_with_no_directory_open_is_an_invalid_argument_completion(sc):
    batch = sc.ring.batch()
    batch.prep("open", "f", _CREATE, dir_fd=LINK_DIRFD, link=True)
    batch.prep("write", LINK_FD, b"x")
    batch.prep("close", LINK_DIRFD)
    first, second, close = batch.submit()
    assert isinstance(first.error, InvalidArgument) and second.canceled
    assert isinstance(close.error, InvalidArgument)
    with pytest.raises(InvalidArgument):
        batch.prep("mkdir", "/y", dir_fd=LINK_DIRFD)  # only open takes a dir_fd


def test_a_dirfd_open_is_billed_as_openat(sc):
    batch = sc.ring.batch()
    batch.prep("open", "/d/.x", O_DIRECTORY, link=True)
    batch.prep_write_file("f", b"x", dir_fd=LINK_DIRFD, link=True)
    batch.prep("close", LINK_DIRFD)
    assert all(cqe.ok for cqe in batch.submit())
    counters = sc.meter.counters
    assert (counters.get("uring.open"), counters.get("uring.openat"), counters.get("uring.close")) == (1, 1, 2)


@pytest.mark.parametrize("severed_at", [None, "file", "write", "directory"])
def test_the_fd_table_is_back_to_its_size_after_any_batch(sc, severed_at):
    sc.write_bytes("/d/.x/ro", b"x")
    sc.chmod("/d/.x/ro", 0o400)
    user = sc.spawn(cred=Credentials(uid=1000, gid=1000))
    sc.chmod("/d", 0o777)
    sc.chmod("/d/.x", 0o777)
    held = user.open("/d/.x", O_DIRECTORY)  # a descriptor the batch must leave alone
    before = dict(user._fds)
    batch = user.ring.batch()
    batch.prep("open", "/d/nowhere" if severed_at == "directory" else "/d/.x", O_DIRECTORY, link=True)
    batch.prep_write_file("ok", b"1", dir_fd=LINK_DIRFD, link=True)
    name = "ro" if severed_at == "file" else "ok2"
    batch.prep("open", name, _CREATE, dir_fd=LINK_DIRFD, link=True)
    batch.prep("write", 99 if severed_at == "write" else LINK_FD, b"2", link=True)
    batch.prep("close", LINK_FD, link=True)
    batch.prep("close", LINK_DIRFD)
    completed = [cqe.ok for cqe in batch.submit()]
    assert all(completed) == (severed_at is None)
    assert user._fds == before
    user.close(held)


# -- the object writer: the ring's chains against the per-syscall reference ------------------


def _world():
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    client = YancClient(sc)
    client.create_switch("s1")
    client.subscribe_events("s1", "a")
    return sc, client


def _packet_in(seq: int) -> dict:
    return {"in_port": str(seq), "reason": "no_match", "buffer_id": "0", "total_len": "1", "data": b"x"}


_objects = st.lists(
    st.tuples(
        st.sampled_from(["flow", "pi"]),
        st.sampled_from(["o1", "o2", "o3"]),  # repeats: names that already exist
        st.sampled_from(["valid", "rejected"]),
    ),
    min_size=1,
    max_size=6,
)


def _objects_of(client: YancClient, drawn) -> list[tuple[str, dict, str | None]]:
    out = []
    for index, (kind, name, variant) in enumerate(drawn):
        if kind == "flow":
            files = flow_spec_files(Match(in_port=index + 1), [Output(2)], priority=5)
            if variant == "rejected":
                files["priority"] = "high"  # refused when its file closes
            out.append((client.flow_path("s1", name), files, None))
        else:
            files = _packet_in(index)
            if variant == "rejected":
                files["nested/name"] = "x"  # no such file name: its open fails
            out.append((f"{client.events_path('s1', 'a')}/{name}", files, "rename"))
    return out


def _observe(drawn, remove_at: int | None, *, batched: bool):
    """The tree, the completed count and every watcher's stream after writing ``drawn`` one way.

    Each watcher also watches every directory made in its own (so each
    object's file events are compared too).  With ``remove_at``, the
    buffer directory — every packet-in's parent — goes away mid-batch, at
    the ``remove_at``-th event its watcher sees: possibly while a chain
    holds the entry's dirfd.
    """
    sc, client = _world()
    base = client.events_path("s1", "a")
    streams: list[list] = []
    for watched in (f"{client.switch_path('s1')}/flows", base, f"{client.switch_path('s1')}/events"):
        ino = sc.inotify_init()
        wd = sc.inotify_add_watch(ino, watched, IN_ALL_EVENTS)
        stream: list = []
        streams.append(stream)

        def wake(ino=ino, wd=wd, watched=watched, stream=stream) -> None:
            for event in ino.read():
                stream.append(event)
                if event.wd == wd and event.mask == EventMask.IN_CREATE | EventMask.IN_ISDIR:
                    try:
                        sc.inotify_add_watch(ino, f"{watched}/{event.name}", IN_ALL_EVENTS)
                    except FsError:
                        pass  # already gone again (the removal below)
                if watched == base and len(stream) == remove_at:
                    sc.rmdir(base)

        ino.wakeup = wake
    objects = _objects_of(client, drawn)
    fds = dict(sc._fds)
    if batched:
        completed = write_objects_batched(sc, objects)
    else:
        completed = 0
        for path, files, publish in objects:
            try:
                write_object(sc, path, files, publish)
            except FsError:
                continue
            completed += 1
    assert sc._fds == fds
    return tree_state(sc.vfs), completed, streams


@settings(max_examples=40, deadline=None)
@given(drawn=_objects, remove_at=st.one_of(st.none(), st.integers(min_value=1, max_value=50)))
def test_the_ring_writes_objects_as_the_per_syscall_reference_does(drawn, remove_at):
    assert _observe(drawn, remove_at, batched=True) == _observe(drawn, remove_at, batched=False)


# -- the notify gate: the hub hears only what someone watches ----------------------------------


class _Ungated(MemFs):
    """The reference: every event enters the hub, watched or not (``emit`` before the gate)."""

    def emit(self, inode, mask, name=None, cookie=0):
        if self.hub is not None:
            self.hub.emit(inode, mask, name=name, cookie=cookie)

    def emit_dirent(self, parent, child, mask, name, cookie=0):
        if self.hub is not None:
            self.hub.emit_dirent(parent, child, mask, name, cookie=cookie)


_PATHS = ["/d", "/d/a", "/d/b", "/d/sub", "/d/sub/c", "/e"]
_MASKS = [IN_ALL_EVENTS, EventMask.IN_CREATE | EventMask.IN_DELETE, EventMask.IN_MODIFY, EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO | EventMask.IN_ATTRIB]

_watch = st.tuples(st.just("watch"), st.integers(0, 2), st.sampled_from(_PATHS), st.sampled_from(_MASKS))
_steps = st.lists(
    st.one_of(
        _watch,
        _watch,
        _watch,
        st.tuples(st.just("rm_watch"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("close"), st.integers(0, 2)),
        st.tuples(st.just("write"), st.sampled_from(_PATHS)),
        st.tuples(st.just("read"), st.sampled_from(_PATHS)),
        st.tuples(st.just("mkdir"), st.sampled_from(_PATHS)),
        st.tuples(st.just("unlink"), st.sampled_from(_PATHS)),
        st.tuples(st.just("rmdir"), st.sampled_from(_PATHS)),
        st.tuples(st.just("rename"), st.sampled_from(_PATHS), st.sampled_from(_PATHS)),
        st.tuples(st.just("chmod"), st.sampled_from(_PATHS)),
    ),
    min_size=2,
    max_size=30,
)


def _replay(root_fs: Filesystem, steps):
    """Run ``steps``; every instance's delivered events, and every watched inode."""
    sc = Syscalls(VirtualFileSystem(root_fs=root_fs))
    for directory in ("/d", "/d/sub"):
        sc.mkdir(directory)
    for path in ("/d/a", "/d/sub/c"):
        sc.write_bytes(path, b"")
    instances = [sc.inotify_init() for _ in range(3)]
    delivered: list[list] = [[] for _ in instances]
    watched = []
    for step in steps:
        op, *args = step
        try:
            if op == "watch":
                index, path, mask = args
                sc.inotify_add_watch(instances[index], path, mask)
                watched.append(sc.vfs.resolve(sc.ns, sc.cred, path))
            elif op == "rm_watch":
                index, nth = args
                wds = sorted(instances[index]._watches)
                if wds:
                    instances[index].rm_watch(wds[nth % len(wds)])
            elif op == "close":
                instances[args[0]].close()
            elif op == "write":
                sc.write_bytes(args[0], b"x")
            elif op == "read":
                sc.read_bytes(args[0])
            elif op == "chmod":
                sc.chmod(args[0], 0o700)
            else:
                getattr(sc, op)(*args)
        except FsError:
            pass
        for index, instance in enumerate(instances):
            delivered[index] += instance.read()
    for instance in instances:
        instance.close()
    return delivered, watched


@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_the_gated_hub_delivers_what_the_ungated_emit_delivers(steps):
    steps = [("watch", 0, "/d", IN_ALL_EVENTS), *steps]  # /d/sub's and /e's events stay unwatched unless drawn
    gated, watched = _replay(MemFs(), steps)
    reference, _ = _replay(_Ungated(), steps)
    assert gated == reference
    assert all(inode.watches == 0 for inode in watched)
