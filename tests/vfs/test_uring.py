"""IoUring: batched submission, linked chains, completion ordering, batches that belong to their callers."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import tracepoints
from repro.vfs import LINK_DIRFD, LINK_FD, FsError, InvalidArgument, NoData, O_CREAT, O_DIRECTORY, O_RDONLY, O_TRUNC, O_WRONLY
from repro.vfs.cred import Credentials
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from tests.vfs.test_syscall_table import SyscallStream, tree_state


@pytest.fixture
def sc():
    vfs = VirtualFileSystem()
    return Syscalls(vfs)


@pytest.fixture
def ring(sc):
    return sc.io_uring_setup()


@pytest.fixture
def batch(ring):
    return ring.batch()


# -- completion ordering ---------------------------------------------------------------


def test_completions_arrive_in_submission_order(sc, batch):
    batch.prep("mkdir", "/a", user_data=0)
    batch.prep("mkdir", "/b", user_data=1)
    batch.prep("listdir", "/", user_data=2)
    cqes = batch.submit()
    assert [c.op for c in cqes] == ["mkdir", "mkdir", "listdir"]
    assert [c.user_data for c in cqes] == [0, 1, 2]
    assert sorted(cqes[2].result) == ["a", "b"]


def test_order_preserved_across_submits(sc, batch):
    """A batch reused after its submit hands back only what crossed since."""
    batch.prep("mkdir", "/a")
    first = batch.submit()
    batch.prep("mkdir", "/b")
    second = batch.submit()
    assert [(c.op, c.ok) for c in first] == [(c.op, c.ok) for c in second] == [("mkdir", True)]
    assert sc.listdir("/") == ["a", "b"]


def test_failed_op_reports_error_without_stopping_batch(sc, batch):
    batch.prep("mkdir", "/ok")
    batch.prep("listdir", "/missing")  # independent entries: no link
    batch.prep("mkdir", "/also_ok")
    cqes = batch.submit()
    assert cqes[0].ok and cqes[2].ok
    assert not cqes[1].ok and cqes[1].error is not None and not cqes[1].canceled
    assert sc.exists("/also_ok")


# -- linked chains ---------------------------------------------------------------------


def test_link_fd_threads_open_write_close(sc, batch):
    batch.prep_write_file("/f", b"hello")
    cqes = batch.submit()
    assert [c.op for c in cqes] == ["open", "write", "close"]
    assert all(c.ok for c in cqes)
    assert sc.read_bytes("/f") == b"hello"


def test_chain_failure_cancels_the_rest(sc, batch):
    batch.prep("mkdir", "/missing/deep", link=True)  # fails: parent absent
    batch.prep("mkdir", "/never", link=True)
    batch.prep("mkdir", "/never2")
    batch.prep("mkdir", "/independent")  # next chain: unaffected
    cqes = batch.submit()
    assert cqes[0].error is not None
    assert cqes[1].canceled and cqes[2].canceled
    assert cqes[3].ok
    assert not sc.exists("/never") and sc.exists("/independent")


def test_severed_chain_autocloses_its_fd(sc, batch):
    sc.write_bytes("/f", b"x")
    batch.prep("open", "/f", O_RDONLY, link=True)
    batch.prep("listdir", "/missing", link=True)  # fails mid-chain
    batch.prep("close", LINK_FD)
    cqes = batch.submit()
    assert cqes[0].ok and cqes[1].error is not None and cqes[2].canceled
    # The chain's fd was reclaimed: the table is empty again.
    assert not sc._fds
    assert sc.meter.counters.get("uring.chain_autoclose") == 1


def test_link_fd_without_open_is_an_error(sc, batch):
    batch.prep("close", LINK_FD)
    (cqe,) = batch.submit()
    assert cqe.error is not None and not cqe.canceled


def test_batched_fd_usable_by_direct_calls(sc, batch):
    sc.write_bytes("/f", b"payload")
    batch.prep("open", "/f", O_RDONLY)
    (cqe,) = batch.submit()
    assert sc.read(cqe.result, 7) == b"payload"
    sc.close(cqe.result)


def test_maildir_chain_publishes_atomically(sc, batch):
    sc.mkdir("/spool")
    batch.prep("mkdir", "/spool/.tmp", link=True)
    batch.prep_write_file("/spool/.tmp/data", b"x", link=True)
    batch.prep("rename", "/spool/.tmp", "/spool/item")
    assert all(c.ok for c in batch.submit())
    assert sc.listdir("/spool") == ["item"]


# -- metering --------------------------------------------------------------------------


def test_submit_is_one_syscall_regardless_of_batch_size(sc, batch):
    sc.meter.reset()
    for i in range(20):
        batch.prep("mkdir", f"/d{i}")
    batch.submit()
    assert sc.meter.counters.get("syscall.io_uring_enter") == 1
    assert sc.meter.counters.get("syscall.total") == 1
    assert sc.meter.counters.get("syscall.mkdir") == 0  # batched, not direct
    assert sc.meter.counters.get("uring.sqe") == 20
    assert sc.meter.counters.get("uring.mkdir") == 20


def test_empty_submit_is_free(sc, batch):
    sc.meter.reset()
    assert batch.submit() == []
    assert sc.meter.syscalls == 0


def test_batched_payload_bytes_still_billed(sc, batch):
    sc.meter.reset()
    batch.prep_write_file("/f", b"12345")
    batch.submit()
    assert sc.meter.counters.get("bytes.copied") == 5
    batch.prep("open", "/f", O_RDONLY, link=True)
    batch.prep("read", LINK_FD, 5, link=True)
    batch.prep("close", LINK_FD)
    batch.submit()
    assert sc.meter.counters.get("bytes.copied") == 10


def test_a_ring_readdirplus_bills_what_the_direct_call_bills(sc, batch):
    """The payload is the files' bytes either way; only the crossing differs."""
    sc.mkdir("/d")
    for name, data in (("a", b"abc"), ("b", b""), ("c", b"0123456789")):
        sc.write_bytes(f"/d/{name}", data)
    sc.mkdir("/d/sub")

    def billed(call) -> tuple[object, dict[str, int]]:
        before = sc.meter.counters.snapshot()
        result = call()
        return result, sc.meter.counters.snapshot().delta(before)

    direct, direct_bill = billed(lambda: sc.readdirplus("/d"))

    def through_ring():
        batch.prep("readdirplus", "/d")
        return batch.submit()[0].result

    batched, ring_bill = billed(through_ring)
    assert batched == direct
    assert direct_bill["bytes.copied"] == ring_bill["bytes.copied"] == 13
    crossing = {"syscall.total": 1, "ctxsw": 4}
    assert direct_bill == {**crossing, "syscall.readdirplus": 1, "bytes.copied": 13}
    assert ring_bill == {**crossing, "syscall.io_uring_enter": 1, "uring.sqe": 1, "uring.readdirplus": 1, "bytes.copied": 13}


def test_a_ring_getxattr_completes_with_the_value_or_the_direct_calls_nodata(sc, batch):
    """A buffer's declaration is probed beside its listing (§3.5): ``getxattr`` is a ring row, one entry each, a missing name a ``NoData`` completion."""
    sc.mkdir("/d")
    sc.setxattr("/d", "user.k", b"v")
    before = sc.meter.counters.snapshot()
    batch.prep("getxattr", "/d", "user.k")
    batch.prep("getxattr", "/d", "user.missing")
    batch.prep("listdir", "/d")
    present, absent, listing = batch.submit()
    assert (present.ok, present.result) == (True, b"v")
    assert isinstance(absent.error, NoData) and not absent.canceled
    assert listing.ok  # an unlinked entry's error touches nothing after it
    assert sc.meter.counters.snapshot().delta(before) == {"syscall.total": 1, "ctxsw": 4, "syscall.io_uring_enter": 1, "uring.sqe": 3, "uring.getxattr": 2, "uring.listdir": 1}
    with pytest.raises(NoData):
        sc.getxattr("/d", "user.missing")


def test_a_ring_watch_is_the_wd_the_direct_call_returns_and_rewatching_reuses_it(sc, batch):
    """Registering interest is not waiting: ``inotify_add_watch`` is a ring row, and the wd is the kernel's either way."""
    for name in ("/d", "/e"):
        sc.mkdir(name)
    ino = sc.inotify_init()
    direct = sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    batch.prep("inotify_add_watch", ino, "/d", EventMask.IN_CREATE | EventMask.IN_DELETE)
    batch.prep("inotify_add_watch", ino, "/e", EventMask.IN_CREATE)
    batch.prep("inotify_add_watch", ino, "/e", EventMask.IN_CREATE)
    again, fresh, rewatched = batch.submit()
    assert again.result == direct  # re-watching an inode reuses its wd and replaces its mask
    assert fresh.ok and fresh.result != direct and rewatched.result == fresh.result
    sc.mkdir("/e/x")
    sc.mkdir("/d/y")
    sc.rmdir("/d/y")
    assert [(event.wd, event.name) for event in sc.inotify_read(ino)] == [(fresh.result, "x"), (direct, "y"), (direct, "y")]


@pytest.mark.parametrize("path", ["/missing", "/locked/d"])
def test_a_ring_watch_that_fails_raises_the_direct_calls_error_and_cancels_its_linked_read(path):
    root = Syscalls(VirtualFileSystem())
    root.makedirs("/locked/d")
    root.chmod("/locked", 0o700)  # unsearchable for anyone but root
    user = root.spawn(cred=Credentials(uid=1000, gid=1000))
    ino = user.inotify_init()
    with pytest.raises(FsError) as direct:
        user.inotify_add_watch(ino, path, EventMask.IN_CREATE)
    batch = user.io_uring_setup().batch()
    batch.prep("inotify_add_watch", ino, path, EventMask.IN_CREATE, link=True)
    batch.prep("readdirplus", path)
    watch, read = batch.submit()
    assert type(watch.error) is type(direct.value) and read.canceled
    root.mkdir(path if path == "/missing" else "/locked/d/z")
    assert user.inotify_read(ino) == []  # neither attempt left a watch behind


# A submit bills its entries in one go, per op kind; the contract is the
# totals and the completions the entry-at-a-time implementation produced
# (the literals below were recorded from it, at the parent of the rewrite).


def _ok(sc, batch):
    sc.write_bytes("/seed", b"seeded")
    batch.prep("mkdir", "/d", link=True, user_data="obj")
    batch.prep_write_file("/d/f", b"hello", link=True, user_data="obj")
    batch.prep("rename", "/d", "/e", user_data="obj")
    batch.prep("open", "/seed", O_RDONLY, link=True)
    batch.prep("pread", LINK_FD, 4, 1, link=True)
    batch.prep("close", LINK_FD)
    batch.prep("listdir", "/e")


def _fails_mid_chain(sc, batch):
    batch.prep("mkdir", "/d", link=True)
    batch.prep_write_file("/missing/f", b"lost", link=True)
    batch.prep("rename", "/d", "/e")
    batch.prep("mkdir", "/independent")


def _link_fd_without_an_open(sc, batch):
    batch.prep("write", LINK_FD, b"nowhere", link=True)
    batch.prep("close", LINK_FD)
    batch.prep("mkdir", "/independent")


def _severed_with_an_fd_open(sc, batch):
    sc.write_bytes("/seed", b"seeded")
    batch.prep("open", "/seed", O_RDONLY, link=True)
    batch.prep("read", LINK_FD, 3, link=True)
    batch.prep("listdir", "/missing", link=True)
    batch.prep("close", LINK_FD)
    batch.prep_write_file("/after", b"next chain")


_ONE_CROSSING = {"ctxsw": 4, "syscall.io_uring_enter": 1, "syscall.total": 1}


@pytest.mark.parametrize(
    "prepare, billed, completed",
    [
        (
            _ok,
            {"bytes.copied": 9, "uring.close": 2, "uring.listdir": 1, "uring.mkdir": 1, "uring.open": 2, "uring.pread": 1, "uring.rename": 1, "uring.sqe": 9, "uring.write": 1},
            [("mkdir", None, "obj"), ("open", 4, "obj"), ("write", 5, "obj"), ("close", None, "obj"), ("rename", None, "obj"), ("open", 5, None), ("pread", b"eede", None), ("close", None, None), ("listdir", ["f"], None)],
        ),
        (
            _fails_mid_chain,
            {"uring.canceled": 3, "uring.mkdir": 2, "uring.open": 1, "uring.sqe": 6},
            [("mkdir", None, None), ("open", "FileNotFound", None), ("write", "canceled", None), ("close", "canceled", None), ("rename", "canceled", None), ("mkdir", None, None)],
        ),
        (
            _link_fd_without_an_open,
            {"uring.canceled": 1, "uring.mkdir": 1, "uring.sqe": 3, "uring.write": 1},
            [("write", "InvalidArgument", None), ("close", "canceled", None), ("mkdir", None, None)],
        ),
        (
            _severed_with_an_fd_open,
            {"bytes.copied": 13, "uring.canceled": 1, "uring.chain_autoclose": 1, "uring.close": 1, "uring.listdir": 1, "uring.open": 2, "uring.read": 1, "uring.sqe": 8, "uring.write": 1},
            [("open", 4, None), ("read", b"see", None), ("listdir", "FileNotFound", None), ("close", "canceled", None), ("open", 5, None), ("write", 10, None), ("close", None, None)],
        ),
    ],
)
def test_a_submit_bills_and_completes_what_entry_at_a_time_did(sc, batch, prepare, billed, completed):
    prepare(sc, batch)
    sc.meter.reset()
    cqes = batch.submit()
    assert sc.meter.counters.snapshot().values == _ONE_CROSSING | billed
    assert len(cqes) == len(completed)
    assert [(cqe.op, "canceled" if cqe.canceled else type(cqe.error).__name__ if cqe.error else cqe.result, cqe.user_data) for cqe in cqes] == completed
    assert not sc._fds


def test_a_paused_meter_bills_nothing_for_a_submit(sc, batch):
    batch.prep_write_file("/f", b"12345")
    sc.meter.reset()
    with sc.meter.pause():
        batch.submit()
    assert sc.meter.counters.snapshot().values == {}


# -- batching never changes coverage --------------------------------------------------
#
# An entry is the direct call it stands for: random sequences of linked
# chains, dispatched through a ring and called one by one (a failed step
# ending its chain and closing the chain's descriptor, as the ring does),
# publish the same ``syscall`` stream and leave the same tree and errors.

_PATH = st.sampled_from(["/a", "/a/b", "/b", "/a/f", "/f", "a//f", "/b/../a/f"])
_SINGLE = st.one_of(
    st.tuples(st.sampled_from(["mkdir", "rmdir", "unlink", "stat", "lstat", "exists", "listdir", "scandir", "readdirplus"]), st.tuples(_PATH)),
    st.tuples(st.sampled_from(["rename", "link", "symlink"]), st.tuples(_PATH, _PATH)),
    st.tuples(st.just("truncate"), st.tuples(_PATH, st.integers(0, 3))),
).map(lambda entry: [entry])


def _write_file(path, data):
    return [("open", (path, O_WRONLY | O_CREAT | O_TRUNC)), ("write", (LINK_FD, data)), ("close", (LINK_FD,))]


_WRITE_CHAIN = st.tuples(_PATH, st.binary(max_size=6)).map(lambda pd: _write_file(*pd))
_READ_CHAIN = _PATH.map(
    lambda p: [("open", (p, O_RDONLY)), ("pread", (LINK_FD, 4, 1)), ("fstat", (LINK_FD,)), ("close", (LINK_FD,))]
)
_MAILDIR_CHAIN = st.tuples(_PATH, _PATH).map(
    lambda pq: [("mkdir", (pq[0],)), *_write_file(pq[0] + "/x", b"m"), ("rename", (pq[0], pq[1]))]
)
_CHAINS = st.lists(st.one_of(_SINGLE, _WRITE_CHAIN, _READ_CHAIN, _MAILDIR_CHAIN), max_size=12)


def _run_direct(sc, chains):
    errors = []
    for chain in chains:
        fd = error = None
        for op, args in chain:
            try:
                result = getattr(sc, op)(*[fd if arg is LINK_FD else arg for arg in args])
            except FsError as exc:
                error = type(exc).__name__
                break
            if op == "open":
                fd = result
            elif op == "close":
                fd = None
        if error is not None and fd is not None:
            sc.close(fd)
        errors.append(error)
    return errors


def _run_ring(sc, chains):
    batch = sc.io_uring_setup(entries=5 * len(chains) + 1).batch()
    for index, chain in enumerate(chains):
        for position, (op, args) in enumerate(chain):
            batch.prep(op, *args, link=position < len(chain) - 1, user_data=index)
    errors = [None] * len(chains)
    for cqe in batch.submit():
        if cqe.error is not None and errors[cqe.user_data] is None:
            errors[cqe.user_data] = type(cqe.error).__name__
    return errors


def _observe(run, chains):
    sc = Syscalls(VirtualFileSystem())
    sc.mkdir("/a")
    stream = SyscallStream(sc)
    tracepoints.subscribe(stream)
    try:
        errors = run(sc, chains)
    finally:
        tracepoints.unsubscribe(stream)
    assert not sc._fds
    return [event for event in stream.events if event[0] != "io_uring_setup"], tree_state(sc.vfs), errors


@settings(max_examples=60, deadline=None)
@given(_CHAINS)
def test_a_ring_publishes_and_does_what_the_direct_calls_do(chains):
    assert _observe(_run_ring, chains) == _observe(_run_direct, chains)


# -- a batch belongs to its caller ------------------------------------------------------
#
# Consumers shaped like the in-tree sites (an object's chain, a buffer probe,
# a spool take, a file read, a flow read) prepare on one ring, interleaved
# entry by entry; each then submits, or raises at one of its preps.  The
# reference is the per-syscall run of the consumers that submitted, each
# alone, in the order they submitted: a consumer that raised did nothing.

_CREATE = O_WRONLY | O_CREAT | O_TRUNC
_OBJECT = st.sampled_from(["o1", "o2", "o3"])
_SHAPES = st.one_of(
    st.tuples(_OBJECT, st.binary(max_size=4)).map(  # write_objects_batched
        lambda nd: [
            [
                ("mkdir", (f"/t/.{nd[0]}",), None),
                ("open", (f"/t/.{nd[0]}", O_DIRECTORY), None),
                ("open", ("f", _CREATE), LINK_DIRFD),
                ("write", (LINK_FD, nd[1]), None),
                ("close", (LINK_FD,), None),
                ("close", (LINK_DIRFD,), None),
                ("rename", (f"/t/.{nd[0]}", f"/t/{nd[0]}"), None),
            ]
        ]
    ),
    _OBJECT.map(lambda n: [[("listdir", (f"/t/{n}",), None)], [("getxattr", (f"/t/{n}", "user.k"), None)]]),  # fan_out_packet_ins
    _OBJECT.map(lambda n: [[("open", (f"/t/{n}/f", O_RDONLY), None), ("read", (LINK_FD,), None), ("close", (LINK_FD,), None), ("unlink", (f"/t/{n}/f",), None)]]),  # take_packet_out
    _OBJECT.map(lambda n: [[("open", (f"/t/{n}/f", O_RDONLY), None), ("read", (LINK_FD,), None), ("close", (LINK_FD,), None)]]),  # find -exec grep
    _OBJECT.map(lambda n: [[("readdirplus", (f"/t/{n}",), None)]]),  # follow_flows
)
_CONSUMER = st.lists(_SHAPES, min_size=1, max_size=3).map(lambda shapes: [chain for shape in shapes for chain in shape])


class _Raised(Exception):
    """A consumer's failure between two of its preps."""


def _entries(chains: list[list]) -> list[tuple]:
    return [(op, args, position < len(chain) - 1, dir_fd) for chain in chains for position, (op, args, dir_fd) in enumerate(chain)]


def _outcome(op: str, result: object, error: FsError | None, canceled: bool) -> tuple:
    return op, "canceled" if canceled else type(error).__name__ if error is not None else result


def _consumer(ring, chains: list[list], raise_at: int | None):
    """Prepare one entry per step on the consumer's own batch; then submit, or raise before entry ``raise_at``."""
    batch = ring.batch()
    for index, (op, args, link, dir_fd) in enumerate(_entries(chains)):
        if index == raise_at:
            raise _Raised
        batch.prep(op, *args, link=link, dir_fd=dir_fd)
        yield
    return [_outcome(cqe.op, cqe.result, cqe.error, cqe.canceled) for cqe in batch.submit()]


def _alone(sc: Syscalls, chains: list[list]) -> list[tuple]:
    """The consumer's chains as direct calls: a failed step cancels the rest of its chain and closes what it opened."""
    out = []
    for chain in chains:
        fd = dirfd = error = None
        for op, args, dir_fd in chain:
            if error is not None:
                out.append(_outcome(op, None, None, True))
                continue
            args = tuple(fd if arg is LINK_FD else dirfd if arg is LINK_DIRFD else arg for arg in args)
            result = None
            try:
                result = getattr(sc, op)(*args) if dir_fd is None else sc.open(*args, dir_fd=dirfd)
            except FsError as exc:
                error = exc
            else:
                if op == "open" and args[1] & O_DIRECTORY:
                    dirfd = result
                elif op == "open":
                    fd = result
                elif op == "close":
                    fd, dirfd = (None, dirfd) if args[0] == fd else (fd, None)
            out.append(_outcome(op, result, error, False))
        if error is not None:
            for held in (fd, dirfd):
                if held is not None:
                    sc.close(held)
    return out


def _seeded() -> Syscalls:
    sc = Syscalls(VirtualFileSystem())
    sc.makedirs("/t/o1")
    sc.write_bytes("/t/o1/f", b"seed")
    sc.setxattr("/t/o1", "user.k", b"v")
    return sc


@settings(max_examples=80, deadline=None)
@given(consumers=st.lists(st.tuples(_CONSUMER, st.one_of(st.none(), st.integers(0, 12))), min_size=1, max_size=4), data=st.data())
def test_each_batch_completes_only_its_own_entries_and_an_abandoned_one_runs_nothing(consumers, data):
    sc = _seeded()
    running = {who: _consumer(sc.ring, chains, raise_at) for who, (chains, raise_at) in enumerate(consumers)}
    got, order = {}, []
    while running:
        who = data.draw(st.sampled_from(sorted(running)))
        try:
            next(running[who])
        except StopIteration as done:
            got[who] = done.value
            order.append(who)
        except _Raised:
            pass
        else:
            continue
        del running[who]
    reference = _seeded()
    assert got == {who: _alone(reference, consumers[who][0]) for who in order}
    assert tree_state(sc.vfs) == tree_state(reference.vfs)
    assert not sc._fds and not reference._fds


# -- validation ------------------------------------------------------------------------


def test_unknown_op_rejected(batch):
    with pytest.raises(InvalidArgument):
        batch.prep("spawn")


def test_queue_full_rejected(sc):
    """A full queue submits what is queued to make room; a chain longer than the whole ring is refused."""
    batch = sc.io_uring_setup(entries=2).batch()
    batch.prep("mkdir", "/a")
    batch.prep("mkdir", "/b")
    before = sc.meter.counters.get("syscall.io_uring_enter")
    batch.prep("mkdir", "/c")  # no room: /a and /b cross first
    assert sc.meter.counters.get("syscall.io_uring_enter") - before == 1
    assert sc.exists("/b") and not sc.exists("/c") and len(batch._sq) == 1
    with pytest.raises(InvalidArgument):
        batch.prep_write_file("/a/x", b"data")  # three linked entries never fit in two: /c crosses, the chain is dropped
    assert batch._sq == [] and sc.exists("/c")
    crossed = sc.meter.counters.get("syscall.io_uring_enter")
    assert [cqe.op for cqe in batch.submit()] == ["mkdir"] * 3  # what crossed for room, handed over without a crossing
    assert sc.meter.counters.get("syscall.io_uring_enter") == crossed and sc.listdir("/a") == [] and not sc._fds


def test_prep_write_file_queues_its_whole_chain_or_nothing(sc):
    # Regression: with fewer than three free slots the linked open was
    # queued before the queue-full error, leaving a dangling chain head
    # that the next submit ran (an empty file appeared), linked into the
    # next prepared entry, and whose descriptor leaked.  Now what is
    # queued ahead crosses first and the chain goes in whole.
    batch = sc.io_uring_setup(entries=4).batch()
    sc.mkdir("/a")
    for name in ("/b", "/c", "/d"):
        batch.prep("mkdir", name)
    batch.prep_write_file("/a/x", b"data")  # one free slot: the three mkdirs cross first
    assert len(batch._sq) == 3 and sc.exists("/d") and sc.listdir("/a") == []
    cqes = batch.submit()
    assert [(cqe.op, cqe.ok) for cqe in cqes[:3]] == [("mkdir", True)] * 3
    assert len(cqes[3:]) == 3
    assert all(cqe.ok for cqe in cqes[3:])
    assert sc.read_bytes("/a/x") == b"data" and not sc._fds
    small = sc.io_uring_setup(entries=2).batch()
    with pytest.raises(InvalidArgument):
        small.prep_write_file("/a/y", b"data")  # can never fit: nothing of it is queued
    assert small._sq == [] and small.submit() == []
    assert sc.listdir("/a") == ["x"] and not sc._fds


@pytest.mark.parametrize("temp_exists", [False, True])
def test_a_refused_chain_leaves_nothing_linked_on_the_ring(sc, temp_exists):
    """Regression: a maildir object of eight files is a 26-entry chain; through a 20-entry ring it was
    refused with its first 19 entries still queued, the last linked, so the next unrelated entry ran
    chained to that debris — a 6-of-8-file temp landed, or (the temp already there) it completed canceled."""
    sc.mkdir("/objs")
    if temp_exists:
        sc.mkdir("/objs/.a")
    batch = sc.io_uring_setup(entries=20).batch()
    with pytest.raises(InvalidArgument):
        batch.prep("mkdir", "/objs/.a", link=True)
        for index in range(8):
            batch.prep_write_file(f"/objs/.a/f{index}", b"x", link=True)
        batch.prep("rename", "/objs/.a", "/objs/a")
    assert batch._sq == []
    batch.prep("mkdir", "/objs/unrelated")
    assert [(cqe.op, cqe.ok) for cqe in batch.submit()] == [("mkdir", True)]
    assert sorted(sc.listdir("/objs")) == [".a"] * temp_exists + ["unrelated"]
    assert not sc._fds


# -- the ring keeps its own room --------------------------------------------------------
#
# The rule callers used to spell out before every chain — submit first when
# the chain would not fit behind what is queued — is the reference: the ring
# must submit the same batches, cross as often and complete the same entries,
# and a chain longer than the ring leaves the batch as the reference's
# pre-chain submit left it.


def _run_chains(ring, size: int, chains: list[int], *, reference: bool) -> tuple[list, list]:
    """Queue each chain of ``chains`` (its length) on a batch of ``ring``; the refused chains and the queue each refusal left."""
    batch = ring.batch()
    refused, cqes = [], []
    for number, length in enumerate(chains):
        if reference:
            if batch._sq and len(batch._sq) + length > size:
                cqes += batch.submit()
            if length > size:
                refused.append((number, [(sqe.op, sqe.user_data) for sqe in batch._sq]))
                continue
        try:
            for position in range(length):
                batch.prep("stat", "/", link=position < length - 1, user_data=(number, position))
        except InvalidArgument:
            refused.append((number, [(sqe.op, sqe.user_data) for sqe in batch._sq]))
    cqes += batch.submit()
    return refused, [(index, cqe.op, cqe.ok, cqe.user_data) for index, cqe in enumerate(cqes)]


class Submissions:
    """The entries of every ring submission, per ring, read from its completions as it returns (a ``uring_submit`` subscriber)."""

    def __init__(self) -> None:
        self.batches: dict[int, list[list]] = {}

    def on_uring_submit_exit(self, ring, result, exc) -> None:
        self.batches.setdefault(id(ring), []).append([(cqe.op, cqe.ok, cqe.user_data) for cqe in result])


@settings(max_examples=150, deadline=None)
@given(size=st.integers(1, 64), chains=st.lists(st.integers(1, 40), max_size=30))
def test_the_ring_keeps_its_room_as_callers_used_to(size, chains):
    own, caller = Syscalls(VirtualFileSystem()), Syscalls(VirtualFileSystem())
    rings = own.io_uring_setup(entries=size), caller.io_uring_setup(entries=64 * 40)  # the reference's never fills
    submissions = Submissions()
    tracepoints.subscribe(submissions)
    try:
        got = _run_chains(rings[0], size, chains, reference=False)
        want = _run_chains(rings[1], size, chains, reference=True)
    finally:
        tracepoints.unsubscribe(submissions)
    assert got == want
    assert [refusal[1] for refusal in got[0]] == [[]] * len(got[0])  # nothing of a refused chain, nor debris, stays queued
    assert submissions.batches.get(id(rings[0]), []) == submissions.batches.get(id(rings[1]), [])
    assert own.meter.counters.get("syscall.io_uring_enter") == caller.meter.counters.get("syscall.io_uring_enter")
    for batch in submissions.batches.get(id(rings[0]), []):
        last_chain, last = batch[-1][2]
        assert len(batch) <= size and batch[0][2][1] == 0  # a batch starts on a chain's first entry ...
        assert last == chains[last_chain] - 1  # ... and ends on one's last: no chain straddles a submit


def test_bad_ring_size_rejected(sc):
    with pytest.raises(InvalidArgument):
        sc.io_uring_setup(entries=0)


def test_severed_chain_autocloses_under_race_detector(sc, batch):
    # YANCRACE=1 runs the suite with Syscalls methods patched by the
    # happens-before detector; the autoclose of a severed chain goes
    # through the same patched close and must still be billed exactly
    # once (and must not be misread as an app-level fd access).
    from repro.analysis.race import RaceDetector

    detector = RaceDetector().install()
    try:
        sc.write_bytes("/f", b"x")
        batch.prep("open", "/f", O_RDONLY, link=True)
        batch.prep("listdir", "/missing", link=True)  # fails mid-chain
        batch.prep("close", LINK_FD)
        cqes = batch.submit()
    finally:
        detector.uninstall()
    assert cqes[0].ok and cqes[1].error is not None and cqes[2].canceled
    assert not sc._fds
    assert sc.meter.counters.get("uring.chain_autoclose") == 1
    findings = detector.check()
    detector.reset()
    assert findings == []


# -- one ring per context, a batch per caller, and only the ring counts its room -------

_SRC = Path(__file__).resolve().parents[2] / "src"
_RING_SPELLINGS = {"ring", "uring", "_ring"}
#: What a shared queue was read through: nothing outside the ring may name it.
_QUEUE_ATTRS = {"completions", "cq_pending", "sq_pending", "_sq"}


def _ringish(receiver: ast.expr) -> bool:
    return getattr(receiver, "id", None) in _RING_SPELLINGS or getattr(receiver, "attr", None) in _RING_SPELLINGS


class _RingUses(ast.NodeVisitor):
    """Outside the ring: every ``io_uring_setup(...)`` call but ``Syscalls.ring``'s, every read of a ring's
    room or of a queue, and every entry prepared on a ring rather than on a batch."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.found: list[str] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "io_uring_setup" and (self.module, ".".join(self.scope)) != ("repro/vfs/syscalls.py", "Syscalls.ring"):
            self.found.append(f"{self.module}:{node.lineno}: io_uring_setup() outside Syscalls.ring")
        if name in ("prep", "prep_write_file") and self.module != "repro/vfs/uring.py" and _ringish(func.value):
            self.found.append(f"{self.module}:{node.lineno}: {name}() on a ring, not on a batch")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.module != "repro/vfs/uring.py" and (node.attr in _QUEUE_ATTRS or (node.attr == "entries" and _ringish(node.value))):
            self.found.append(f"{self.module}:{node.lineno}: a ring's .{node.attr} read outside the ring")
        self.generic_visit(node)


def test_a_context_has_one_ring_and_only_the_ring_counts_its_room():
    found = []
    for path in sorted(_SRC.rglob("*.py")):
        uses = _RingUses(path.relative_to(_SRC).as_posix())
        uses.visit(ast.parse(path.read_text(), str(path)))
        found += uses.found
    assert found == []


def test_the_ring_scan_flags_a_shared_queue():
    uses = _RingUses("repro/apps/example.py")
    uses.visit(
        ast.parse(
            "ring = self.ring\n"
            "ring.prep('mkdir', '/a')\n"
            "self.ring.prep_write_file('/f', b'')\n"
            "ring.completions()\n"
            "sc.ring.cq_pending + batch._sq\n"
            "batch = ring.batch()\n"
            "batch.prep('mkdir', '/b')\n"
        )
    )
    assert [finding.split(": ", 1)[1] for finding in uses.found] == [
        "prep() on a ring, not on a batch",
        "prep_write_file() on a ring, not on a batch",
        "a ring's .completions read outside the ring",
        "a ring's .cq_pending read outside the ring",
        "a ring's ._sq read outside the ring",
    ]
