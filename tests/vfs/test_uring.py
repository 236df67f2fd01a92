"""IoUring: batched submission, linked chains, completion ordering, polling."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import tracepoints
from repro.vfs import EPOLL_CTL_ADD, LINK_FD, FsError, InvalidArgument, NoData, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
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


# -- completion ordering ---------------------------------------------------------------


def test_completions_arrive_in_submission_order(sc, ring):
    ring.prep("mkdir", "/a")
    ring.prep("mkdir", "/b")
    ring.prep("listdir", "/")
    assert ring.submit() == 3
    cqes = ring.completions()
    assert [c.op for c in cqes] == ["mkdir", "mkdir", "listdir"]
    assert [c.index for c in cqes] == [0, 1, 2]
    assert sorted(cqes[2].result) == ["a", "b"]


def test_order_preserved_across_submits(sc, ring):
    ring.prep("mkdir", "/a")
    ring.submit()
    ring.prep("mkdir", "/b")
    ring.submit()
    cqes = ring.completions()
    assert [(c.index, c.op) for c in cqes] == [(0, "mkdir"), (1, "mkdir")]


def test_partial_reap_keeps_remainder(sc, ring):
    for name in ("/a", "/b", "/c"):
        ring.prep("mkdir", name)
    ring.submit()
    first = ring.completions(max_entries=1)
    assert [c.index for c in first] == [0]
    assert ring.cq_pending == 2
    assert [c.index for c in ring.completions()] == [1, 2]


def test_failed_op_reports_error_without_stopping_batch(sc, ring):
    ring.prep("mkdir", "/ok")
    ring.prep("listdir", "/missing")  # independent entries: no link
    ring.prep("mkdir", "/also_ok")
    ring.submit()
    cqes = ring.completions()
    assert cqes[0].ok and cqes[2].ok
    assert not cqes[1].ok and cqes[1].error is not None and not cqes[1].canceled
    assert sc.exists("/also_ok")


# -- linked chains ---------------------------------------------------------------------


def test_link_fd_threads_open_write_close(sc, ring):
    ring.prep_write_file("/f", b"hello")
    ring.submit()
    cqes = ring.completions()
    assert [c.op for c in cqes] == ["open", "write", "close"]
    assert all(c.ok for c in cqes)
    assert sc.read_bytes("/f") == b"hello"


def test_chain_failure_cancels_the_rest(sc, ring):
    ring.prep("mkdir", "/missing/deep", link=True)  # fails: parent absent
    ring.prep("mkdir", "/never", link=True)
    ring.prep("mkdir", "/never2")
    ring.prep("mkdir", "/independent")  # next chain: unaffected
    ring.submit()
    cqes = ring.completions()
    assert cqes[0].error is not None
    assert cqes[1].canceled and cqes[2].canceled
    assert cqes[3].ok
    assert not sc.exists("/never") and sc.exists("/independent")


def test_severed_chain_autocloses_its_fd(sc, ring):
    sc.write_bytes("/f", b"x")
    ring.prep("open", "/f", O_RDONLY, link=True)
    ring.prep("listdir", "/missing", link=True)  # fails mid-chain
    ring.prep("close", LINK_FD)
    ring.submit()
    cqes = ring.completions()
    assert cqes[0].ok and cqes[1].error is not None and cqes[2].canceled
    # The chain's fd was reclaimed: the table is empty again.
    assert not sc._fds
    assert sc.meter.counters.get("uring.chain_autoclose") == 1


def test_link_fd_without_open_is_an_error(sc, ring):
    ring.prep("close", LINK_FD)
    ring.submit()
    (cqe,) = ring.completions()
    assert cqe.error is not None and not cqe.canceled


def test_batched_fd_usable_by_direct_calls(sc, ring):
    sc.write_bytes("/f", b"payload")
    ring.prep("open", "/f", O_RDONLY)
    ring.submit()
    (cqe,) = ring.completions()
    assert sc.read(cqe.result, 7) == b"payload"
    sc.close(cqe.result)


def test_maildir_chain_publishes_atomically(sc, ring):
    sc.mkdir("/spool")
    ring.prep("mkdir", "/spool/.tmp", link=True)
    ring.prep_write_file("/spool/.tmp/data", b"x", link=True)
    ring.prep("rename", "/spool/.tmp", "/spool/item")
    ring.submit()
    assert all(c.ok for c in ring.completions())
    assert sc.listdir("/spool") == ["item"]


# -- metering --------------------------------------------------------------------------


def test_submit_is_one_syscall_regardless_of_batch_size(sc, ring):
    sc.meter.reset()
    for i in range(20):
        ring.prep("mkdir", f"/d{i}")
    ring.submit()
    assert sc.meter.counters.get("syscall.io_uring_enter") == 1
    assert sc.meter.counters.get("syscall.total") == 1
    assert sc.meter.counters.get("syscall.mkdir") == 0  # batched, not direct
    assert sc.meter.counters.get("uring.sqe") == 20
    assert sc.meter.counters.get("uring.mkdir") == 20


def test_empty_submit_is_free(sc, ring):
    sc.meter.reset()
    assert ring.submit() == 0
    assert sc.meter.syscalls == 0


def test_batched_payload_bytes_still_billed(sc, ring):
    sc.meter.reset()
    ring.prep_write_file("/f", b"12345")
    ring.submit()
    assert sc.meter.counters.get("bytes.copied") == 5
    ring.prep("open", "/f", O_RDONLY, link=True)
    ring.prep("read", LINK_FD, 5, link=True)
    ring.prep("close", LINK_FD)
    ring.submit()
    assert sc.meter.counters.get("bytes.copied") == 10


def test_a_ring_readdirplus_bills_what_the_direct_call_bills(sc, ring):
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
        ring.prep("readdirplus", "/d")
        ring.submit()
        return ring.completions()[0].result

    batched, ring_bill = billed(through_ring)
    assert batched == direct
    assert direct_bill["bytes.copied"] == ring_bill["bytes.copied"] == 13
    crossing = {"syscall.total": 1, "ctxsw": 4}
    assert direct_bill == {**crossing, "syscall.readdirplus": 1, "bytes.copied": 13}
    assert ring_bill == {**crossing, "syscall.io_uring_enter": 1, "uring.sqe": 1, "uring.readdirplus": 1, "bytes.copied": 13}


def test_a_ring_getxattr_completes_with_the_value_or_the_direct_calls_nodata(sc, ring):
    """A buffer's declaration is probed beside its listing (§3.5): ``getxattr`` is a ring row, one entry each, a missing name a ``NoData`` completion."""
    sc.mkdir("/d")
    sc.setxattr("/d", "user.k", b"v")
    before = sc.meter.counters.snapshot()
    ring.prep("getxattr", "/d", "user.k")
    ring.prep("getxattr", "/d", "user.missing")
    ring.prep("listdir", "/d")
    ring.submit()
    present, absent, listing = ring.completions()
    assert (present.ok, present.result) == (True, b"v")
    assert isinstance(absent.error, NoData) and not absent.canceled
    assert listing.ok  # an unlinked entry's error touches nothing after it
    assert sc.meter.counters.snapshot().delta(before) == {"syscall.total": 1, "ctxsw": 4, "syscall.io_uring_enter": 1, "uring.sqe": 3, "uring.getxattr": 2, "uring.listdir": 1}
    with pytest.raises(NoData):
        sc.getxattr("/d", "user.missing")


def test_a_ring_watch_is_the_wd_the_direct_call_returns_and_rewatching_reuses_it(sc, ring):
    """Registering interest is not waiting: ``inotify_add_watch`` is a ring row, and the wd is the kernel's either way."""
    for name in ("/d", "/e"):
        sc.mkdir(name)
    ino = sc.inotify_init()
    direct = sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    ring.prep("inotify_add_watch", ino, "/d", EventMask.IN_CREATE | EventMask.IN_DELETE)
    ring.prep("inotify_add_watch", ino, "/e", EventMask.IN_CREATE)
    ring.prep("inotify_add_watch", ino, "/e", EventMask.IN_CREATE)
    ring.submit()
    again, fresh, rewatched = ring.completions()
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
    ring = user.io_uring_setup()
    ring.prep("inotify_add_watch", ino, path, EventMask.IN_CREATE, link=True)
    ring.prep("readdirplus", path)
    ring.submit()
    watch, read = ring.completions()
    assert type(watch.error) is type(direct.value) and read.canceled
    root.mkdir(path if path == "/missing" else "/locked/d/z")
    assert user.inotify_read(ino) == []  # neither attempt left a watch behind


# A submit bills its entries in one go, per op kind; the contract is the
# totals and the completions the entry-at-a-time implementation produced
# (the literals below were recorded from it, at the parent of the rewrite).


def _ok(sc, ring):
    sc.write_bytes("/seed", b"seeded")
    ring.prep("mkdir", "/d", link=True, user_data="obj")
    ring.prep_write_file("/d/f", b"hello", link=True, user_data="obj")
    ring.prep("rename", "/d", "/e", user_data="obj")
    ring.prep("open", "/seed", O_RDONLY, link=True)
    ring.prep("pread", LINK_FD, 4, 1, link=True)
    ring.prep("close", LINK_FD)
    ring.prep("listdir", "/e")


def _fails_mid_chain(sc, ring):
    ring.prep("mkdir", "/d", link=True)
    ring.prep_write_file("/missing/f", b"lost", link=True)
    ring.prep("rename", "/d", "/e")
    ring.prep("mkdir", "/independent")


def _link_fd_without_an_open(sc, ring):
    ring.prep("write", LINK_FD, b"nowhere", link=True)
    ring.prep("close", LINK_FD)
    ring.prep("mkdir", "/independent")


def _severed_with_an_fd_open(sc, ring):
    sc.write_bytes("/seed", b"seeded")
    ring.prep("open", "/seed", O_RDONLY, link=True)
    ring.prep("read", LINK_FD, 3, link=True)
    ring.prep("listdir", "/missing", link=True)
    ring.prep("close", LINK_FD)
    ring.prep_write_file("/after", b"next chain")


_ONE_CROSSING = {"ctxsw": 4, "syscall.io_uring_enter": 1, "syscall.total": 1}


@pytest.mark.parametrize(
    "batch, billed, completed",
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
def test_a_submit_bills_and_completes_what_entry_at_a_time_did(sc, ring, batch, billed, completed):
    batch(sc, ring)
    sc.meter.reset()
    ring.submit()
    assert sc.meter.counters.snapshot().values == _ONE_CROSSING | billed
    cqes = ring.completions()
    assert [cqe.index for cqe in cqes] == list(range(len(completed)))
    assert [(cqe.op, "canceled" if cqe.canceled else type(cqe.error).__name__ if cqe.error else cqe.result, cqe.user_data) for cqe in cqes] == completed
    assert not sc._fds


def test_a_paused_meter_bills_nothing_for_a_submit(sc, ring):
    ring.prep_write_file("/f", b"12345")
    sc.meter.reset()
    with sc.meter.pause():
        ring.submit()
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
    ring = sc.io_uring_setup(entries=5 * len(chains) + 1)
    for index, chain in enumerate(chains):
        for position, (op, args) in enumerate(chain):
            ring.prep(op, *args, link=position < len(chain) - 1, user_data=index)
    ring.submit()
    errors = [None] * len(chains)
    for cqe in ring.completions():
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


# -- validation ------------------------------------------------------------------------


def test_unknown_op_rejected(ring):
    with pytest.raises(InvalidArgument):
        ring.prep("spawn")


def test_queue_full_rejected(sc):
    """A full queue submits what is queued to make room; a chain longer than the whole ring is refused."""
    ring = sc.io_uring_setup(entries=2)
    ring.prep("mkdir", "/a")
    ring.prep("mkdir", "/b")
    before = sc.meter.counters.get("syscall.io_uring_enter")
    ring.prep("mkdir", "/c")  # no room: /a and /b cross first
    assert sc.meter.counters.get("syscall.io_uring_enter") - before == 1
    assert sc.exists("/b") and not sc.exists("/c") and ring.sq_pending == 1
    with pytest.raises(InvalidArgument):
        ring.prep_write_file("/a/x", b"data")  # three linked entries never fit in two: /c crosses, the chain is dropped
    assert ring.sq_pending == 0 and sc.exists("/c")
    assert ring.submit() == 0 and sc.listdir("/a") == [] and not sc._fds


def test_prep_write_file_queues_its_whole_chain_or_nothing(sc):
    # Regression: with fewer than three free slots the linked open was
    # queued before the queue-full error, leaving a dangling chain head
    # that the next submit ran (an empty file appeared), linked into the
    # next prepared entry, and whose descriptor leaked.  Now what is
    # queued ahead crosses first and the chain goes in whole.
    ring = sc.io_uring_setup(entries=4)
    sc.mkdir("/a")
    for name in ("/b", "/c", "/d"):
        ring.prep("mkdir", name)
    ring.prep_write_file("/a/x", b"data")  # one free slot: the three mkdirs cross first
    assert ring.sq_pending == 3 and sc.exists("/d") and sc.listdir("/a") == []
    assert [(cqe.op, cqe.ok) for cqe in ring.completions()] == [("mkdir", True)] * 3
    assert ring.submit() == 3
    assert all(cqe.ok for cqe in ring.completions())
    assert sc.read_bytes("/a/x") == b"data" and not sc._fds
    small = sc.io_uring_setup(entries=2)
    with pytest.raises(InvalidArgument):
        small.prep_write_file("/a/y", b"data")  # can never fit: nothing of it is queued
    assert small.sq_pending == 0 and small.submit() == 0
    assert sc.listdir("/a") == ["x"] and not sc._fds


@pytest.mark.parametrize("temp_exists", [False, True])
def test_a_refused_chain_leaves_nothing_linked_on_the_ring(sc, temp_exists):
    """Regression: a maildir object of eight files is a 26-entry chain; through a 20-entry ring it was
    refused with its first 19 entries still queued, the last linked, so the next unrelated entry ran
    chained to that debris — a 6-of-8-file temp landed, or (the temp already there) it completed canceled."""
    sc.mkdir("/objs")
    if temp_exists:
        sc.mkdir("/objs/.a")
    ring = sc.io_uring_setup(entries=20)
    with pytest.raises(InvalidArgument):
        ring.prep("mkdir", "/objs/.a", link=True)
        for index in range(8):
            ring.prep_write_file(f"/objs/.a/f{index}", b"x", link=True)
        ring.prep("rename", "/objs/.a", "/objs/a")
    assert ring.sq_pending == 0
    ring.prep("mkdir", "/objs/unrelated")
    ring.submit()
    assert [(cqe.op, cqe.ok) for cqe in ring.completions()] == [("mkdir", True)]
    assert sorted(sc.listdir("/objs")) == [".a"] * temp_exists + ["unrelated"]
    assert not sc._fds


# -- the ring keeps its own room --------------------------------------------------------
#
# The rule callers used to spell out before every chain — submit first when
# the chain would not fit behind what is queued — is the reference: the ring
# must submit the same batches, cross as often and complete the same entries,
# and a chain longer than the ring leaves the queue as the reference's
# pre-chain submit left it.


def _run_chains(ring, size: int, chains: list[int], *, reference: bool) -> tuple[list, list]:
    """Queue each chain of ``chains`` (its length) on ``ring``; the refused chains and the queue each refusal left."""
    refused = []
    for number, length in enumerate(chains):
        if reference:
            if ring.sq_pending and ring.sq_pending + length > size:
                ring.submit()
            if length > size:
                refused.append((number, [(sqe.op, sqe.user_data) for sqe in ring._sq]))
                continue
        try:
            for position in range(length):
                ring.prep("stat", "/", link=position < length - 1, user_data=(number, position))
        except InvalidArgument:
            refused.append((number, [(sqe.op, sqe.user_data) for sqe in ring._sq]))
    ring.submit()
    return refused, [(cqe.index, cqe.op, cqe.ok, cqe.user_data) for cqe in ring.completions()]


class Submissions:
    """The entries of every ring submission, per ring, read as it crosses (a ``uring_submit`` subscriber)."""

    def __init__(self) -> None:
        self.batches: dict[int, list[list]] = {}

    def on_uring_submit_enter(self, ring) -> None:
        if ring._sq:
            self.batches.setdefault(id(ring), []).append(list(ring._sq))


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
        last_chain, last = batch[-1].user_data
        assert len(batch) <= size and batch[0].user_data[1] == 0  # a batch starts on a chain's first entry ...
        assert last == chains[last_chain] - 1  # ... and ends on one's last: no chain straddles a submit


def test_bad_ring_size_rejected(sc):
    with pytest.raises(InvalidArgument):
        sc.io_uring_setup(entries=0)


# -- the pollable completion queue ------------------------------------------------------


def test_cq_plugs_into_epoll(sc, ring):
    ep = sc.epoll_create()
    sc.epoll_ctl(ep, EPOLL_CTL_ADD, ring)
    assert sc.epoll_wait(ep) == []
    ring.prep("mkdir", "/d")
    assert sc.epoll_wait(ep) == []  # prepared but not submitted
    ring.submit()
    # Level-triggered: ready until the CQ drains.
    assert sc.epoll_wait(ep) == [ring]
    assert sc.epoll_wait(ep) == [ring]
    ring.completions()
    assert sc.epoll_wait(ep) == []


def test_cq_edge_fires_wakeup(sc, ring):
    ep = sc.epoll_create()
    wakeups = []
    ep.wakeup = lambda: wakeups.append(1)
    sc.epoll_ctl(ep, EPOLL_CTL_ADD, ring)
    ring.prep("mkdir", "/a")
    ring.submit()
    assert len(wakeups) == 1
    ring.prep("mkdir", "/b")
    ring.submit()  # CQ was already non-empty: no second edge
    assert len(wakeups) == 1


def test_severed_chain_autocloses_under_race_detector(sc, ring):
    # YANCRACE=1 runs the suite with Syscalls methods patched by the
    # happens-before detector; the autoclose of a severed chain goes
    # through the same patched close and must still be billed exactly
    # once (and must not be misread as an app-level fd access).
    from repro.analysis.race import RaceDetector

    detector = RaceDetector().install()
    try:
        sc.write_bytes("/f", b"x")
        ring.prep("open", "/f", O_RDONLY, link=True)
        ring.prep("listdir", "/missing", link=True)  # fails mid-chain
        ring.prep("close", LINK_FD)
        ring.submit()
    finally:
        detector.uninstall()
    cqes = ring.completions()
    assert cqes[0].ok and cqes[1].error is not None and cqes[2].canceled
    assert not sc._fds
    assert sc.meter.counters.get("uring.chain_autoclose") == 1
    findings = detector.check()
    detector.reset()
    assert findings == []


# -- one ring per context, and only the ring counts its room ---------------------------

_SRC = Path(__file__).resolve().parents[2] / "src"
_RING_SPELLINGS = {"ring", "uring", "_ring"}


class _RingUses(ast.NodeVisitor):
    """Every ``io_uring_setup(...)`` call outside ``Syscalls.ring`` and every read of a ring's room outside the ring."""

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
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        receiver = node.value
        ringish = getattr(receiver, "id", None) in _RING_SPELLINGS or getattr(receiver, "attr", None) in _RING_SPELLINGS
        if self.module != "repro/vfs/uring.py" and (node.attr == "sq_pending" or (node.attr == "entries" and ringish)):
            self.found.append(f"{self.module}:{node.lineno}: a ring's .{node.attr} read outside the ring")
        self.generic_visit(node)


def test_a_context_has_one_ring_and_only_the_ring_counts_its_room():
    found = []
    for path in sorted(_SRC.rglob("*.py")):
        uses = _RingUses(path.relative_to(_SRC).as_posix())
        uses.visit(ast.parse(path.read_text(), str(path)))
        found += uses.found
    assert found == []
