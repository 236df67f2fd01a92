"""IoUring: batched submission, linked chains, completion ordering, polling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import tracepoints
from repro.vfs import EPOLL_CTL_ADD, LINK_FD, FsError, InvalidArgument, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
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
    st.tuples(st.sampled_from(["mkdir", "rmdir", "unlink", "stat", "lstat", "exists", "listdir", "scandir"]), st.tuples(_PATH)),
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
    ring = sc.io_uring_setup(entries=2)
    ring.prep("mkdir", "/a")
    ring.prep("mkdir", "/b")
    with pytest.raises(InvalidArgument):
        ring.prep("mkdir", "/c")
    ring.submit()
    ring.prep("mkdir", "/c")  # room again after the flush


def test_prep_write_file_queues_its_whole_chain_or_nothing(sc):
    # Regression: with fewer than three free slots the linked open was
    # queued before the queue-full error, leaving a dangling chain head
    # that the next submit ran (an empty file appeared), linked into the
    # next prepared entry, and whose descriptor leaked.
    ring = sc.io_uring_setup(entries=4)
    sc.mkdir("/a")
    for name in ("/b", "/c", "/d"):
        ring.prep("mkdir", name)
    with pytest.raises(InvalidArgument):
        ring.prep_write_file("/a/x", b"data")
    assert ring.sq_pending == 3
    ring.prep("mkdir", "/e")  # the slot the failed chain did not take
    assert ring.submit() == 4
    assert all(cqe.ok for cqe in ring.completions())
    assert sc.listdir("/a") == [] and not sc._fds
    ring.prep_write_file("/a/x", b"data")  # room again: the chain runs whole
    ring.submit()
    assert sc.read_bytes("/a/x") == b"data" and not sc._fds


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
