"""inotify-style monitoring (paper section 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import tracepoints
from repro.vfs import IN_ALL_EVENTS, EventMask, FsError, InvalidArgument, NotifyEvent, Syscalls, VirtualFileSystem


def _events(sc, ino):
    return sc.inotify_read(ino)


def test_create_event_on_directory_watch(sc):
    ino = sc.inotify_init()
    sc.mkdir("/d")
    sc.inotify_add_watch(ino, "/d", IN_ALL_EVENTS)
    sc.write_text("/d/f", "x")
    masks = [(e.mask & ~EventMask.IN_ISDIR, e.name) for e in _events(sc, ino)]
    assert (EventMask.IN_CREATE, "f") in masks
    assert (EventMask.IN_CLOSE_WRITE, "f") in masks


def test_mkdir_event_carries_isdir(sc):
    ino = sc.inotify_init()
    sc.mkdir("/d")
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    sc.mkdir("/d/sub")
    events = _events(sc, ino)
    assert len(events) == 1
    assert events[0].is_dir
    assert events[0].name == "sub"


def test_modify_event_on_file_watch(sc):
    sc.write_text("/f", "orig")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_MODIFY)
    sc.write_text("/f", "changed")
    assert any(e.mask & EventMask.IN_MODIFY for e in _events(sc, ino))


def test_mask_filters_events(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/d", EventMask.IN_DELETE)
    sc.write_text("/d/f", "x")  # creates: filtered out
    assert _events(sc, ino) == []
    sc.unlink("/d/f")
    events = _events(sc, ino)
    assert len(events) == 1
    assert events[0].mask & EventMask.IN_DELETE


def test_delete_self_on_watched_file(sc):
    sc.write_text("/f", "x")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_DELETE_SELF)
    sc.unlink("/f")
    events = _events(sc, ino)
    assert any(e.mask & EventMask.IN_DELETE_SELF and e.name is None for e in events)


def test_rename_pairs_moved_from_to_with_cookie(sc):
    sc.mkdir("/d")
    sc.write_text("/d/a", "x")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/d", IN_ALL_EVENTS)
    sc.rename("/d/a", "/d/b")
    events = _events(sc, ino)
    moved_from = [e for e in events if e.mask & EventMask.IN_MOVED_FROM]
    moved_to = [e for e in events if e.mask & EventMask.IN_MOVED_TO]
    assert moved_from[0].name == "a"
    assert moved_to[0].name == "b"
    assert moved_from[0].cookie == moved_to[0].cookie != 0


def test_attrib_event_on_chmod(sc):
    sc.write_text("/f", "x")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_ATTRIB)
    sc.chmod("/f", 0o600)
    assert any(e.mask & EventMask.IN_ATTRIB for e in _events(sc, ino))


def test_access_event_on_read(sc):
    sc.write_text("/f", "x")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_ACCESS)
    sc.read_text("/f")
    assert any(e.mask & EventMask.IN_ACCESS for e in _events(sc, ino))


def test_two_instances_both_receive(sc):
    sc.mkdir("/d")
    first = sc.inotify_init()
    second = sc.inotify_init()
    sc.inotify_add_watch(first, "/d", EventMask.IN_CREATE)
    sc.inotify_add_watch(second, "/d", EventMask.IN_CREATE)
    sc.mkdir("/d/x")
    assert len(_events(sc, first)) == 1
    assert len(_events(sc, second)) == 1


def test_rm_watch_stops_delivery(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    wd = sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    ino.rm_watch(wd)
    sc.mkdir("/d/x")
    assert _events(sc, ino) == []


def test_rm_unknown_watch_rejected(sc):
    ino = sc.inotify_init()
    with pytest.raises(InvalidArgument):
        ino.rm_watch(42)


def test_rewatch_same_inode_returns_same_wd(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    wd1 = sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    wd2 = sc.inotify_add_watch(ino, "/d", EventMask.IN_DELETE)
    assert wd1 == wd2
    sc.mkdir("/d/x")
    assert _events(sc, ino) == []  # mask was replaced


def test_wakeup_fires_once_per_batch(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    wakeups = []
    ino.wakeup = lambda: wakeups.append(1)
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    sc.mkdir("/d/a")
    sc.mkdir("/d/b")
    assert wakeups == [1]  # queue went non-empty exactly once
    ino.read()
    sc.mkdir("/d/c")
    assert wakeups == [1, 1]


def test_close_drops_watches_and_queue(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    sc.mkdir("/d/a")
    ino.close()
    assert ino.read() == []
    sc.mkdir("/d/b")
    assert ino.read() == []


def test_empty_mask_rejected(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    with pytest.raises(InvalidArgument):
        sc.inotify_add_watch(ino, "/d", EventMask(0))


def test_events_free_for_semantic_population(yanc_sc):
    """The 'comes free' property: auto-populated children emit events."""
    ino = yanc_sc.inotify_init()
    yanc_sc.inotify_add_watch(ino, "/net/switches", EventMask.IN_CREATE)
    yanc_sc.mkdir("/net/switches/sw1")
    created = [e.name for e in yanc_sc.inotify_read(ino)]
    assert created == ["sw1"]
    # and inside the new switch, the auto-created children are watchable
    yanc_sc.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
    yanc_sc.mkdir("/net/switches/sw1/flows/f1")
    assert [e.name for e in yanc_sc.inotify_read(ino)] == ["f1"]


# -- coalescing and the bounded queue ----------------------------------------


def test_identical_consecutive_events_coalesce(sc):
    sc.write_text("/f", "v0")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_MODIFY)
    for i in range(10):
        sc.write_text("/f", f"v{i}")
    events = _events(sc, ino)
    modifies = [e for e in events if e.mask & EventMask.IN_MODIFY and e.name is None]
    assert len(modifies) == 1  # ten identical IN_MODIFYs -> one record
    assert ino.coalesced >= 9


def test_distinct_events_are_not_coalesced(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    sc.write_text("/d/a", "x")
    sc.write_text("/d/b", "x")
    names = [e.name for e in _events(sc, ino) if e.mask & EventMask.IN_CREATE]
    assert names == ["a", "b"]
    assert ino.coalesced == 0


def test_queue_overflow_appends_single_marker(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init(max_queued_events=4)
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    for i in range(10):
        sc.write_text(f"/d/f{i}", "x")  # distinct names: no coalescing
    events = _events(sc, ino)
    assert len(events) == 5  # 4 real events + the overflow marker
    assert events[-1].mask == EventMask.IN_Q_OVERFLOW
    assert events[-1].wd == -1
    assert ino.overflows == 1
    assert ino.dropped == 10 - 4


def test_overflow_rearms_after_read(sc):
    sc.mkdir("/d")
    ino = sc.inotify_init(max_queued_events=2)
    sc.inotify_add_watch(ino, "/d", EventMask.IN_CREATE)
    for i in range(5):
        sc.write_text(f"/d/a{i}", "x")
    first = _events(sc, ino)
    assert first[-1].mask == EventMask.IN_Q_OVERFLOW
    for i in range(5):
        sc.write_text(f"/d/b{i}", "x")
    second = _events(sc, ino)
    assert second[-1].mask == EventMask.IN_Q_OVERFLOW
    assert ino.overflows == 2  # one marker per overflow episode


def test_rename_cookie_shared_across_watchers(sc):
    sc.makedirs("/src")
    sc.makedirs("/dst")
    sc.write_text("/src/f", "x")
    watcher_src = sc.inotify_init()
    watcher_dst = sc.inotify_init()
    sc.inotify_add_watch(watcher_src, "/src", EventMask.IN_MOVED_FROM)
    sc.inotify_add_watch(watcher_dst, "/dst", EventMask.IN_MOVED_TO)
    sc.rename("/src/f", "/dst/g")
    moved_from = [e for e in _events(sc, watcher_src) if e.mask & EventMask.IN_MOVED_FROM]
    moved_to = [e for e in _events(sc, watcher_dst) if e.mask & EventMask.IN_MOVED_TO]
    assert moved_from[0].name == "f"
    assert moved_to[0].name == "g"
    # the two halves pair up even when seen by different instances
    assert moved_from[0].cookie == moved_to[0].cookie != 0


def test_coalescing_counts_published_to_perfcounters(vfs, sc):
    sc.write_text("/f", "v")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/f", EventMask.IN_MODIFY)
    for _ in range(5):
        sc.write_text("/f", "same-shape-event")
    assert vfs.counters.get("notify.coalesced") >= 4


# -- the hub's int masks against the API's enum ------------------------------------------


class _Deliveries:
    """Subscriber to the ``deliver`` trace point: every event handed to an instance, before coalescing."""

    def __init__(self):
        self.seen = []

    def on_deliver(self, instance, event):
        self.seen.append((instance, event))


WATCHED = ("/d", "/d/f", "/d/sub", "/d/sub/g")
_names = st.sampled_from(["/d/f", "/d/h", "/d/sub", "/d/sub/g", "/d/link"])
_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["write_text"]), _names, st.sampled_from(["a", "bb"])),
        st.tuples(st.sampled_from(["read_text", "mkdir", "rmdir", "unlink", "listdir"]), _names),
        st.tuples(st.sampled_from(["rename", "symlink", "link"]), _names, _names),
        st.tuples(st.sampled_from(["chmod"]), _names, st.sampled_from([0o600, 0o755])),
    ),
    max_size=25,
)
_bits = st.integers(min_value=1, max_value=0x0FFF)
_masks = st.one_of(_bits, _bits.map(EventMask), _bits.map(lambda bits: EventMask(bits) | EventMask.IN_ISDIR))


@settings(max_examples=120, deadline=None)
@given(_ops, _masks)
def test_a_masked_watch_sees_the_full_stream_filtered(ops, mask):
    sc = Syscalls(VirtualFileSystem())
    sc.makedirs("/d/sub")
    sc.write_text("/d/f", "x")
    sc.write_text("/d/sub/g", "x")
    full, masked = sc.inotify_init(), sc.inotify_init()
    paths = {instance: {sc.inotify_add_watch(instance, path, m): path for path in WATCHED} for instance, m in ((full, IN_ALL_EVENTS), (masked, mask))}
    recorder = _Deliveries()
    tracepoints.subscribe(recorder)
    try:
        for op, *args in ops:
            try:
                getattr(sc, op)(*args)
            except FsError:
                pass
    finally:
        tracepoints.unsubscribe(recorder)
    streams = {full: [], masked: []}
    for instance, event in recorder.seen:
        assert type(event) is NotifyEvent and type(event.mask) is EventMask
        streams[instance].append((paths[instance][event.wd], event.mask, event.name, event.cookie))
    isdir = int(EventMask.IN_ISDIR)
    expected = [
        (path, EventMask(int(seen) & int(mask) & ~isdir | int(seen) & isdir), name, cookie)
        for path, seen, name, cookie in streams[full]
        if int(seen) & int(mask) & ~isdir
    ]
    assert streams[masked] == expected
    assert sc.vfs.counters.get("notify.events") == len(recorder.seen)


def test_an_emit_nobody_watches_delivers_nothing(vfs, sc):
    sc.mkdir("/elsewhere")
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/elsewhere", IN_ALL_EVENTS)
    recorder = _Deliveries()
    tracepoints.subscribe(recorder)
    try:
        sc.makedirs("/d/sub")
        sc.write_text("/d/sub/f", "x")
        sc.read_text("/d/sub/f")
        sc.chmod("/d/sub/f", 0o600)
        sc.rename("/d/sub/f", "/d/g")
        sc.unlink("/d/g")
        sc.rmdir("/d/sub")
    finally:
        tracepoints.unsubscribe(recorder)
    assert recorder.seen == [] and sc.inotify_read(ino) == []
    assert vfs.counters.get("notify.events") == 0
