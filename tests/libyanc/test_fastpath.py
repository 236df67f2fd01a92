"""libyanc: the no-syscall fastpath (paper section 8.1)."""

import pytest

from repro.dataplane import Match, Output, build_linear
from repro.libyanc import LibYanc
from repro.runtime import YancController
from repro.vfs import EventMask, FileExists


@pytest.fixture
def rig():
    ctl = YancController(build_linear(2)).start()
    lib = LibYanc(ctl.host.fs, counters=ctl.host.vfs.counters)
    return ctl, lib


def test_create_flow_writes_whole_directory(rig):
    ctl, lib = rig
    lib.create_flow("sw1", "fast", Match(dl_type=0x800, tp_dst=443, nw_proto=6), [Output(2)], priority=9, idle_timeout=5)
    yc = ctl.client()
    spec = yc.read_flow("sw1", "fast")
    assert spec.priority == 9
    assert spec.match.tp_dst == 443
    assert spec.version == 1


def test_fastpath_flow_reaches_hardware(rig):
    ctl, lib = rig
    lib.create_flow("sw1", "fast", Match(dl_type=0x800), [Output(2)], priority=9)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1


def test_fastpath_costs_zero_syscalls(rig):
    ctl, lib = rig
    meter_counters = ctl.host.root_sc.meter.counters
    before = meter_counters.get("syscall.total")
    lib.create_flow("sw1", "fast", Match(dl_type=0x800), [Output(2)])
    assert meter_counters.get("syscall.total") == before
    assert lib.counters.get("libyanc.op") > 0


def test_file_path_costs_many_syscalls(rig):
    """The contrast the paper draws: the same flow via files is dozens of
    syscalls, each a context switch."""
    ctl, _lib = rig
    from repro.perf import SyscallMeter

    meter = SyscallMeter()
    yc = ctl.client(meter=meter)
    yc.create_flow("sw1", "slow", Match(dl_type=0x800), [Output(2)], priority=5)
    assert meter.syscalls >= 10
    assert meter.context_switches >= 40


def test_fastpath_emits_same_events_as_file_path(rig):
    """Drivers cannot tell the two paths apart (same watch events)."""
    ctl, lib = rig
    sc = ctl.host.root_sc
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
    lib.create_flow("sw1", "fast", Match(dl_type=0x800), [Output(2)])
    assert [e.name for e in sc.inotify_read(ino)] == ["fast"]


def test_fastpath_validation_still_applies(rig):
    _ctl, lib = rig
    from repro.vfs import InvalidArgument

    with pytest.raises(InvalidArgument):
        lib.create_flow("sw1", "bad", Match(dl_type=0x800), [Output(2)], priority=99999)


def test_duplicate_flow_rejected(rig):
    _ctl, lib = rig
    lib.create_flow("sw1", "f", Match(), [Output(1)])
    with pytest.raises(FileExists):
        lib.create_flow("sw1", "f", Match(), [Output(1)])


def test_commit_increments_version(rig):
    ctl, lib = rig
    lib.stage_flow("sw1", "f", Match(), [Output(1)])
    assert lib.commit_flow("sw1", "f") == 1
    assert lib.commit_flow("sw1", "f") == 2
    assert ctl.client().read_flow("sw1", "f").version == 2


def test_delete_flow_removes_from_tree_and_hw(rig):
    ctl, lib = rig
    lib.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    lib.delete_flow("sw1", "f")
    ctl.run(0.2)
    assert ctl.client().flows("sw1") == []
    assert len(ctl.net.switches["sw1"].table) == 0


def _stage_all(lib, switch, entries, **spec):
    """A bulk create, spelled the one way left: stage every entry, then one flush."""
    for name, match, actions in entries:
        lib.stage_flow(switch, name, match, actions, **spec)


def test_bulk_create(rig):
    ctl, lib = rig
    entries = [(f"bulk{i}", Match(dl_vlan=i), [Output(1)]) for i in range(10)]
    _stage_all(lib, "sw1", entries, priority=3)
    assert len(lib.flush()) == 10
    ctl.run(0.3)
    assert len(ctl.net.switches["sw1"].table) == 10


def test_flow_counters_readable(rig):
    """A fastpath flow gets the ``counters/`` the file path's ``mkdir`` would have made."""
    ctl, lib = rig
    lib.create_flow("sw1", "f", Match(), [Output(1)])
    assert ctl.client().flow_counters("sw1", "f") == {"packet_count": 0, "byte_count": 0}


# -- bugfix regressions (fastpath v2) --------------------------------------------------


def test_delete_flow_events_match_file_path_rm_r(rig):
    """Recursive delete: a watcher on counters/ sees the same IN_DELETE
    stream whether the flow dies via libyanc or via ``rm -r``.

    Regression: delete_flow used to detach only direct children (with
    events suppressed), so counters/ entries never detached and its
    watchers saw nothing.
    """
    ctl, lib = rig
    sc = ctl.host.root_sc
    yc = ctl.client()
    lib.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    yc.create_flow("sw2", "f", Match(dl_type=0x800), [Output(2)])
    mask = EventMask.IN_DELETE | EventMask.IN_DELETE_SELF
    streams = {}
    for switch in ("sw1", "sw2"):
        ino = sc.inotify_init()
        base = f"/net/switches/{switch}/flows"
        sc.inotify_add_watch(ino, base, mask)
        sc.inotify_add_watch(ino, f"{base}/f", mask)
        sc.inotify_add_watch(ino, f"{base}/f/counters", mask)
        streams[switch] = ino
    lib.delete_flow("sw1", "f")
    yc.delete_flow("sw2", "f")
    fast = [(int(e.mask), e.name) for e in sc.inotify_read(streams["sw1"])]
    file_path = [(int(e.mask), e.name) for e in sc.inotify_read(streams["sw2"])]
    assert fast == file_path
    deleted_names = [name for _m, name in fast]
    assert "packet_count" in deleted_names and "byte_count" in deleted_names


def test_create_and_modify_events_match_file_path(rig):
    """Create/modify parity: flows-dir IN_CREATE and version IN_MODIFY are
    byte-identical across the two paths, and so is the resulting tree."""
    ctl, lib = rig
    sc = ctl.host.root_sc
    yc = ctl.client()
    create_inos = {}
    for switch in ("sw1", "sw2"):
        ino = sc.inotify_init()
        sc.inotify_add_watch(ino, f"/net/switches/{switch}/flows", EventMask.IN_CREATE)
        create_inos[switch] = ino
    lib.create_flow("sw1", "f", Match(dl_type=0x800, tp_dst=80, nw_proto=6), [Output(2)], priority=7)
    yc.create_flow("sw2", "f", Match(dl_type=0x800, tp_dst=80, nw_proto=6), [Output(2)], priority=7)
    fast = [(int(e.mask), e.name) for e in sc.inotify_read(create_inos["sw1"])]
    file_path = [(int(e.mask), e.name) for e in sc.inotify_read(create_inos["sw2"])]
    assert fast == file_path
    assert yc.read_flow("sw1", "f") == yc.read_flow("sw2", "f")
    modify_inos = {}
    for switch in ("sw1", "sw2"):
        ino = sc.inotify_init()
        sc.inotify_add_watch(ino, f"/net/switches/{switch}/flows/f", EventMask.IN_MODIFY)
        modify_inos[switch] = ino
    lib.commit_flow("sw1", "f")
    yc.commit_flow("sw2", "f")
    fast = [(int(e.mask), e.name) for e in sc.inotify_read(modify_inos["sw1"])]
    file_path = [(int(e.mask), e.name) for e in sc.inotify_read(modify_inos["sw2"])]
    assert fast == file_path == [(int(EventMask.IN_MODIFY), "version")]


def test_set_validated_content_keeps_rollback_point(rig):
    """Regression: create_flow used to poke AttributeFile._last_valid by
    hand; the public mutator must validate first and record the new
    rollback point only on success."""
    from repro.vfs import InvalidArgument

    _ctl, lib = rig
    lib.create_flow("sw1", "f", Match(), [Output(1)], priority=5)
    attr = lib._flow("sw1", "f").lookup("priority")
    attr.set_validated_content("7")
    assert attr.read_all() == b"7"
    assert attr._last_valid == b"7"
    with pytest.raises(InvalidArgument):
        attr.set_validated_content("99999")
    assert attr.read_all() == b"7"
    assert attr._last_valid == b"7"
    lib.commit_flow("sw1", "f")  # make the hand-edited spec §3.4-visible


def test_bulk_create_plumbs_timeouts(rig):
    """Regression: bulk_create silently dropped idle/hard timeouts."""
    ctl, lib = rig
    entries = [(f"b{i}", Match(dl_vlan=i), [Output(1)]) for i in range(3)]
    _stage_all(lib, "sw1", entries, priority=4, idle_timeout=5, hard_timeout=9)
    assert len(lib.flush()) == 3
    for i in range(3):
        spec = ctl.client().read_flow("sw1", f"b{i}")
        assert spec.priority == 4
        assert spec.idle_timeout == 5.0
        assert spec.hard_timeout == 9.0
        assert spec.version == 1


def test_bulk_create_commits_after_all_specs_land(rig, monkeypatch):
    """Regression: bulk_create used to commit per entry, interleaving
    visibility points with later entries' spec writes."""
    _ctl, lib = rig
    order = []
    orig_create, orig_commit = LibYanc.stage_flow, LibYanc.commit_flow

    def spy_create(self, switch, name, *args, **kwargs):
        order.append(("create", name))
        return orig_create(self, switch, name, *args, **kwargs)

    def spy_commit(self, switch, name):
        order.append(("commit", name))
        return orig_commit(self, switch, name)

    monkeypatch.setattr(LibYanc, "stage_flow", spy_create)
    monkeypatch.setattr(LibYanc, "commit_flow", spy_commit)
    entries = [(f"b{i}", Match(dl_vlan=i), [Output(1)]) for i in range(3)]
    _stage_all(lib, "sw1", entries)
    lib.flush()
    creates = [i for i, (kind, _n) in enumerate(order) if kind == "create"]
    commits = [i for i, (kind, _n) in enumerate(order) if kind == "commit"]
    assert commits and max(creates) < min(commits)
    assert [n for kind, n in order if kind == "commit"] == ["b0", "b1", "b2"]


def test_bulk_create_uncommitted_stays_staged(rig):
    ctl, lib = rig
    entries = [(f"b{i}", Match(dl_vlan=i), [Output(1)]) for i in range(2)]
    _stage_all(lib, "sw1", entries)
    assert ctl.client().read_flow("sw1", "b0").version == 0
    assert lib.flush() == [("sw1", "b0", 1), ("sw1", "b1", 1)]


# -- write-behind commits --------------------------------------------------------------


def test_stage_flow_defers_the_visibility_point(rig):
    ctl, lib = rig
    lib.stage_flow("sw1", "w", Match(dl_type=0x800), [Output(2)])
    assert ctl.client().read_flow("sw1", "w").version == 0
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 0  # invisible until flushed
    assert lib.flush() == [("sw1", "w", 1)]
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1


def test_flush_skips_flows_deleted_since_staging(rig):
    _ctl, lib = rig
    lib.stage_flow("sw1", "gone", Match(), [Output(1)])
    lib.delete_flow("sw1", "gone")
    assert lib.flush() == []


def test_direct_commit_clears_the_dirty_mark(rig):
    _ctl, lib = rig
    lib.stage_flow("sw1", "w", Match(), [Output(1)])
    lib.commit_flow("sw1", "w")
    assert lib.flush() == []
