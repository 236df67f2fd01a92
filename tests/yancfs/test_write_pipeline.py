"""The write pipeline: every object is a directory of files, then one publish step.

One routine per syscall transport (``write_object``: a call per step,
``write_objects_batched``: one ring chain per object) plus the direct
store (``LibYanc``); these tests pin what the three share and where the
two syscall transports fail.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import pytest
from flow_strategies import action_lists, matches
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.apps import AccountingDaemon, TopologyDaemon
from repro.dataplane import Match, Output, build_linear
from repro.drivers.openflow_driver import SwitchBinding
from repro.libyanc import LibYanc
from repro.openflow import messages as m
from repro.perf import tracepoints
from repro.runtime import YancController
from repro.shell import Shell
from repro.vfs import EventMask, FileExists, FileNotFound, InvalidArgument
from repro.vfs.cred import ROOT
from repro.vfs.notify import IN_ALL_EVENTS
from repro.yancfs.client import YancClient, flow_spec_files, packet_in_files, write_object, write_objects_batched
from repro.yancfs.recovery import fsck
from tests.vfs.test_uring import Submissions

_DIRENT = EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO


def _next_batch_is_its_own(sc) -> bool:
    """A batch opened on the context's ring next runs and completes only its own entry."""
    batch = sc.ring.batch()
    batch.prep("stat", "/", user_data="own")
    return [(cqe.op, cqe.ok, cqe.user_data) for cqe in batch.submit()] == [("stat", True, "own")]


# -- the ring keeps its own room: chains never straddle a submit ------------------------


def _packet_in(client: YancClient, apps: list[str]) -> int:
    files = packet_in_files(1, "no_match", 3, 4, b"\x00\x01\x02\x03")
    return write_objects_batched(client.sc, [(f"{client.events_path('s1', app)}/pi_7", files, "rename") for app in apps])


@pytest.fixture
def client(yanc_sc) -> YancClient:
    client = YancClient(yanc_sc)
    client.create_switch("s1")
    return client


def test_a_ring_smaller_than_the_batch_submits_once_per_chain(client):
    """Five 19-entry chains through a 20-entry ring: only one fits at a time."""
    sc = client.sc
    apps = [f"app{i}" for i in range(5)]
    watches = {}
    for app in apps:
        client.subscribe_events("s1", app)
        watches[app] = sc.inotify_init()
        sc.inotify_add_watch(watches[app], client.events_path("s1", app), _DIRENT)
    sc._ring = sc.io_uring_setup(entries=20)  # the context's ring, small: mkdir, the directory's open, five files, its close, rename is 19 entries
    before = sc.meter.counters.get("syscall.io_uring_enter")
    assert _packet_in(client, apps) == 5
    assert sc.meter.counters.get("syscall.io_uring_enter") - before == 5
    for app in apps:
        visible = [(e.mask & ~EventMask.IN_ISDIR, e.name) for e in sc.inotify_read(watches[app]) if not e.name.startswith(".")]
        assert visible == [(EventMask.IN_MOVED_TO, "pi_7")]
        assert [event.data for event in client.read_events("s1", app)] == [b"\x00\x01\x02\x03"]


def test_a_batch_past_the_ring_crosses_once_per_ring_full_each_chain_whole(client):
    """40 flows of 42 entries each through the context's 1024-entry ring: 24 chains, then 16, none split."""
    sc = client.sc
    match = Match(in_port=1, dl_type=0x0800, nw_proto=6, tp_src=1, tp_dst=80, dl_vlan=2)
    entries = [(f"f{i}", match, [Output(1), Output(2), Output(3)]) for i in range(40)]
    spec = flow_spec_files(match, entries[0][2], priority=5, idle_timeout=1, hard_timeout=2)
    assert 2 + 3 * (len(spec) + 1) + 1 == 42  # mkdir, the directory's open, open/write/close per spec file and the version, its close
    submitted = Submissions()
    tracepoints.subscribe(submitted)
    try:
        before = sc.meter.counters.get("syscall.io_uring_enter")
        assert client.create_flows_batched("s1", entries, priority=5, idle_timeout=1, hard_timeout=2) == 40
        assert sc.meter.counters.get("syscall.io_uring_enter") - before == 2
    finally:
        tracepoints.unsubscribe(submitted)
    batches = submitted.batches[id(sc.ring)]
    assert [len(batch) for batch in batches] == [1008, 672]
    assert batches[0][0][0] == batches[1][0][0] == "mkdir"  # each batch starts on a chain's first entry ...
    assert [(batch[0][2], batch[-1][2]) for batch in batches] == [(0, 23), (24, 39)]  # ... and ends on one's last
    assert all(client.read_flow("s1", name).version == 1 for name, _m, _a in entries)


# -- one transport-equivalence property --------------------------------------------------


@contextmanager
def _flow_mods():
    """Every FlowMod a driver sends while the block runs (xid not yet assigned)."""
    sent: list[m.FlowMod] = []
    original = SwitchBinding.send

    def spy(self, msg):
        if isinstance(msg, m.FlowMod):
            sent.append(replace(msg))
        return original(self, msg)

    SwitchBinding.send = spy
    try:
        yield sent
    finally:
        SwitchBinding.send = original


def _write(transport: str, ctl: YancController, match, actions, spec) -> None:
    if transport == "file":
        ctl.client(cred=ROOT).create_flow("sw1", "f", match, actions, **spec)
    elif transport == "ring":
        assert ctl.client(cred=ROOT).create_flows_batched("sw1", [("f", match, actions)], **spec) == 1
    else:
        LibYanc(ctl.host.fs).create_flow("sw1", "f", match, actions, **spec)


def _observe(transport: str, match, actions, spec) -> dict:
    """Everything an observer can tell about one flow written through ``transport``."""
    ctl = YancController(build_linear(1)).start()
    sc = ctl.host.root_sc
    base = "/net/switches/sw1/flows"
    ino = sc.inotify_init()
    flows_wd = sc.inotify_add_watch(ino, base, IN_ALL_EVENTS)
    # The queue's empty -> non-empty edge is flows/'s IN_CREATE, delivered
    # before the new directory is populated: watch it from its first instant.
    ino.wakeup = lambda: sc.inotify_add_watch(ino, f"{base}/f", IN_ALL_EVENTS)
    with _flow_mods() as sent:
        _write(transport, ctl, match, actions, spec)
        events = sc.inotify_read(ino)
        ctl.run(0.2)
    node = ctl.host.fs.root.lookup("switches").lookup("sw1").lookup("flows").lookup("f")
    meta = {name: (inode.mode, inode.uid, inode.gid, inode.acl) for name, inode in [("", node), *node.children()]}
    return {
        "spec": ctl.client().read_flow("sw1", "f"),
        # What a driver keys on: directory-entry events, and the commit's IN_MODIFY.
        "flows/": [(int(e.mask), e.name) for e in events if e.wd == flows_wd and e.mask & _DIRENT],
        "flows/f": [(int(e.mask), e.name) for e in events if e.wd != flows_wd and (e.mask & _DIRENT or (e.mask & EventMask.IN_MODIFY and e.name == "version"))],
        "flow_mods": sent,
        "inodes": meta,
        "hardware": [(entry.match, entry.priority, tuple(entry.actions)) for entry in ctl.net.switches["sw1"].table.entries()],
    }


@pytest.mark.parametrize("transport", ["file", "ring", "libyanc"])
@settings(max_examples=25, deadline=None)
@given(
    match=matches(),
    actions=action_lists(),
    spec=st.fixed_dictionaries(
        {},
        optional={
            "priority": st.integers(min_value=0, max_value=0xFFFF),
            "idle_timeout": st.integers(min_value=0, max_value=30),
            "hard_timeout": st.integers(min_value=0, max_value=30),
        },
    ),
)
# The fixed cases of the older per-path parity tests:
@example(match=Match(dl_type=0x800, tp_dst=80, nw_proto=6), actions=[Output(2)], spec={"priority": 7})
@example(match=Match(dl_vlan=3), actions=[Output(1)], spec={"priority": 4, "idle_timeout": 5, "hard_timeout": 9})
@example(match=Match(), actions=[], spec={})
def test_every_transport_writes_the_same_flow(transport, match, actions, spec):
    seen = _observe(transport, match, actions, spec)
    reference = seen if transport == "file" else _observe("file", match, actions, spec)
    assert seen == reference
    assert seen["spec"].match == match and list(seen["spec"].actions) == actions and seen["spec"].version == 1
    assert seen["flows/"] == [(int(EventMask.IN_CREATE | EventMask.IN_ISDIR), "f")]
    created = ["version", *flow_spec_files(match, actions, **spec)]
    assert seen["flows/f"][1:] == [(int(EventMask.IN_CREATE), name) for name in created] + [(int(EventMask.IN_MODIFY), "version")]
    assert [(mod.match, mod.command, mod.actions) for mod in seen["flow_mods"]] == [(match, m.FlowModCommand.ADD, actions)]
    assert len(seen["hardware"]) == 1


# -- failure semantics of both syscall routines ------------------------------------------


def _files(n: int = 1) -> dict:
    return {"in_port": str(n), "reason": "no_match", "buffer_id": "0", "total_len": "1", "data": b"x"}


def test_direct_first_failure_raises_and_earlier_objects_stay_published(client):
    sc = client.sc
    client.subscribe_events("s1", "a")
    base = client.events_path("s1", "a")
    write_object(sc, f"{base}/pi_1", _files(), "rename")
    bad = dict(_files(), **{"nested/name": "x"})  # a file the dot-temp cannot hold
    with pytest.raises(FileNotFound):
        write_object(sc, f"{base}/pi_2", bad, "rename")
    assert sc.listdir(base) == ["pi_1", ".pi_2"]  # the failed object never published
    assert [event.seq for event in client.read_events("s1", "a", consume=False)] == [1]
    assert fsck(sc, "/net").stale_entries == [f"{base}/.pi_2"]
    assert sc.listdir(base) == ["pi_1"]


def test_direct_version_object_fails_before_its_commit(client):
    client.create_flow("s1", "f", Match(in_port=1), [Output(2)])
    with pytest.raises(FileExists):
        client.create_flow("s1", "f", Match(in_port=1), [Output(3)])
    spec = client.read_flow("s1", "f")
    assert (spec.version, spec.actions) == (1, (Output(2),))  # the duplicate's mkdir failed: nothing rewritten


@pytest.mark.parametrize("publish", ["version", "rename"])
def test_ring_failure_cancels_only_its_own_chain(client, publish):
    """A duplicate (fails at mkdir) and a bad value (fails at close, fd open) mid-batch."""
    sc = client.sc
    san = sanitizer.Sanitizer().install()
    try:
        if publish == "version":
            parent, files = f"{client.switch_path('s1')}/flows", flow_spec_files(Match(in_port=1), [Output(2)], priority=3)
            bad = dict(files, priority="99999", cookie="1")  # rejected when the priority file closes
        else:
            client.subscribe_events("s1", "a")
            parent, files = client.events_path("s1", "a"), _files()
            bad = dict(_files(), **{"nested/name": "x"})  # the open fails
        objects = [(f"{parent}/{name}", bad if name == "bad" else files, publish) for name in ("o1", "dup", "dup", "bad", "o2")]
        assert write_objects_batched(sc, objects) == 3
        assert _next_batch_is_its_own(sc)
        assert sorted(name for name in sc.listdir(parent) if not name.startswith(".")) == (["bad"] if publish == "version" else []) + ["dup", "o1", "o2"]
        if publish == "version":
            assert [client.read_flow("s1", name).version for name in ("o1", "dup", "o2", "bad")] == [1, 1, 1, 0]
            assert "cookie" not in sc.listdir(f"{parent}/bad")  # the rest of the chain never ran
        assert not san.check(), "a canceled chain left an fd open"
    finally:
        san.uninstall()


def test_publish_none_leaves_a_staged_flow_the_driver_ignores():
    ctl = YancController(build_linear(1)).start()
    yc = ctl.client()
    for staged in (
        lambda: write_object(yc.sc, yc.flow_path("sw1", "direct"), flow_spec_files(Match(in_port=1), [Output(1)]), None),
        lambda: write_objects_batched(yc.sc, [(yc.flow_path("sw1", "ringed"), flow_spec_files(Match(in_port=2), [Output(1)]), None)]),
    ):
        staged()
    ctl.run(0.2)
    assert [yc.read_flow("sw1", name).version for name in ("direct", "ringed")] == [0, 0]
    assert len(ctl.net.switches["sw1"].table) == 0
    yc.commit_flow("sw1", "direct")
    yc.commit_flow("sw1", "ringed")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 2


# -- a batch belongs to its caller: what one abandons or leaves unread reaches no one else --


def _abandon_an_object(sc) -> None:
    """Queue one maildir object's chain, then raise on the next object's content, which cannot be encoded."""
    with pytest.raises(AttributeError):
        write_objects_batched(sc, [("/tmp/objs/a", {"x": b"1"}, "rename"), ("/tmp/objs/b", {"y": 7}, "rename")])


def test_an_object_batch_that_raises_while_preparing_runs_nothing(sc):
    sc.makedirs("/tmp/objs")
    _abandon_an_object(sc)
    batch = sc.ring.batch()
    batch.prep("mkdir", "/other", user_data="other")
    assert [(cqe.op, cqe.user_data) for cqe in batch.submit()] == [("mkdir", "other")]
    assert sc.listdir("/tmp/objs") == [] and not sc._fds


def test_a_batch_refused_for_an_over_long_chain_leaves_the_next_readers_their_own_completions(linear_controller):
    ctl = linear_controller
    acct = AccountingDaemon(ctl.host.process(), ctl.sim, interval=60.0).start()
    sc, root = acct.sc, ctl.host.root_sc
    root.makedirs("/d/e")
    root.makedirs("/tmp/objs", 0o777)

    def refused(prefix: str) -> None:
        small = [(f"/tmp/objs/{prefix}{index}", {"f": b"x"}, "rename") for index in range(200)]
        big = (f"/tmp/objs/{prefix}big", {f"f{index}": b"x" for index in range(400)}, "rename")  # 1,205 linked entries: more than the ring
        with pytest.raises(InvalidArgument):
            write_objects_batched(sc, [*small, big])

    refused("a")
    assert acct._read("listdir", [("d", "/d"), ("e", "/d/e")]) == {"d": ["e"], "e": []}
    refused("b")
    assert Shell(sc).run("find /d") == "/d\n/d/e"
    assert len(sc.listdir("/tmp/objs")) == 0 and not sc._fds  # refused before any of the batch crossed


def test_topod_counts_the_beacons_it_spooled_and_no_one_elses_closes():
    net = build_linear(3)
    ctl = YancController(net).start()
    topod = TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ctl.run(1.0)  # the ports are known
    sc = topod.sc
    ctl.host.root_sc.makedirs("/tmp/objs", 0o777)
    _abandon_an_object(sc)  # another consumer's chain on the same ring: two closes, never submitted
    other = sc.ring.batch()
    other.prep_write_file("/tmp/objs/note", b"x")  # another consumer's chain that crosses: one close
    other.submit()

    def spooled() -> int:
        return sum(len([name for name in sc.listdir(f"{topod.yc.switch_path(switch)}/packet_out") if topod.app_name in name]) for switch in topod.yc.switches())

    before, sent = spooled(), topod.beacons_sent
    topod.send_beacons()
    assert topod.beacons_sent - sent == spooled() - before == sum(len(switch.ports) for switch in net.switches.values())
    assert sc.listdir("/tmp/objs") == ["note"]
