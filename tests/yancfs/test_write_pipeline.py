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
from repro.dataplane import Match, Output, build_linear
from repro.drivers.openflow_driver import SwitchBinding
from repro.libyanc import LibYanc
from repro.openflow import messages as m
from repro.runtime import YancController
from repro.vfs import EventMask, FileExists, FileNotFound
from repro.vfs.cred import ROOT
from repro.vfs.notify import IN_ALL_EVENTS
from repro.yancfs.client import YancClient, chain_len, flow_spec_files, write_object, write_objects_batched
from repro.yancfs.recovery import fsck

_DIRENT = EventMask.IN_CREATE | EventMask.IN_DELETE | EventMask.IN_MOVED_FROM | EventMask.IN_MOVED_TO


# -- chain room is derived, and chains never straddle a submit --------------------------


def _packet_in(client: YancClient, apps: list[str], **kwargs) -> int:
    return client.write_packet_in_batched("s1", apps, 7, in_port=1, reason="no_match", buffer_id=3, total_len=4, data=b"\x00\x01\x02\x03", **kwargs)


@pytest.fixture
def client(yanc_sc) -> YancClient:
    client = YancClient(yanc_sc)
    client.create_switch("s1")
    return client


def test_a_ring_smaller_than_the_batch_submits_once_per_chain(client):
    """Five 17-entry chains through a 20-entry ring: only one fits at a time."""
    sc = client.sc
    apps = [f"app{i}" for i in range(5)]
    watches = {}
    for app in apps:
        client.subscribe_events("s1", app)
        watches[app] = sc.inotify_init()
        sc.inotify_add_watch(watches[app], client.events_path("s1", app), _DIRENT)
    assert chain_len({"in_port": "", "reason": "", "buffer_id": "", "total_len": "", "data": b""}, "rename") == 17
    before = sc.meter.counters.get("syscall.io_uring_enter")
    assert _packet_in(client, apps, uring=sc.io_uring_setup(entries=20)) == 5
    assert sc.meter.counters.get("syscall.io_uring_enter") - before == 5
    for app in apps:
        visible = [(e.mask & ~EventMask.IN_ISDIR, e.name) for e in sc.inotify_read(watches[app]) if not e.name.startswith(".")]
        assert visible == [(EventMask.IN_MOVED_TO, "pi_7")]
        assert [event.data for event in client.read_events("s1", app)] == [b"\x00\x01\x02\x03"]


def test_a_dedicated_ring_takes_the_whole_batch_in_one_crossing(client):
    """40 flows with long specs: the ring is sized from the objects, not from a guess."""
    sc = client.sc
    match = Match(in_port=1, dl_type=0x0800, nw_proto=6, tp_src=1, tp_dst=80, dl_vlan=2)
    entries = [(f"f{i}", match, [Output(1), Output(2), Output(3)]) for i in range(40)]
    spec = flow_spec_files(match, entries[0][2], priority=5, idle_timeout=1, hard_timeout=2)
    assert 40 * chain_len(spec, "version") > 256  # the floor alone would not hold the batch
    before = sc.meter.counters.get("syscall.io_uring_enter")
    assert client.create_flows_batched("s1", entries, priority=5, idle_timeout=1, hard_timeout=2) == 40
    assert sc.meter.counters.get("syscall.io_uring_enter") - before == 1
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
        ring = sc.io_uring_setup(entries=256)
        assert write_objects_batched(sc, objects, ring) == 3
        assert ring.cq_pending == 0 and ring.sq_pending == 0
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
