"""The read pipeline: an object is read back in one crossing, and parity is the contract.

``read_object`` (one ``readdirplus``) replaces "``listdir``, then open +
read + close of each file".  That loop stays here as the reference:
every test runs both and requires the same bytes, the same exception,
the same fanotify audit trail and the same inotify events — only the
number of system calls may differ.
"""

from __future__ import annotations

import pytest
from flow_strategies import action_lists, matches
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataplane import Match, Output, build_linear
from repro.dataplane.actions import parse_action
from repro.runtime import YancController
from repro.vfs import Acl, AclEntry, AclTag, Credentials, EventMask, FanMask, FileType, FsError, PermissionDenied, Syscalls
from repro.vfs.notify import IN_ALL_EVENTS
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import FlowSpec, PacketInEvent, YancClient, mount_yancfs, read_object

ALICE = Credentials(uid=1000, gid=1000)


# -- the reference: what every reader did before there was one ---------------------------


def loop_read(sc: Syscalls, path: str) -> dict[str, bytes]:
    """A ``listdir``, then open + read + close of each regular file."""
    return {name: sc.read_bytes(f"{path}/{name}") for name in sc.listdir(path) if sc.lstat(f"{path}/{name}").ftype is FileType.REGULAR}


def loop_read_flow(yc: YancClient, switch: str, name: str) -> FlowSpec:
    path = yc.flow_path(switch, name)
    files: dict[str, str] = {}
    action_files: list[tuple[str, str, str]] = []
    for entry in yc.sc.listdir(path):
        if entry == "counters":
            continue
        content = yc.sc.read_text(f"{path}/{entry}")
        files[entry] = content
        if entry.startswith("action."):
            kind, _, order = entry.partition(".")[2].partition(".")
            action_files.append((order or "0", f"action.{kind}", content))
    return FlowSpec(
        match=Match.from_files(files),
        actions=tuple(parse_action(fname, content) for _order, fname, content in sorted(action_files, key=lambda item: int(item[0]))),
        priority=int(files.get("priority", "32768").strip() or "32768"),
        idle_timeout=float(files.get("timeout", files.get("idle_timeout", "0")).strip() or "0"),
        hard_timeout=float(files.get("hard_timeout", "0").strip() or "0"),
        cookie=int(files.get("cookie", "0").strip() or "0"),
        version=int(files.get("version", "0").strip() or "0"),
    )


def loop_read_events(yc: YancClient, switch: str, app: str) -> list[PacketInEvent]:
    base, sc = yc.events_path(switch, app), yc.sc
    return [
        PacketInEvent(
            switch=switch,
            seq=int(entry.rsplit("_", 1)[-1]),
            in_port=int(sc.read_text(f"{base}/{entry}/in_port").strip()),
            reason=sc.read_text(f"{base}/{entry}/reason").strip(),
            buffer_id=int(sc.read_text(f"{base}/{entry}/buffer_id").strip()),
            total_len=int(sc.read_text(f"{base}/{entry}/total_len").strip()),
            data=sc.read_bytes(f"{base}/{entry}/data"),
        )
        for entry in sorted(sc.listdir(base), key=lambda name: int(name.rsplit("_", 1)[-1]))
    ]


def loop_read_counters(sc: Syscalls, path: str) -> dict[str, int]:
    return {entry: int(sc.read_text(f"{path}/{entry}").strip() or "0") for entry in sc.listdir(path)}


def outcome(read, sc: Syscalls, path: str):
    """What a reader produced: its result, or the type of what it raised."""
    try:
        return read(sc, path)
    except FsError as exc:
        return type(exc)


# -- the same bytes ----------------------------------------------------------------------

_NAMES = st.text(alphabet="abc.-_", min_size=1, max_size=4).filter(lambda name: name not in (".", ".."))
_CHILDREN = st.dictionaries(_NAMES, st.one_of(st.binary(max_size=64), st.sampled_from(["dir", "counters-dir", "symlink"])), max_size=8)


@settings(max_examples=60, deadline=None)
@given(children=_CHILDREN)
@example(children={})
@example(children={"empty": b"", "raw": b"\xff\xfe\x00", "sub": "dir", "counters": "counters-dir", "peer": "symlink"})
def test_read_object_returns_what_the_per_file_loop_returns(children):
    sc = Syscalls(VirtualFileSystem())
    sc.mkdir("/obj")
    sc.write_bytes("/target", b"behind the link")
    for name, kind in children.items():
        if isinstance(kind, bytes):
            sc.write_bytes(f"/obj/{name}", kind)
        elif kind == "symlink":
            sc.symlink("/target", f"/obj/{name}")
        else:
            sc.mkdir(f"/obj/{name}")
            if kind == "counters-dir":
                sc.write_text(f"/obj/{name}/packet_count", "7")
    expected = {name: kind for name, kind in children.items() if isinstance(kind, bytes)}
    assert read_object(sc, "/obj") == loop_read(sc, "/obj") == expected
    assert list(read_object(sc, "/obj")) == [name for name in sc.listdir("/obj") if name in expected]  # directory order
    assert [name for name, data in sc.readdirplus("/obj") if data is None] == [name for name in sc.listdir("/obj") if name not in expected]


# -- the same refusals -------------------------------------------------------------------

_DENY_ALICE = Acl(entries=(AclEntry(AclTag.USER_OBJ, 6), AclEntry(AclTag.USER, 0, qualifier=ALICE.uid), AclEntry(AclTag.GROUP_OBJ, 4), AclEntry(AclTag.OTHER, 4)))


def _plain(root: Syscalls) -> None:
    pass


def _unlistable_directory(root: Syscalls) -> None:
    root.chmod("/obj", 0o711)


def _unsearchable_directory(root: Syscalls) -> None:
    root.chmod("/obj", 0o744)


def _child_unreadable_by_mode(root: Syscalls) -> None:
    root.chmod("/obj/b", 0o600)


def _child_unreadable_by_acl(root: Syscalls) -> None:
    root.set_acl("/obj/b", _DENY_ALICE)


def _directory_refused_by_acl(root: Syscalls) -> None:
    root.set_acl("/obj", _DENY_ALICE)


def _gone(root: Syscalls) -> None:
    root.unlink("/obj/sub/inner")
    root.rmdir("/obj/sub")
    for name in "abc":
        root.unlink(f"/obj/{name}")
    root.rmdir("/obj")


def _not_a_directory(root: Syscalls) -> None:
    _gone(root)
    root.write_text("/obj", "a file")


@pytest.mark.parametrize(
    "arrange, refused",
    [
        (_plain, False),
        (_unlistable_directory, True),
        (_unsearchable_directory, True),
        (_child_unreadable_by_mode, True),
        (_child_unreadable_by_acl, True),
        (_directory_refused_by_acl, True),
        (_gone, True),
        (_not_a_directory, True),
    ],
)
def test_read_object_raises_what_the_per_file_loop_raises(vfs, sc, arrange, refused):
    sc.mkdir("/obj")
    for name in "abc":
        sc.write_text(f"/obj/{name}", name)
    sc.mkdir("/obj/sub")
    sc.write_text("/obj/sub/inner", "x")
    arrange(sc)
    alice = Syscalls(vfs, cred=ALICE)
    got, reference = outcome(read_object, alice, "/obj"), outcome(loop_read, alice, "/obj")
    assert got == reference
    assert isinstance(got, type) == refused
    assert outcome(read_object, sc, "/obj") == outcome(loop_read, sc, "/obj")  # root: only a missing directory refuses


_LIST_ONLY_ALICE = Acl(entries=(AclEntry(AclTag.USER_OBJ, 7), AclEntry(AclTag.USER, 4, qualifier=ALICE.uid), AclEntry(AclTag.GROUP_OBJ, 5), AclEntry(AclTag.OTHER, 5)))


def loop_scan(sc: Syscalls, path: str) -> list[tuple[str, object]]:
    """What ``scandir`` batches: a ``listdir``, then an ``lstat`` of each entry."""
    return [(name, sc.lstat(f"{path}/{name}")) for name in sc.listdir(path)]


@pytest.mark.parametrize("arrange", [_unsearchable_directory, lambda root: root.set_acl("/obj", _LIST_ONLY_ALICE)], ids=["mode-r--", "acl-r--"])
def test_scandir_refuses_what_its_per_entry_lstats_refuse(vfs, sc, arrange):
    sc.mkdir("/obj")
    sc.write_text("/obj/a", "a")
    sc.mkdir("/obj/sub")
    arrange(sc)
    alice = Syscalls(vfs, cred=ALICE)
    assert alice.listdir("/obj") == ["a", "sub"]  # r--: the names, and nothing behind them
    assert outcome(Syscalls.scandir, alice, "/obj") == outcome(loop_scan, alice, "/obj") == PermissionDenied
    assert outcome(Syscalls.scandir, sc, "/obj") == outcome(loop_scan, sc, "/obj")  # root is not refused


# -- the same gates and the same events ----------------------------------------------------


@pytest.mark.parametrize(
    "veto, asked",
    [(None, 6), ((FanMask.FAN_OPEN_PERM, "b"), 3), ((FanMask.FAN_ACCESS_PERM, "b"), 4), ((FanMask.FAN_ACCESS_PERM, "a"), 2)],
)
def test_fanotify_vetoes_and_audits_it_as_it_does_the_loop(sc, veto, asked):
    sc.mkdir("/obj")
    for name in "abc":
        sc.write_text(f"/obj/{name}", name)
    names = {id(sc.vfs.resolve(sc.ns, sc.cred, f"/obj/{name}")): name for name in "abc"}
    audit: list[tuple] = []

    def listener(event) -> bool:
        seen = (FanMask(event.mask), names[id(event.inode)], event.cred.uid, event.writable)
        audit.append(seen)
        return seen[:2] != veto

    group = sc.vfs.fanotify.group(listener)
    group.mark(sc.vfs.resolve(sc.ns, sc.cred, "/obj"), FanMask.FAN_OPEN_PERM | FanMask.FAN_ACCESS_PERM, subtree=True)
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/obj", IN_ALL_EVENTS)
    seen = {}
    for read in (loop_read, read_object):
        audit.clear()
        result = outcome(read, sc, "/obj")
        seen[read] = (result, list(audit), [(int(event.mask), event.name) for event in sc.inotify_read(ino)])
    group.close()
    assert seen[read_object] == seen[loop_read]
    result, trail, _events = seen[read_object]
    assert isinstance(result, type) == (veto is not None)
    assert len(trail) == asked  # an open and an access question per file, up to the refusal


def test_an_inotify_watcher_sees_the_same_events_and_files_the_same_atime(sim, sc):
    sc.mkdir("/obj")
    for name in "ab":
        sc.write_text(f"/obj/{name}", name)
    sc.mkdir("/obj/sub")
    sc.symlink("/obj/a", "/obj/link")
    dir_watch, file_watch = sc.inotify_init(), sc.inotify_init()
    sc.inotify_add_watch(dir_watch, "/obj", IN_ALL_EVENTS)
    sc.inotify_add_watch(file_watch, "/obj/b", IN_ALL_EVENTS)
    seen = {}
    for read in (loop_read, read_object):
        sim.run_until(sim.now + 1.0)
        assert read(sc, "/obj") == {"a": b"a", "b": b"b"}
        seen[read] = [[(int(event.mask), event.name) for event in sc.inotify_read(ino)] for ino in (dir_watch, file_watch)]
        assert [sc.lstat(f"/obj/{name}").atime for name in "ab"] == [sim.now, sim.now]
    assert seen[read_object] == seen[loop_read]
    opened = [int(EventMask.IN_OPEN), int(EventMask.IN_ACCESS), int(EventMask.IN_CLOSE_NOWRITE)]
    assert seen[read_object] == [[(mask, name) for name in "ab" for mask in opened], [(mask, None) for mask in opened]]


# -- the typed readers return what they returned -----------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    match=matches(),
    actions=action_lists(),
    spec=st.fixed_dictionaries({}, optional={"priority": st.integers(0, 0xFFFF), "idle_timeout": st.integers(0, 30), "hard_timeout": st.integers(0, 30)}),
    commit=st.booleans(),
)
@example(match=Match(), actions=[], spec={}, commit=False)
@example(match=Match(dl_type=0x800, tp_dst=80, nw_proto=6), actions=[Output(2), Output(3), Output(1)], spec={"priority": 7, "idle_timeout": 5}, commit=True)
def test_read_flow_returns_the_flowspec_the_loop_parsed(match, actions, spec, commit):
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    yc = YancClient(sc)
    yc.create_switch("s1")
    yc.create_flow("s1", "f", match, actions, commit=commit, **spec)
    sc.write_text(f"{yc.flow_path('s1', 'f')}/state.status", "installed")  # a driver's ack file rides along
    got = yc.read_flow("s1", "f")
    assert got == loop_read_flow(yc, "s1", "f")
    assert (got.match, list(got.actions), got.version) == (match, actions, int(commit))


@settings(max_examples=40, deadline=None)
@given(events=st.lists(st.tuples(st.integers(0, 0xFFFF), st.sampled_from(["no_match", "action"]), st.integers(0, 2**32 - 1), st.binary(max_size=80)), max_size=5))
def test_read_events_returns_the_events_the_loop_parsed(events):
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    yc = YancClient(sc)
    yc.create_switch("s1")
    yc.subscribe_events("s1", "app")
    for seq, (in_port, reason, buffer_id, data) in enumerate(events, start=9):
        yc.write_packet_in("s1", "app", seq, in_port=in_port, reason=reason, buffer_id=buffer_id, total_len=len(data), data=data)
    reference = loop_read_events(yc, "s1", "app")
    assert yc.read_events("s1", "app", consume=False) == reference
    assert yc.read_events("s1", "app") == reference
    assert [(e.in_port, e.reason, e.buffer_id, e.data) for e in reference] == events
    assert sc.listdir(yc.events_path("s1", "app")) == []


def test_counters_read_what_the_loop_read_on_a_live_controller():
    ctl = YancController(build_linear(2)).start()
    ctl.client(name="pusher").create_flow("sw1", "f", Match(in_port=2), [Output(1)], priority=5)
    ctl.run(0.2)  # in hardware
    ctl.net.hosts["h1"].send_udp("10.0.0.2", 1, 2, b"counted")
    ctl.run(2.5)  # two stats polls
    yc, sc = ctl.client(), ctl.host.root_sc
    ports = yc.port_counters("sw1", 2)
    assert ports == loop_read_counters(sc, f"{yc.port_path('sw1', 2)}/counters") and ports["rx_packets"] >= 1
    flows = yc.flow_counters("sw1", "f")
    assert flows == loop_read_counters(sc, f"{yc.flow_path('sw1', 'f')}/counters") and flows["packet_count"] >= 1


# -- §3.4 through the new reader -------------------------------------------------------------


def test_a_flow_is_read_whole_or_not_at_all(yc):
    """One crossing: a flow that is going away yields FsError, never a FlowSpec built from the files that were left."""
    yc.create_switch("s1")
    yc.create_flow("s1", "f", Match(in_port=1), [Output(2)], priority=9)
    sc, path = yc.sc, yc.flow_path("s1", "f")
    group = sc.vfs.fanotify.group(lambda event: False)
    group.mark(sc.vfs.resolve(sc.ns, sc.cred, f"{path}/priority"), FanMask.FAN_OPEN_PERM)
    with pytest.raises(FsError):
        yc.read_flow("s1", "f")  # refused part-way: no spec with a default priority comes back
    group.close()
    assert yc.read_flow("s1", "f").priority == 9
    yc.delete_flow("s1", "f")
    with pytest.raises(FsError):
        yc.read_flow("s1", "f")
