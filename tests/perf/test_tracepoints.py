"""The trace-point bus: event shape, idle cost, subscriber lifecycle, no residue."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.race import RaceDetector
from repro.analysis.sanitizer import Sanitizer
from repro.analysis.yanccrash.recorder import CrashRecorder
from repro.analysis.yancsec.monitor import SecurityMonitor
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.libyanc.fastpath import LibYanc
from repro.perf import tracepoints
from repro.proc.process import Process, ProcessTable
from repro.sim.clock import Simulator
from repro.vfs.errors import FileNotFound
from repro.vfs.notify import NotifyHub
from repro.vfs.syscalls import O_RDONLY, Syscalls
from repro.vfs.uring import LINK_FD
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, flow_spec_files, mount_yancfs

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class Tape:
    """Records every syscall event it is handed."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_syscall_enter(self, sc, op, paths, args):
        self.events.append(("enter", op, paths))

    def on_syscall_exit(self, sc, op, paths, args, result, exc):
        self.events.append(("exit", op, paths, type(exc).__name__ if exc else None))

    def ops(self) -> list[tuple]:
        return [(op, paths) for kind, op, paths, *_ in self.events if kind == "enter"]


@pytest.fixture
def tape():
    t = Tape()
    tracepoints.subscribe(t)
    yield t
    tracepoints.unsubscribe(t)


@pytest.fixture
def idle_bus():
    """Nobody subscribed (the env-installed tools step aside for the test)."""
    saved = list(tracepoints.subscribers)
    tracepoints.subscribers.clear()
    yield
    tracepoints.subscribers[:] = saved


def _all_four():
    tools = [Sanitizer(), RaceDetector(), CrashRecorder(), SecurityMonitor()]
    for tool in tools:
        tool.install()
    return tools


# -- event shape ----------------------------------------------------------------------


def test_enter_and_exit_pair_up_when_the_syscall_raises(sc, tape):
    with pytest.raises(FileNotFound):
        sc.stat("/missing/./leaf")
    sc.mkdir("/d")
    assert tape.events == [
        ("enter", "stat", ("/missing/leaf",)),  # paths arrive absolute and canonical
        ("exit", "stat", ("/missing/leaf",), "FileNotFound"),
        ("enter", "mkdir", ("/d",)),
        ("exit", "mkdir", ("/d",), None),
    ]


def test_helpers_decompose_and_nested_calls_are_traced(sc, tape):
    sc.write_text("/f", "x")
    assert [op for op, _ in tape.ops()] == ["open", "write", "close"]
    assert all(paths == (("/f",) if op == "open" else ()) for op, paths in tape.ops())


def test_walk_brackets_the_traversal(sc, tape):
    sc.makedirs("/a/b")
    tape.events.clear()
    visited = [dirpath for dirpath, _d, _f in sc.walk("/a")]
    assert visited == ["/a", "/a/b"]
    assert tape.events == [("enter", "walk", ("/a",)), ("exit", "walk", ("/a",), None)]


def test_readdirplus_is_one_event_pair_named_after_the_directory(sc, tape):
    sc.mkdir("/d")
    sc.write_text("/d/a", "x")
    sc.write_text("/d/b", "y")
    tape.events.clear()
    sc.chdir("/d")
    assert sc.readdirplus(".") == [("a", b"x"), ("b", b"y")]
    assert tape.events[2:] == [("enter", "readdirplus", ("/d",)), ("exit", "readdirplus", ("/d",), None)]  # no open/read/close inside
    with pytest.raises(FileNotFound):
        sc.readdirplus("/gone")
    assert tape.events[-1] == ("exit", "readdirplus", ("/gone",), "FileNotFound")


def test_ring_submitted_ops_fire_the_same_events_as_the_file_path(yanc_sc, tape):
    client = YancClient(yanc_sc)
    client.create_switch("s1")
    match, actions = Match(in_port=3, dl_type=0x0800), [Output(1), Output(2)]

    tape.events.clear()
    client.create_flow("s1", "direct", match, actions, priority=9, commit=False)
    direct = tape.ops()

    tape.events.clear()
    batch = yanc_sc.io_uring_setup(entries=64).batch()
    path = client.flow_path("s1", "ringed")
    batch.prep("mkdir", path, link=True)
    for filename, content in flow_spec_files(match, actions, priority=9).items():
        batch.prep_write_file(f"{path}/{filename}", content.encode(), link=True)
    batch.prep("stat", path)
    assert all(cqe.ok for cqe in batch.submit())
    ringed = tape.ops()[1:-1]  # minus io_uring_setup and the chain-closing stat

    def normalized(ops):
        return [(op, tuple(p.replace("ringed", "direct") for p in paths)) for op, paths in ops]

    assert direct and normalized(ringed) == direct


class RingTape(Tape):
    """A tape that also records the ``uring_submit`` bracket."""

    def on_uring_submit_enter(self, ring):
        self.events.append(("submit-enter",))

    def on_uring_submit_exit(self, ring, result, exc):
        self.events.append(("submit-exit", result))


def test_every_entry_of_a_submit_fires_its_own_syscall_pair_inside_one_bracket(sc):
    """What keeps yancrace, the yancsec monitor and the yanccrash recorder sighted on batched writers."""
    tape = RingTape()
    sc.write_bytes("/f", b"x")
    batch = sc.io_uring_setup().batch()
    batch.prep("open", "/f", O_RDONLY, link=True)
    batch.prep("listdir", "/missing", link=True)  # severs the chain with its fd open
    batch.prep("close", LINK_FD)  # canceled: never runs, so fires nothing
    batch.prep_write_file("/g", b"y")
    tracepoints.subscribe(tape)
    try:
        cqes = batch.submit()
    finally:
        tracepoints.unsubscribe(tape)
    assert tape.events == [
        ("submit-enter",),
        ("enter", "open", ("/f",)),
        ("exit", "open", ("/f",), None),
        ("enter", "listdir", ("/missing",)),
        ("exit", "listdir", ("/missing",), "FileNotFound"),
        ("enter", "close", ()),  # the autoclose of the severed chain's descriptor
        ("exit", "close", (), None),
        ("enter", "open", ("/g",)),
        ("exit", "open", ("/g",), None),
        ("enter", "write", ()),
        ("exit", "write", (), None),
        ("enter", "close", ()),
        ("exit", "close", (), None),
        ("submit-exit", cqes),  # the crossing's completions
    ]
    assert len(cqes) == 6


def test_the_bus_issues_no_metered_call(yanc_sc):
    def workload(client: YancClient, flow: str) -> int:
        before = client.sc.meter.syscalls
        client.create_flow("s1", flow, Match(in_port=1), [Output(2)])
        client.read_flow("s1", flow)
        client.delete_flow("s1", flow)
        return client.sc.meter.syscalls - before

    client = YancClient(yanc_sc)
    client.create_switch("s1")
    plain = workload(client, "f1")
    tools = _all_four()
    try:
        traced = workload(client, "f2")
    finally:
        for tool in tools:
            tool.uninstall()
    assert traced == plain


def test_idle_trace_points_publish_nothing(idle_bus, sim, monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("an idle trace point did more than test the subscriber list")

    for name in ("publish", "around", "entering"):
        monkeypatch.setattr(tracepoints, name, boom)
    # Sites bound the functions at import; patch those bindings too.
    import repro.distfs.rpc as rpc
    import repro.libyanc.fastpath as fastpath
    import repro.proc.process as process
    import repro.sim.clock as clock
    import repro.vfs.inode as inode
    import repro.vfs.notify as notify
    import repro.vfs.syscalls as syscalls
    import repro.vfs.uring as uring
    import repro.vfs.vfs as vfs_mod

    for module in (rpc, fastpath, process, clock, inode, notify, syscalls, uring, vfs_mod):
        for name in ("_publish", "_around", "_entering"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, boom)

    sc = Syscalls(VirtualFileSystem(clock=lambda: sim.now))
    fs = mount_yancfs(sc)
    client = YancClient(sc)
    client.create_switch("s1")
    client.create_flows_batched("s1", [("f1", Match(in_port=1), [Output(2)])])
    ly = LibYanc(fs)
    ly.stage_flow("s1", "f2", Match(in_port=2), [Output(3)])
    ly.flush()
    list(sc.walk("/net/switches"))
    proc = ProcessTable(sc, sim).spawn(name="idle").start()
    proc.schedule(0.1, lambda: proc.sc.exists("/net"))
    sim.run()


# -- subscriber lifecycle -------------------------------------------------------------


def test_subscribing_and_unsubscribing_mid_run_is_safe(sim, vfs):
    root = Syscalls(vfs)
    root.makedirs("/net/spool")
    proc = ProcessTable(root, sim).spawn(name="worker").start()
    tools: list = []
    seen: list[str] = []

    class Quitter:
        def on_syscall_enter(self, sc, op, paths, args):
            seen.append(op)
            tracepoints.unsubscribe(self)  # drops out between its own enter and exit

    def first() -> None:
        # Inside Simulator.run, a task run and (below) a syscall: every tool
        # joins with scopes already open whose enter events it never saw.
        tools.extend(_all_four())
        tracepoints.subscribe(Quitter())
        proc.sc.write_text("/net/spool/a", "1")

    def second() -> None:
        proc.sc.write_text("/net/spool/b", "2")
        for tool in tools:
            tool.uninstall()  # leaves mid-task, mid-run: their exits never arrive
        proc.sc.write_text("/net/spool/c", "3")

    proc.schedule(0.1, first)
    proc.schedule(0.2, second)
    sim.run()
    assert proc.crashes == 0, proc.last_error
    assert seen == ["open"]
    assert sorted(root.listdir("/net/spool")) == ["a", "b", "c"]
    recorder = tools[2]
    assert [op.op for op in recorder.ops] == ["open", "write", "close"] * 2
    for tool in tools:
        tool.reset()


def test_install_then_uninstall_leaves_no_residue(sim):
    classes = (Syscalls, NotifyHub, LibYanc, Process, Simulator)
    before = [dict(vars(cls)) for cls in classes]
    subscribed = list(tracepoints.subscribers)

    tools = _all_four()
    try:
        sc = Syscalls(VirtualFileSystem(clock=lambda: sim.now))
        fs = mount_yancfs(sc)
        YancClient(sc).create_switch("s1")
        LibYanc(fs).create_flow("s1", "f1", Match(in_port=1), [Output(2)])
        sim.run()
    finally:
        for tool in tools:
            tool.uninstall()
            tool.reset()

    assert tracepoints.subscribers == subscribed
    for cls, snapshot in zip(classes, before):
        after = vars(cls)
        assert after.keys() == snapshot.keys(), cls
        assert all(after[name] is snapshot[name] for name in snapshot), cls


def test_no_tool_reaches_into_a_foreign_class():
    """One registry, no monkeypatching: the source itself is the witness."""
    foreign = "Syscalls|FileInode|FileHandle|NotifyHub|Inotify|IoUring|LibYanc|Process|Simulator|RpcChannel"
    banned = re.compile(
        rf"setattr\(|method-assign|_patch_once|(add|remove)_\w+_tap|^\s*({foreign})\.\w+\s*=[^=]",
        re.MULTILINE,
    )
    for path in sorted((SRC / "analysis").rglob("*.py")):
        hit = banned.search(path.read_text())
        assert hit is None, f"{path}: {hit.group(0)!r}"
    registries = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"^_?[A-Za-z_]*(subscribers|taps|_SANITIZERS|_DETECTORS|_RECORDERS|_MONITORS)\b[^=\n]*=\s*\[", path.read_text(), re.MULTILINE)
    ]
    assert registries == ["perf/tracepoints.py"]
