"""yancrace: happens-before race detection across the process fleet and
the §3.4 flow-commit protocol model checker."""

from __future__ import annotations

import json

import pytest

from repro.analysis import race, sanitizer
from repro.analysis.cli import main as cli_main
from repro.analysis.race import RaceDetector
from repro.proc import Process, ProcessTable
from repro.sim import Simulator
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import YancClient


@pytest.fixture
def det():
    d = RaceDetector().install()
    yield d
    d.uninstall()
    # Deliberate violations land in the env-installed detectors too (the
    # torn commits here are yancsan flow-commit findings as well); clear
    # them so the autouse teardown checks stay green.
    race.reset_all()
    sanitizer.reset_all()


def kinds(findings):
    return [f.kind for f in findings]


def _fleet(sim, vfs):
    root = Syscalls(vfs)
    return root, ProcessTable(root, sim)


def _make_flow(sc, name="f"):
    sc.mkdir("/net/switches/s1")
    base = f"/net/switches/s1/flows/{name}"
    sc.mkdir(base)
    sc.write_text(f"{base}/match.dl_type", "0x800")
    sc.write_text(f"{base}/action.out", "1")
    sc.write_text(f"{base}/priority", "5")
    return base


def test_fd_state_does_not_outlive_its_context(vfs, det):
    """Regression: the fd -> file map was module-global and keyed by
    ``id(sc)``, so a context allocated where a collected one had lived
    inherited the descriptors (and inodes) the dead one never closed."""
    root = Syscalls(vfs)
    root.write_text("/shared", "x")
    for _ in range(3):  # create, use, drop — under one detector
        sc = Syscalls(vfs)
        sc.open("/shared")  # never closed
        assert len(det._fd_files) == 2  # root's entry (now empty) and this context's
        del sc
        assert len(det._fd_files) == 1
    root.open("/shared")
    det.reset()
    assert len(det._fd_files) == 0
    root.open("/shared")
    det.uninstall()
    assert len(det._fd_files) == 0


# -- the happens-before core ----------------------------------------------------


def test_unsynchronized_writes_detected(sim, vfs, det):
    """The issue's positive case: two processes write one file in the same
    simulator window with no ordering edge between them."""
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    root.write_text("/shared/flowfile", "init")
    a = table.spawn(name="writer-a").start()
    b = table.spawn(name="writer-b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/shared/flowfile", "from-a"))
    b.schedule(0.1, lambda: b.sc.write_text("/shared/flowfile", "from-b"))
    sim.run()
    findings = det.check()
    assert "race" in kinds(findings)
    racef = next(f for f in findings if f.kind == "race")
    assert racef.path == "/shared/flowfile"
    # Both parties named by PID, both syscall sites in this file.
    assert any("writer-a" in actor for actor in racef.actors)
    assert any("writer-b" in actor for actor in racef.actors)
    assert all("test_race.py" in site for site in racef.sites)


def test_quiescence_orders_separate_windows(sim, vfs, det):
    """The same two writes in *separate* run windows are ordered by the
    simulator-quiescence barrier: no race."""
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    a = table.spawn(name="writer-a").start()
    b = table.spawn(name="writer-b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/shared/flowfile", "from-a"))
    sim.run()
    b.schedule(0.1, lambda: b.sc.write_text("/shared/flowfile", "from-b"))
    sim.run()
    assert det.check() == []


def test_notify_delivery_is_an_edge(sim, vfs, det):
    """A watcher that reads only after the writer's event is delivered is
    ordered through the notify queue — same window, no race."""

    class Watcher(Process):
        proc_name = "watcher"

        def __init__(self, sc, sim):
            super().__init__(sc, sim)
            self.seen = []

        def on_start(self):
            self.watch("/shared", EventMask.IN_CLOSE_WRITE | EventMask.IN_MODIFY, ("dir",))

        def on_event(self, ctx, event):
            self.seen.append(self.sc.read_text("/shared/flowfile"))

    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    root.write_text("/shared/flowfile", "init")
    writer = table.spawn(name="writer").start()
    watcher = Watcher(root.spawn(), sim)
    table.register(watcher)
    watcher.start()
    writer.schedule(0.1, lambda: writer.sc.write_text("/shared/flowfile", "fresh"))
    sim.run()
    assert "fresh" in watcher.seen
    assert det.check() == []


def test_unrelated_files_do_not_race(sim, vfs, det):
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    a = table.spawn(name="a").start()
    b = table.spawn(name="b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/shared/one", "x"))
    b.schedule(0.1, lambda: b.sc.write_text("/shared/two", "y"))
    sim.run()
    assert det.check() == []


def test_concurrent_reads_never_conflict(sim, vfs, det):
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    root.write_text("/shared/flowfile", "init")
    a = table.spawn(name="a").start()
    b = table.spawn(name="b").start()
    a.schedule(0.1, lambda: a.sc.read_text("/shared/flowfile"))
    b.schedule(0.1, lambda: b.sc.read_text("/shared/flowfile"))
    sim.run()
    assert det.check() == []


def test_harness_contexts_are_one_actor(vfs, det):
    """Several bare Syscalls driven sequentially from the test body are a
    single thread of control, not a process fleet."""
    one = Syscalls(vfs)
    two = one.spawn()
    one.write_text("/f", "from-one")
    two.write_text("/f", "from-two")
    assert one.read_text("/f") == "from-two"
    assert det.check() == []


# -- §3.4 commit-protocol model checking ----------------------------------------


def test_torn_commit_detected(yanc_sc, det):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    yanc_sc.write_text(f"{base}/priority", "9")
    findings = det.check()
    assert kinds(findings) == ["torn-commit"]
    assert "'priority'" in findings[0].detail
    assert "version 1" in findings[0].detail


def test_commit_retires_pending_spec_write(yanc_sc, det):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    yanc_sc.write_text(f"{base}/priority", "9")
    yanc_sc.write_text(f"{base}/version", "2")
    assert det.check() == []


def test_uncommitted_read_detected(sim, yanc_sc, det):
    """Another actor reading spec state while a commit is outstanding —
    concurrently, with no HB edge — violates the protocol."""
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="editor").start()
    b = table.spawn(name="reader").start()
    a.schedule(0.1, lambda: a.sc.write_text(f"{base}/priority", "9"))
    b.schedule(0.2, lambda: b.sc.read_text(f"{base}/priority"))
    sim.run()
    # Retire the pending commit HB-after the window so only the
    # mid-commit read remains as a finding (plus the spec-file race).
    yanc_sc.write_text(f"{base}/version", "2")
    found = kinds(det.check())
    assert "uncommitted-read" in found
    assert "torn-commit" not in found


def test_hb_ordered_read_of_pending_spec_is_allowed(sim, yanc_sc, det):
    """A reader ordered after the spec write (separate windows) may observe
    mid-commit state coherently — only concurrent reads are violations."""
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="editor").start()
    b = table.spawn(name="reader").start()
    a.schedule(0.1, lambda: a.sc.write_text(f"{base}/priority", "9"))
    sim.run()
    b.schedule(0.1, lambda: b.sc.read_text(f"{base}/priority"))
    sim.run()
    yanc_sc.write_text(f"{base}/version", "2")
    assert det.check() == []


def test_version_read_acquires_commit(sim, yanc_sc, det):
    """Observing the committed version orders the reader after every spec
    write the commit covered — the version file is the sync variable."""
    base = _make_flow(yanc_sc)
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="committer").start()
    b = table.spawn(name="follower").start()

    def commit():
        a.sc.write_text(f"{base}/priority", "9")
        a.sc.write_text(f"{base}/version", "1")

    def follow():
        b.sc.read_text(f"{base}/version")
        b.sc.read_text(f"{base}/priority")

    a.schedule(0.1, commit)
    b.schedule(0.2, follow)
    sim.run()
    assert det.check() == []


def test_read_flow_is_observed_file_by_file(sim, yanc_sc, det):
    """``read_flow`` is one ``readdirplus``: the detector must record a read
    of every file it returned, or it goes blind to every driver read."""
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="editor").start()
    b = table.spawn(name="reader").start()
    a.schedule(0.1, lambda: a.sc.write_text(f"{base}/priority", "9"))
    b.schedule(0.2, lambda: YancClient(b.sc).read_flow("s1", "f"))
    sim.run()
    yanc_sc.write_text(f"{base}/version", "2")
    findings = det.check()
    assert sorted(set(kinds(findings))) == ["race", "uncommitted-read"]
    assert {f.path for f in findings if f.kind == "race"} == {f"{base}/priority"}  # a file, not the directory the call named
    assert all(any("reader" in actor for actor in f.actors) for f in findings)


def test_read_flow_acquires_the_commit_before_the_spec(sim, yanc_sc, det):
    """``version`` comes first in a flow directory, so the one call orders
    the reader after the commit before its spec reads are checked."""
    base = _make_flow(yanc_sc)
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="committer").start()
    b = table.spawn(name="follower").start()

    def commit():
        a.sc.write_text(f"{base}/priority", "9")
        a.sc.write_text(f"{base}/version", "1")

    a.schedule(0.1, commit)
    b.schedule(0.2, lambda: YancClient(b.sc).read_flow("s1", "f"))
    sim.run()
    assert det.check() == []


def test_suppression_comment_silences_kind(yanc_sc, det):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    yanc_sc.write_text(f"{base}/priority", "9")  # yancrace: disable=torn-commit
    assert det.check() == []


def test_counters_are_exempt(sim, yanc_sc, det):
    """§3.5 monitoring state is lossy by design: concurrent counter
    traffic is not a race."""
    yanc_sc.mkdir("/net/switches/s1")
    yanc_sc.write_text("/net/switches/s1/counters/rx_packets", "1")
    table = ProcessTable(yanc_sc, sim)
    a = table.spawn(name="driver").start()
    b = table.spawn(name="monitor").start()
    a.schedule(0.1, lambda: a.sc.write_text("/net/switches/s1/counters/rx_packets", "2"))
    b.schedule(0.1, lambda: b.sc.read_text("/net/switches/s1/counters/rx_packets"))
    sim.run()
    assert det.check() == []


# -- lifecycle -------------------------------------------------------------------


def test_reset_clears_state(sim, vfs, det):
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    a = table.spawn(name="a").start()
    b = table.spawn(name="b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/shared/f", "x"))
    b.schedule(0.1, lambda: b.sc.write_text("/shared/f", "y"))
    sim.run()
    assert det.check() != []
    det.reset()
    assert det.check() == []


def test_uninstall_stops_recording(sim, vfs, det):
    det.uninstall()
    root, table = _fleet(sim, vfs)
    root.mkdir("/shared")
    a = table.spawn(name="a").start()
    b = table.spawn(name="b").start()
    a.schedule(0.1, lambda: a.sc.write_text("/shared/f", "x"))
    b.schedule(0.1, lambda: b.sc.write_text("/shared/f", "y"))
    sim.run()
    assert det.check() == []


def test_install_from_env(monkeypatch):
    prior = race.active()
    monkeypatch.setenv("YANCRACE", "0")
    assert not race.enabled()
    monkeypatch.setenv("YANCRACE", "1")
    assert race.enabled()
    env_det = race.install_from_env()
    try:
        assert env_det is not None and race.active() is env_det
        assert race.install_from_env() is env_det  # idempotent
    finally:
        if prior is None:
            env_det.uninstall()
        env_det.reset()


# -- the race CLI ----------------------------------------------------------------

RACY_WORKLOAD = """\
from repro.proc import ProcessTable
from repro.sim import Simulator
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem

sim = Simulator()
vfs = VirtualFileSystem(clock=lambda: sim.now)
root = Syscalls(vfs)
table = ProcessTable(root, sim)
root.mkdir("/shared")
root.write_text("/shared/flowfile", "init")
a = table.spawn(name="writer-a").start()
b = table.spawn(name="writer-b").start()
a.schedule(0.1, lambda: a.sc.write_text("/shared/flowfile", "from-a"))
b.schedule(0.1, lambda: b.sc.write_text("/shared/flowfile", "from-b"))
sim.run()
"""

CLEAN_WORKLOAD = """\
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem

sc = Syscalls(VirtualFileSystem())
sc.write_text("/f", "x")
assert sc.read_text("/f") == "x"
"""


@pytest.fixture
def clean_race():
    yield
    race.reset_all()


def _workload(tmp_path, text, name="workload.py"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_race_reports_findings(tmp_path, capsys, clean_race):
    rc = cli_main(["race", _workload(tmp_path, RACY_WORKLOAD)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "yancrace [race]" in out
    assert "writer-a" in out and "writer-b" in out


def test_cli_race_clean_workload(tmp_path, capsys, clean_race):
    rc = cli_main(["race", _workload(tmp_path, CLEAN_WORKLOAD)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "yancrace: 0 finding(s)" in out


def test_cli_race_json_output(tmp_path, capsys, clean_race):
    workload = _workload(tmp_path, RACY_WORKLOAD)
    rc = cli_main(["race", "--json", workload])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["kind"] == "race"
    assert payload[0]["path"] == "/shared/flowfile"
    assert all(workload in site for site in payload[0]["sites"])


def test_cli_race_baseline_roundtrip(tmp_path, capsys, clean_race):
    workload = _workload(tmp_path, RACY_WORKLOAD)
    baseline = tmp_path / "baseline.json"
    assert cli_main(["race", "--out", str(baseline), workload]) == 1
    capsys.readouterr()
    rc = cli_main(["race", "--baseline", str(baseline), workload])
    out = capsys.readouterr().out
    assert rc == 0
    assert "(baseline)" in out and "in baseline" in out


def test_cli_race_crashing_workload_is_internal_error(tmp_path, capsys, clean_race):
    rc = cli_main(["race", _workload(tmp_path, "raise RuntimeError('boom')\n")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "internal error" in err and "boom" in err


def test_cli_race_failing_workload_exit(tmp_path, capsys, clean_race):
    rc = cli_main(["race", _workload(tmp_path, "raise SystemExit(5)\n")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "workload exited with 5" in err


def test_cli_race_usage_error(clean_race):
    with pytest.raises(SystemExit) as exc:
        cli_main(["race"])  # missing workload
    assert exc.value.code == 2
