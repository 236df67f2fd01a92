"""yancsan: runtime detection of fd leaks, unvalidated writes, notify
inconsistencies, and flow-commit protocol violations."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import Sanitizer
from repro.proc import ON_CRASH, Process, ProcessTable
from repro.vfs import O_APPEND, O_CREAT, O_WRONLY
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import mount_yancfs


@pytest.fixture
def san():
    s = Sanitizer().install()
    yield s
    s.uninstall()
    # Deliberate violations land in the YANCSAN-env sanitizer too (when
    # enabled); clear them so the autouse teardown check stays green.
    sanitizer.reset_all()


def kinds(findings):
    return [f.kind for f in findings]


def _make_flow(sc, name="f"):
    sc.mkdir("/net/switches/s1")
    sc.mkdir(f"/net/switches/s1/flows/{name}")
    base = f"/net/switches/s1/flows/{name}"
    sc.write_text(f"{base}/match.dl_type", "0x800")
    sc.write_text(f"{base}/action.out", "1")
    sc.write_text(f"{base}/priority", "5")
    return base


def test_clean_run_has_no_findings(yanc_sc, san):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    assert san.check() == []


def test_fd_leak_reported(sc, san):
    fd = sc.open("/leaky", O_WRONLY | O_CREAT)
    sc.write(fd, b"x")
    findings = san.check()
    assert kinds(findings) == ["fd-leak"]
    assert "/leaky" in findings[0].detail
    sc.close(fd)
    assert san.check() == []


def test_leaked_writable_attribute_fd_is_validation_hole(yanc_sc, san):
    base = _make_flow(yanc_sc)
    fd = yanc_sc.open(f"{base}/priority", O_WRONLY)
    yanc_sc.write(fd, b"7")
    findings = san.check()
    assert "fd-leak" in kinds(findings)
    assert "unvalidated-write" in kinds(findings)
    yanc_sc.close(fd)


def test_direct_set_content_bypassing_validation(yanc_sc, san):
    base = _make_flow(yanc_sc)
    inode = yanc_sc.vfs.resolve(yanc_sc.ns, yanc_sc.cred, f"{base}/priority")
    inode.set_content(b"not-a-number")
    findings = san.check()
    assert kinds(findings) == ["unvalidated-write"]
    assert "not-a-number" in findings[0].detail


def test_version_regression_flagged(yanc_sc, san):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "2")
    yanc_sc.write_text(f"{base}/version", "1")
    findings = san.check()
    assert kinds(findings) == ["flow-commit"]
    assert "decreased 2 -> 1" in findings[0].detail


def test_a_flow_node_that_dies_leaves_no_version_behind(san):
    """Versions are remembered by node identity, so a dead node's goes with it: its id, reused by a new flow, is no regression."""
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    base = _make_flow(sc)
    sc.write_text(f"{base}/version", "3")
    node = weakref.ref(sc.vfs.resolve(sc.ns, sc.cred, base))
    key = id(node())
    assert key in san._versions
    del sc  # the whole tree goes, as a test's or a property example's does
    gc.collect()
    # An entry lives exactly as long as its node (another tool on the bus, yancrace, may keep the tree).
    assert (key in san._versions) == (node() is not None)
    assert san.check() == []


def test_uncommitted_spec_mutation_flagged(yanc_sc, san):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    # The torn commit is the point of this test (yancsan must flag it), so
    # yancrace is told to look away.
    yanc_sc.write_text(f"{base}/priority", "9")  # yancrace: disable=torn-commit
    findings = san.check()
    assert kinds(findings) == ["flow-commit"]
    assert "'priority'" in findings[0].detail


def test_commit_clears_pending_mutation(yanc_sc, san):
    base = _make_flow(yanc_sc)
    yanc_sc.write_text(f"{base}/version", "1")
    yanc_sc.write_text(f"{base}/priority", "9")
    yanc_sc.write_text(f"{base}/version", "2")
    assert san.check() == []


def test_notify_event_contradicting_tree_state(sc, san):
    sc.mkdir("/d")
    sc.write_text("/d/real", "x")
    parent = sc.vfs.resolve(sc.ns, sc.cred, "/d")
    child = sc.vfs.resolve(sc.ns, sc.cred, "/d/real")
    # IN_DELETE for a child that is still attached
    sc.vfs.hub.emit_dirent(parent, child, EventMask.IN_DELETE, "real")
    # IN_CREATE for a name the directory does not hold
    sc.vfs.hub.emit_dirent(parent, child, EventMask.IN_CREATE, "ghost")
    findings = san.check()
    assert kinds(findings) == ["notify-inconsistency", "notify-inconsistency"]


def test_unpaired_move_cookie(sc, san):
    sc.mkdir("/d")
    sc.write_text("/d/a", "x")
    parent = sc.vfs.resolve(sc.ns, sc.cred, "/d")
    child = sc.vfs.resolve(sc.ns, sc.cred, "/d/a")
    cookie = sc.vfs.hub.next_cookie()
    parent.detach("a", emit_mask=int(EventMask.IN_MOVED_FROM), cookie=cookie)
    findings = san.check()
    assert kinds(findings) == ["notify-inconsistency"]
    assert "without its pair" in findings[0].detail
    parent.attach("a", child, emit_mask=int(EventMask.IN_MOVED_TO), cookie=cookie)
    assert san.check() == []


def test_rename_emits_paired_cookies(sc, san):
    sc.mkdir("/d")
    sc.write_text("/d/a", "x")
    sc.rename("/d/a", "/d/b")
    assert san.check() == []


def test_rollback_restore_is_not_a_finding(yanc_sc, san):
    from repro.vfs.errors import InvalidArgument

    base = _make_flow(yanc_sc)
    with pytest.raises(InvalidArgument):
        yanc_sc.write_text(f"{base}/priority", "bogus")
    # close-time rollback ran set_content with the last-valid bytes;
    # the sanitizer must not mistake the restore for a bypass
    assert yanc_sc.read_text(f"{base}/priority") == "5"
    assert san.check() == []


def test_reset_clears_state(sc, san):
    fd = sc.open("/x", O_WRONLY | O_CREAT)
    san.reset()
    assert san.check() == []
    sc.close(fd)


def test_uninstall_stops_recording(sc, san):
    san.uninstall()
    fd = sc.open("/x", O_WRONLY | O_CREAT)
    assert san.check() == []
    sc.close(fd)


def test_supervised_restart_recycles_descriptors_cleanly(sim, sc, san):
    """A crash/restart cycle tears down and re-opens the process's event
    loop; with proper per-event file discipline nothing shows as leaked."""

    class Flaky(Process):
        proc_name = "flaky"

        def __init__(self, ctx, sim):
            super().__init__(ctx, sim)
            self.fail_next = False
            self.handled = []

        def on_start(self):
            self.watch("/spool", EventMask.IN_CREATE, ("dir",))

        def on_event(self, ctx, event):
            if self.fail_next:
                self.fail_next = False
                raise RuntimeError("injected fault")
            self.sc.write_text(f"/out/{event.name}", "ok")
            self.handled.append(event.name)

    table = ProcessTable(sc, sim)
    sc.mkdir("/spool")
    sc.mkdir("/out")
    proc = Flaky(sc.spawn(), sim)
    table.register(proc)
    table.supervise(proc, ON_CRASH)
    proc.start()
    sc.write_text("/spool/a", "1")
    sim.run()
    assert proc.handled == ["a"]
    proc.fail_next = True
    sc.write_text("/spool/b", "1")
    sim.run()  # crash, then the supervised restart (backoff elapses in-run)
    assert proc.crashes == 1 and proc.restarts == 1
    sc.write_text("/spool/c", "1")
    sim.run()
    assert "c" in proc.handled
    assert san.check() == []


def test_exec_takeover_keeps_leaked_fd_findings(sim, sc, san):
    """exec-style takeover adopts the donor's syscall context as-is: a
    descriptor the old image leaked is still open, and still reported."""
    table = ProcessTable(sc, sim)
    donor = table.spawn(name="legacy")
    fd = donor.sc.open("/leaked", O_WRONLY | O_CREAT)
    donor.sc.write(fd, b"x")
    successor = Process(donor, name="takeover")
    assert successor.pid == donor.pid and successor.sc is donor.sc
    findings = san.check()
    assert kinds(findings) == ["fd-leak"]
    assert "/leaked" in findings[0].detail
    successor.sc.close(fd)
    assert san.check() == []


def test_install_from_env(monkeypatch):
    prior = sanitizer.active()
    monkeypatch.setenv("YANCSAN", "0")
    assert not sanitizer.enabled()
    monkeypatch.setenv("YANCSAN", "1")
    assert sanitizer.enabled()
    env_san = sanitizer.install_from_env()
    try:
        assert env_san is not None and sanitizer.active() is env_san
        assert sanitizer.install_from_env() is env_san  # idempotent
    finally:
        if prior is None:
            env_san.uninstall()
        env_san.reset()
