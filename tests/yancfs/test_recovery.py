"""Mount-time fsck, the flat staging sweep, and the mount recover hook."""

from __future__ import annotations

from repro.dataplane import Match, Output
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs
from repro.yancfs.recovery import flow_version, fsck


def _seed_debris(yc: YancClient) -> tuple[str, str]:
    """One stale dot-temp and one version-0 flow, amid committed state."""
    yc.create_switch("sw1")
    yc.create_flow("sw1", "good", Match(in_port=1), [Output(2)])
    stale = "/net/switches/.sw2"  # crashed create_switch: never renamed
    yc.sc.mkdir(stale)
    yc.sc.write_text(f"{stale}/id", "2")
    torn = yc.flow_path("sw1", "half")  # crashed create_flow: never committed
    yc.sc.mkdir(torn)
    yc.sc.write_text(f"{torn}/match.in_port", "9")
    return stale, torn


def test_fsck_sweeps_dot_temps_and_torn_flows(yc):
    stale, torn = _seed_debris(yc)
    report = fsck(yc.sc, "/net")
    assert sorted(report.removed()) == sorted([stale, torn])
    assert not report.failures
    assert not yc.sc.exists(stale)
    assert not yc.sc.exists(torn)
    # Committed state is untouched.
    assert flow_version(yc.sc, yc.flow_path("sw1", "good")) == 1


def test_fsck_dry_run_reports_without_mutating(yc):
    stale, torn = _seed_debris(yc)
    report = fsck(yc.sc, "/net", dry_run=True)
    assert report.dry_run
    assert stale in report.stale_entries
    assert torn in report.torn_flows
    assert yc.sc.exists(stale) and yc.sc.exists(torn)
    # The dry run predicts exactly what the real sweep removes.
    assert sorted(report.removed()) == sorted(fsck(yc.sc, "/net").removed())


def test_fsck_clean_tree_reports_clean(yc):
    yc.create_switch("sw1")
    yc.create_flow("sw1", "f", Match(in_port=1), [Output(2)])
    report = fsck(yc.sc, "/net")
    assert report.clean and report.removed() == []


def test_fsck_missing_root_is_vacuously_clean(sc):
    assert fsck(sc, "/nowhere").clean


def test_flow_version_unparseable_reads_zero(yc):
    yc.create_switch("sw1")
    path = yc.flow_path("sw1", "f")
    yc.sc.mkdir(path)
    assert flow_version(yc.sc, path) == 0  # schema populates version as 0
    assert flow_version(yc.sc, "/net/switches/sw1/flows/absent") == 0


def test_mount_yancfs_runs_the_recover_sweep(monkeypatch):
    calls = []
    import repro.yancfs.recovery as recovery

    real_fsck = recovery.fsck
    monkeypatch.setattr(
        recovery, "fsck", lambda sc, root: calls.append(root) or real_fsck(sc, root)
    )
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc, "/net")
    assert calls == ["/net"]  # a fresh mount still sweeps (it is empty, so cheap)


def test_mount_yancfs_recover_false_skips_the_sweep(monkeypatch):
    import repro.yancfs.recovery as recovery

    monkeypatch.setattr(
        recovery, "fsck", lambda *a, **k: (_ for _ in ()).throw(AssertionError("swept"))
    )
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc, "/net", recover=False)
    assert sc.exists("/net/switches")
