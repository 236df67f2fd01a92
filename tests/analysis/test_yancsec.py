"""yancsec: static finding kinds, the reference monitor, CLI discipline."""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import yancsec as ys
from repro.analysis.cli import ExitCode, main
from repro.analysis.core import SourceFile
from repro.analysis.sweep import JUDGES
from repro.analysis.yancsec import monitor as secmon
from repro.analysis.yancsec.checker import KINDS, analyze_sources, analyze_yancsec
from repro.analysis.yancsec.monitor import SecurityMonitor
from repro.dataplane import Match, Output
from repro.vfs.cred import app_credentials
from repro.vfs.errors import FsError
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs, read_object

HERE = Path(__file__).parent
BAD = HERE / "fixtures" / "bad" / "yancsec.py"
OK = HERE / "fixtures" / "ok" / "yancsec.py"
BASELINE = HERE / "yancsec_baseline.json"

_BAD_MARK = re.compile(r"#\s*bad:\s*([\w,\-]+)")


def expected_findings(path: Path) -> list[tuple[str, int]]:
    pairs = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _BAD_MARK.search(line)
        if match:
            pairs.extend((rule, lineno) for rule in match.group(1).split(","))
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def findings_of(path: Path) -> list[tuple[str, int]]:
    found = analyze_yancsec([str(path)])
    assert all(f.path == str(path) for f in found)
    return sorted(((f.rule, f.line) for f in found), key=lambda pair: (pair[1], pair[0]))


# -- static pass: finding kinds against the fixture pair ------------------------------


def test_bad_fixture_fires_every_kind():
    want = expected_findings(BAD)
    assert {rule for rule, _ in want} == set(KINDS), "fixture must seed all kinds"
    assert findings_of(BAD) == want


def test_ok_fixture_is_clean():
    assert findings_of(OK) == []


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_seeded_once(kind):
    assert any(rule == kind for rule, _ in expected_findings(BAD))


def test_shipped_tree_is_yancsec_clean():
    repo = HERE.parents[1]
    assert analyze_yancsec([str(repo / "src"), str(repo / "examples")]) == []


def test_checked_in_baseline_is_empty():
    # The sweep is clean, so the baseline CI enforces must stay empty:
    # new findings fail the build instead of silently joining a blob.
    assert json.loads(BASELINE.read_text()) == []


# -- the taint lattice and credential summaries ---------------------------------------


_SCOPE_APP = "# yanclint: " + "scope=app\n"  # split so this file gets no scope
_SCOPE_DRIVER = "# yanclint: " + "scope=driver\n"


def _analyze_text(text: str, path: str = "app.py") -> list[tuple[str, int]]:
    src = SourceFile.parse(path, _SCOPE_APP + textwrap.dedent(text))
    return [(f.rule, f.line) for f in analyze_sources([src])]


def test_validator_if_clears_taint():
    body = """\
    def relay(sc, sw, known):
        owner = sc.read_text(f"/net/switches/{sw}/id")
        {guard}sc.write_text(f"/net/hosts/{owner}/owner", "x")
    """
    noisy = _analyze_text(body.replace("{guard}", ""))
    assert ("tainted-path", 4) in noisy
    quiet = _analyze_text(body.replace("{guard}", "if owner in known:\n            "))
    assert not any(rule == "tainted-path" for rule, _ in quiet)


def test_sanitizer_call_clears_taint():
    quiet = _analyze_text(
        """\
        def relay(sc, sw, sanitize_name):
            owner = sanitize_name(sc.read_text(f"/net/switches/{sw}/id"))
            sc.write_text(f"/net/hosts/{owner}/owner", "x")
        """
    )
    assert not any(rule == "tainted-path" for rule, _ in quiet)


def test_taint_survives_string_assembly():
    noisy = _analyze_text(
        """\
        def relay(sc, sw):
            owner = sc.read_text(f"/net/switches/{sw}/id").strip()
            target = "/net/hosts/" + owner + "/owner"
            sc.write_text(target, "x")
        """
    )
    assert ("tainted-path", 5) in noisy


def test_nonroot_credentials_silence_root_ambient():
    body = """\
    from repro.vfs.syscalls import Syscalls
    from repro.vfs.cred import app_credentials

    def setup(vfs):
        sc = Syscalls(vfs{cred})
        sc.write_text("/net/switches/s1/id", "s1")
    """
    noisy = _analyze_text(body.replace("{cred}", ""))
    assert any(rule == "root-ambient" for rule, _ in noisy)
    quiet = _analyze_text(body.replace("{cred}", ', cred=app_credentials("a")'))
    assert not any(rule == "root-ambient" for rule, _ in quiet)


def test_missing_acl_is_scope_relative():
    # The driver that *creates* middlebox attributes may write them
    # without an ACL; an app writing the same file is the finding.
    body = """\
    def publish(sc, mb, ip):
        sc.write_text(f"/net/middleboxes/{mb}/public_ip", ip)
    """
    src = SourceFile.parse("x.py", _SCOPE_DRIVER + textwrap.dedent(body))
    assert analyze_sources([src]) == []
    assert any(rule == "missing-acl" for rule, _ in _analyze_text(body))


def test_disable_comment_silences_yancsec():
    body = """\
    from repro.vfs.syscalls import Syscalls

    def setup(vfs):
        sc = Syscalls(vfs)
        sc.write_text("/net/switches/s1/id", "x"){comment}
    """
    noisy = _analyze_text(body.replace("{comment}", ""))
    assert ("root-ambient", 6) in noisy
    quiet = _analyze_text(body.replace("{comment}", "  # yancsec: disable=root-ambient"))
    assert quiet == []


# -- the reference monitor ------------------------------------------------------------


@pytest.fixture
def mon():
    monitor = SecurityMonitor()
    monitor.install()
    monitor.register_root("/net")
    yield monitor
    monitor.uninstall()
    secmon.reset_all()  # seeded violations must not leak into YANCSEC=1 teardown


def _host_tree():
    """A root context with one chowned app home and a shared spool."""
    vfs = VirtualFileSystem()
    root = Syscalls(vfs)
    root.makedirs("/net/apps/alice")
    root.write_text("/net/apps/alice/secret", "s3cret")
    root.chown("/net/apps/alice", 501, 100)
    root.makedirs("/tmp")
    root.chmod("/tmp", 0o777)
    return vfs, root


def test_monitor_flags_root_running_app(mon):
    vfs, _ = _host_tree()
    sc = Syscalls(vfs)  # uid 0
    sc.role = "app"
    sc.listdir("/net")
    assert any(f.kind == "root-app" for f in mon.check())


def test_monitor_flags_cross_tenant_read(mon):
    vfs, root = _host_tree()
    # Perms alone would stop this (0o700 home); loosen them so only the
    # monitor's policy stands between bob and alice's home.
    root.chmod("/net/apps/alice", 0o755)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    assert bob.read_text("/net/apps/alice/secret") == "s3cret"
    assert any(f.kind == "cross-tenant-read" for f in mon.check())


@pytest.mark.parametrize("probe", ["stat", "lstat", "exists", "listxattr", "chdir"])
def test_monitor_mediates_metadata_probes(mon, probe):
    """Regression: only a hand-picked set of methods was tapped, so a
    cross-tenant ``stat`` (or any other probe) went unjudged."""
    vfs, root = _host_tree()
    root.chmod("/net/apps/alice", 0o755)
    root.mkdir("/net/apps/alice/inbox", 0o755)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    getattr(bob, probe)("/net/apps/alice/inbox")
    assert [f.kind for f in mon.check()] == ["cross-tenant-read"]
    assert f"{probe}(/net/apps/alice/inbox)" in mon.check()[0].detail


def test_monitor_mediates_xattr_and_mount_mutations(mon):
    """Regression: ``setxattr`` & co. bypassed the monitor, so an app-role
    process holding ambient root could label the tree unnoticed."""
    vfs, root = _host_tree()
    root.makedirs("/net/hosts")
    rogue = Syscalls(vfs)  # uid 0
    rogue.role = "app"
    rogue.setxattr("/net/hosts", "user.owner", b"rogue")
    assert [f.kind for f in mon.check()] == ["root-app"]
    assert "setxattr(/net/hosts)" in mon.check()[0].detail
    mon.reset()
    # The same family judged as writes for an ordinary tenant.
    root.chmod("/net/apps/alice", 0o777)
    root.chmod("/net/apps/alice/secret", 0o666)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    bob.setxattr("/net/apps/alice/secret", "user.tag", b"bob")
    assert [f.kind for f in mon.check()] == ["ambient-write"]


def test_monitor_ignores_failed_calls(mon):
    vfs, _ = _host_tree()
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    with pytest.raises(FsError):
        bob.stat("/net/apps/alice/no-such-file")  # touched nothing: not an access
    assert mon.check() == [] and not any(uid == bob.cred.uid for uid, _ns, _prefix in mon.accesses)


def test_monitor_flags_write_into_foreign_home(mon):
    vfs, root = _host_tree()
    root.chmod("/net/apps/alice", 0o777)
    root.chmod("/net/apps/alice/secret", 0o666)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    bob.write_text("/net/apps/alice/secret", "overwritten")
    assert any(f.kind == "ambient-write" for f in mon.check())


def test_monitor_flags_stray_write(mon):
    vfs, root = _host_tree()
    root.mkdir("/stray", 0o777)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    bob.write_text("/stray/out", "x")
    assert any(f.kind == "ambient-write" for f in mon.check())


def test_monitor_quiet_on_controller_tree_and_spools(mon):
    vfs, root = _host_tree()
    root.makedirs("/net/hosts")
    root.chmod("/net/hosts", 0o777)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    bob.write_text("/net/hosts/h1", "mac")
    bob.mkdir("/tmp/bob", 0o755)
    bob.write_text("/tmp/bob/scratch", "x")
    assert mon.check() == []


def test_monitor_records_access_tuples(mon):
    vfs, root = _host_tree()
    root.chmod("/net/apps/alice", 0o755)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.read_text("/net/apps/alice/secret")
    uid = app_credentials("bob").uid
    assert any(t[0] == uid and t[2] == "/net/apps" for t in mon.accesses)


def test_monitor_mediates_every_file_a_readdirplus_returned(mon):
    """One crossing opens every file it returns: listing a home is not a
    read of it, so a monitor that judged only the directory would let
    ``read_object`` carry a tenant's files out unseen."""
    vfs, root = _host_tree()
    root.chmod("/net/apps/alice", 0o755)
    root.mkdir("/net/apps/alice/inbox", 0o755)
    bob = Syscalls(vfs, cred=app_credentials("bob"))
    bob.role = "app"
    bob.listdir("/net/apps/alice")
    assert mon.check() == []
    assert read_object(bob, "/net/apps/alice") == {"secret": b"s3cret"}
    assert [f.kind for f in mon.check()] == ["cross-tenant-read"]
    assert "readdirplus(/net/apps/alice/secret)" in mon.check()[0].detail  # the file; the inbox it did not open is not named


def test_monitor_judges_the_files_a_read_flow_opened():
    """The access tuples keep two path components, so what shows that a
    flow's files were mediated is the paths the monitor was asked about."""
    judged: list[tuple[str, str, bool]] = []

    class Recording(SecurityMonitor):
        def _on_path(self, sc, op, path, write):
            judged.append((op, path, write))
            super()._on_path(sc, op, path, write)

    root = Syscalls(VirtualFileSystem())
    mount_yancfs(root)
    client = YancClient(root)
    client.create_switch("s1")
    path = client.create_flow("s1", "f", Match(in_port=1), [Output(2)], priority=7)
    monitor = Recording()
    monitor.install()
    try:
        client.read_flow("s1", "f")
    finally:
        monitor.uninstall()
        secmon.reset_all()
    files = ["version", "match.in_port", "action.out", "priority"]
    assert judged == [("readdirplus", path, False)] + [("readdirplus", f"{path}/{name}", False) for name in files]
    assert {prefix for _uid, _ns, prefix in monitor.accesses} == {"/net/switches"}


def test_monitor_reset_keeps_registrations(mon):
    vfs, _ = _host_tree()
    sc = Syscalls(vfs)
    sc.role = "app"
    sc.listdir("/net")
    assert mon.check()
    mon.reset()
    assert mon.check() == [] and mon.accesses == set()
    # The /net registration survives: the same violation still resolves
    # against the controller tree after the per-test reset.
    sc.listdir("/net")
    assert any(f.kind == "root-app" for f in mon.check())


def test_install_from_env_is_off_by_default(monkeypatch):
    monkeypatch.delenv("YANCSEC", raising=False)
    assert not secmon.enabled()
    assert secmon.install_from_env() is None


# -- CLI discipline -------------------------------------------------------------------


def test_cli_findings_exit_one(capsys):
    rc = main(["yancsec", str(BAD)])
    out = capsys.readouterr().out
    assert rc == ExitCode.FINDINGS
    for rule, line in expected_findings(BAD):
        assert f"{BAD}:{line}:" in out
        assert f"[{rule}]" in out


def test_cli_clean_exit_zero(capsys):
    rc = main(["yancsec", str(OK)])
    assert rc == ExitCode.CLEAN
    assert "yancsec: 0 finding(s)" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = main(["yancsec", str(BAD), "--json"])
    assert rc == ExitCode.FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert sorted((rec["rule"], rec["line"]) for rec in payload) == sorted(expected_findings(BAD))


def test_cli_baseline_filters_known_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["yancsec", str(BAD), "--out", str(baseline)]) == ExitCode.FINDINGS
    capsys.readouterr()
    rc = main(["yancsec", str(BAD), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "(baseline)" in out and "0 finding(s)" in out


def test_cli_internal_error_exit_three(monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("synthetic analyzer crash")

    monkeypatch.setattr(JUDGES["yancsec"], "judge_interp", boom)
    rc = main(["yancsec", str(OK)])
    assert rc == ExitCode.INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_cli_monitor_clean_workload(tmp_path, capsys):
    workload = tmp_path / "workload.py"
    workload.write_text(
        textwrap.dedent(
            """\
            from repro.vfs.syscalls import Syscalls
            from repro.vfs.vfs import VirtualFileSystem

            sc = Syscalls(VirtualFileSystem())
            sc.makedirs("/net/hosts")
            sc.write_text("/net/hosts/h1", "mac")
            """
        )
    )
    rc = main(["yancsec", "--monitor", str(workload)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "0 finding(s)" in out and "access tuple(s)" in out
    secmon.reset_all()


def test_cli_monitor_flags_root_app(tmp_path, capsys):
    workload = tmp_path / "rogue.py"
    workload.write_text(
        textwrap.dedent(
            """\
            from repro.vfs.syscalls import Syscalls
            from repro.vfs.vfs import VirtualFileSystem

            sc = Syscalls(VirtualFileSystem())
            sc.role = "app"
            sc.makedirs("/net/hosts")
            """
        )
    )
    rc = main(["yancsec", "--monitor", str(workload)])
    assert rc == ExitCode.FINDINGS
    assert "[root-app]" in capsys.readouterr().out
    secmon.reset_all()


def test_cli_monitor_crashing_workload_exit_three(tmp_path, capsys):
    workload = tmp_path / "dies.py"
    workload.write_text("import sys\nsys.exit(7)\n")
    rc = main(["yancsec", "--monitor", str(workload)])
    assert rc == ExitCode.INTERNAL
    assert "exited with 7" in capsys.readouterr().err
    secmon.reset_all()


# -- public surface -------------------------------------------------------------------


def test_package_exports():
    assert ys.KINDS == KINDS
    assert callable(ys.analyze_yancsec)
    assert callable(ys.install_from_env)
