"""yanccrash: static finding kinds, the crash-point explorer, CLI discipline."""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import race, sanitizer
from repro.analysis import yanccrash as yc
from repro.analysis.cli import ExitCode, main
from repro.analysis.core import SourceFile
from repro.analysis.sweep import JUDGES
from repro.analysis.yanccrash.checker import KINDS, analyze_sources, analyze_yanccrash
from repro.analysis.yanccrash.explorer import ReplayTree, explore
from repro.analysis.yanccrash.recorder import CrashRecorder
from repro.dataplane.actions import Output
from repro.dataplane.match import Match
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs

HERE = Path(__file__).parent
BAD = HERE / "fixtures" / "bad" / "yanccrash.py"
OK = HERE / "fixtures" / "ok" / "yanccrash.py"
BASELINE = HERE / "yanccrash_baseline.json"

_BAD_MARK = re.compile(r"#\s*bad:\s*([\w,\-]+)")


def expected_findings(path: Path) -> list[tuple[str, int]]:
    pairs = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _BAD_MARK.search(line)
        if match:
            pairs.extend((rule, lineno) for rule in match.group(1).split(","))
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def findings_of(path: Path) -> list[tuple[str, int]]:
    found = analyze_yanccrash([str(path)])
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


def test_shipped_tree_is_yanccrash_clean():
    repo = HERE.parents[1]
    assert analyze_yanccrash([str(repo / "src"), str(repo / "examples")]) == []


def test_checked_in_baseline_is_empty():
    # The sweep is clean, so the baseline CI enforces must stay empty:
    # new findings fail the build instead of silently joining a blob.
    assert json.loads(BASELINE.read_text()) == []


# -- suppressions ---------------------------------------------------------------------


def _analyze_text(text: str) -> list[tuple[str, int]]:
    src = SourceFile.parse("app.py", textwrap.dedent(text))
    return [(f.rule, f.line) for f in analyze_sources([src])]


def test_disable_comment_silences_yanccrash():
    body = """\
    def publish(sc, name):
        out = f"/var/run/spool/{name}"
        sc.mkdir(out){comment}
        sc.write_text(f"{out}/head", "h")
        sc.write_text(f"{out}/body", "b")
    """
    noisy = _analyze_text(body.replace("{comment}", ""))
    assert ("non-atomic-publish", 3) in noisy
    quiet = _analyze_text(body.replace("{comment}", "  # yanccrash: disable=non-atomic-publish"))
    assert quiet == []


def test_middlebox_driver_publishes_atomically():
    # Regression: MiddleboxDriver.attach used to mkdir the device dir in
    # place and fill attributes afterwards; it now assembles under a
    # dot-temp and renames.  The suppressed _write_entry mkdir (state
    # entries stay plain files for cp/mv migration) must stay suppressed.
    repo = HERE.parents[1]
    paths = [
        str(repo / "src" / "repro" / "middlebox" / "driver.py"),
        # recovery.py carries the project's YANCCRASH_RECOVERS declaration
        # for /net; without it every dot-temp would read as unrecovered.
        str(repo / "src" / "repro" / "yancfs" / "recovery.py"),
    ]
    assert analyze_yanccrash(paths) == []


# -- the durable-op recorder ----------------------------------------------------------


def _record(fn, roots=("/net", "/var")):
    vfs = VirtualFileSystem()
    sc = Syscalls(vfs)
    recorder = CrashRecorder(roots=roots).install()
    try:
        fn(sc)
    finally:
        recorder.uninstall()
    return recorder.ops


def test_recorder_captures_only_in_scope_ops():
    def workload(sc):
        sc.makedirs("/var/spool")
        sc.write_text("/var/spool/a", "x")
        sc.makedirs("/tmp/out")
        sc.write_text("/tmp/out/b", "y")  # /tmp is out of scope

    ops = _record(workload)
    paths = [op.args[0] for op in ops if op.op in ("open", "mkdir")]
    assert any(p.startswith("/var/spool") for p in paths)
    assert not any(p.startswith("/tmp") for p in paths)


def test_recorder_is_inert_when_not_installed():
    vfs = VirtualFileSystem()
    sc = Syscalls(vfs)
    recorder = CrashRecorder()
    sc.makedirs("/var/spool")
    sc.write_text("/var/spool/a", "x")
    assert recorder.ops == []


def test_recorder_tags_uring_batches():
    def workload(sc):
        sc.makedirs("/var/spool")
        ring = sc.io_uring_setup(entries=8)
        ring.prep("mkdir", "/var/spool/d", link=True)
        ring.prep_write_file("/var/spool/d/f", b"x")
        ring.submit()

    ops = _record(workload)
    batched = [op for op in ops if op.batch is not None]
    assert batched, "ops dispatched inside submit() must carry a batch tag"
    assert len({op.batch for op in batched}) == 1


def test_recorder_state_does_not_outlive_its_context():
    """Regression: tracked fds and yanc mounts were module-global and keyed
    by ``id()`` of objects the recorder did not keep alive, so a context or
    store allocated where a collected one had lived inherited its entries."""
    import gc

    recorder = CrashRecorder().install()
    try:
        for _ in range(3):  # create, use, drop — under one recorder
            sc = Syscalls(VirtualFileSystem())
            fs = mount_yancfs(sc, "/net")
            sc.makedirs("/var/spool")
            sc.open("/var/spool/a", 0o101)  # O_WRONLY|O_CREAT: tracked, never closed
            assert len(recorder._tracked_fds) == 1 and len(recorder._fs_mounts) == 1
            del sc, fs
            sanitizer.reset_all()  # under YANCSAN=1 the leak report pins the handle, and so the store
            gc.collect()  # the tree is cyclic (inode <-> filesystem)
            assert len(recorder._tracked_fds) == 0 and len(recorder._fs_mounts) == 0
        sc = Syscalls(VirtualFileSystem())
        fs = mount_yancfs(sc, "/net")
        sc.makedirs("/var/spool")
        fd = sc.open("/var/spool/a", 0o101)
        recorder.uninstall()  # the trace survives, the context map does not
        assert recorder.ops and not recorder._tracked_fds and not recorder._fs_mounts
        recorder.install()
        before = len(recorder.ops)
        sc.write(fd, b"opened before this recording began")
        sc.close(fd)
        assert recorder.ops[before:] == []
    finally:
        recorder.uninstall()
        sanitizer.reset_all()


# -- the crash-point explorer ---------------------------------------------------------


def _clean_flow_workload(sc):
    mount_yancfs(sc, "/net")
    client = YancClient(sc)
    client.create_switch("s1")
    client.create_flow("s1", "f1", Match(in_port=3), [Output(1)])


def test_explorer_clean_workload_has_no_violations():
    result = explore(_record(_clean_flow_workload))
    assert result.violations == []
    assert result.prefixes == result.ops + 1  # every prefix, plus the empty trace


def test_explorer_recommit_is_crash_safe():
    # Regression: commit_flow used to rewrite version via write_text,
    # whose O_TRUNC open exposed an empty (= 0) version to a crash —
    # recovery would then sweep a committed flow as torn.  The pwrite
    # commit keeps every crash prefix clean.
    def workload(sc):
        _clean_flow_workload(sc)
        client = YancClient(sc)
        client.commit_flow("s1", "f1")
        client.commit_flow("s1", "f1")

    result = explore(_record(workload))
    assert result.violations == []


def test_explorer_flags_truncating_version_rewrite():
    # The old commit idiom, spelled raw: the checker must still see the
    # hazard the pwrite fix removed.
    def workload(sc):
        _clean_flow_workload(sc)
        sc.write_text("/net/switches/s1/flows/f1/version", "2")

    result = explore(_record(workload))
    assert any(v.kind == "version-regression" for v in result.violations)


def test_explorer_flags_version_regression():
    def workload(sc):
        _clean_flow_workload(sc)
        fd = sc.open("/net/switches/s1/flows/f1/version", 0o1)  # O_WRONLY
        sc.pwrite(fd, b"0", 0)
        sc.close(fd)

    result = explore(_record(workload))
    # The regression is deliberate; it lands in the YANCSAN-env sanitizer
    # too (live run and replay), so clear it for the autouse teardown.
    sanitizer.reset_all()
    assert any(v.kind == "version-regression" for v in result.violations)


def test_explorer_flags_write_into_published_entry():
    def workload(sc):
        sc.makedirs("/var/spool")
        sc.mkdir("/var/spool/.e1")
        sc.write_text("/var/spool/.e1/data", "d")
        sc.rename("/var/spool/.e1", "/var/spool/e1")
        sc.write_text("/var/spool/e1/late", "x")

    result = explore(_record(workload))
    assert any(v.kind == "torn-publication" for v in result.violations)


def test_explorer_flags_spec_write_after_commit():
    def workload(sc):
        _clean_flow_workload(sc)
        sc.write_text("/net/switches/s1/flows/f1/match.in_port", "4")

    result = explore(_record(workload))
    # The uncommitted spec rewrite is deliberate; yancsan and yancrace
    # flag it too (live run and replay).
    sanitizer.reset_all()
    race.reset_all()
    assert any(v.kind == "spec-after-commit" for v in result.violations)


def test_explorer_spec_rewrite_with_recommit_is_clean():
    def workload(sc):
        _clean_flow_workload(sc)
        client = YancClient(sc)
        sc.write_text("/net/switches/s1/flows/f1/match.in_port", "4")
        client.commit_flow("s1", "f1")

    result = explore(_record(workload))
    assert not any(v.kind == "spec-after-commit" for v in result.violations)


def test_explorer_consumed_publication_is_legal():
    def workload(sc):
        sc.makedirs("/var/spool")
        sc.mkdir("/var/spool/.e1")
        sc.write_text("/var/spool/.e1/data", "d")
        sc.rename("/var/spool/.e1", "/var/spool/e1")
        sc.unlink("/var/spool/e1/data")  # consumer drains...
        sc.rmdir("/var/spool/e1")  # ...and removes the entry

    result = explore(_record(workload))
    assert result.violations == []


def test_explorer_covers_mid_chain_severs():
    # Crash prefixes cut inside a submit()'s dispatched run; the chained
    # create (specs linked into the version tail) must survive every cut.
    def workload(sc):
        mount_yancfs(sc, "/net")
        client = YancClient(sc)
        client.create_switch("s1")
        ring = sc.io_uring_setup(entries=16)
        base = "/net/switches/s1/flows/f1"
        ring.prep("mkdir", base, link=True)
        ring.prep_write_file(f"{base}/match.in_port", b"3", link=True)
        ring.prep_write_file(f"{base}/action.out", b"1", link=True)
        ring.prep_write_file(f"{base}/version", b"1")
        ring.submit()

    ops = _record(workload)
    assert any(op.batch is not None for op in ops)
    result = explore(ops)
    assert result.violations == []


def test_explorer_enumerates_flush_window_subsets():
    from repro.libyanc.fastpath import LibYanc

    def workload(sc):
        fs = mount_yancfs(sc, "/net")
        client = YancClient(sc)
        client.create_switch("s1")
        ly = LibYanc(fs)
        ly.stage_flow("s1", "f1", Match(in_port=1), [Output(2)])
        ly.stage_flow("s1", "f2", Match(in_port=2), [Output(3)])
        ly.stage_flow("s1", "f3", Match(in_port=3), [Output(4)])
        ly.flush()

    ops = _record(workload)
    windowed = [op for op in ops if op.window is not None]
    assert len(windowed) == 3, "flush must tag one commit per staged flow"
    result = explore(ops)
    # 3 commits -> 2^3-1 subsets minus the 3 non-empty prefix-shaped ones.
    assert result.window_states == 4
    assert result.violations == []


def test_explorer_replays_truncates_links_and_fastpath_rewrites():
    from repro.libyanc.fastpath import LibYanc
    from repro.vfs.vfs import O_WRONLY

    def workload(sc):
        fs = mount_yancfs(sc, "/net")
        client = YancClient(sc)
        client.create_switch("s1")
        client.create_flow("s1", "f1", Match(in_port=3), [Output(1)])
        ly = LibYanc(fs)
        ly.write_flow_files("s1", "f1", {"priority": "7"}, commit=True)
        ly.delete_flow("s1", "f1")
        sc.makedirs("/var/spool")
        sc.write_text("/var/spool/log", "abcdef")
        sc.truncate("/var/spool/log", 4)
        fd = sc.open("/var/spool/log", O_WRONLY)
        sc.ftruncate(fd, 2)
        sc.close(fd)
        sc.symlink("/var/spool/log", "/var/spool/current")
        sc.link("/var/spool/log", "/var/spool/hard")

    ops = _record(workload)
    wanted = {"ftruncate", "truncate", "symlink", "link", "fastpath-write", "fastpath-delete"}
    tree = ReplayTree()
    replayed = {op.op for op in ops if tree.apply(op) is not None}
    assert wanted <= replayed
    assert tree.sc.read_text("/var/spool/hard") == "ab"
    assert not tree.sc.exists("/net/switches/s1/flows/f1")
    result = explore(ops)
    assert result.violations == []


def test_explorer_empty_trace():
    result = explore([])
    assert result.violations == [] and result.prefixes == 0


def test_replay_tree_reconstructs_the_live_tree():
    ops = _record(_clean_flow_workload)
    tree = ReplayTree()
    for op in ops:
        tree.apply(op)
    assert tree.sc.read_text("/net/switches/s1/flows/f1/version").strip() == "1"
    assert tree.sc.read_text("/net/switches/s1/flows/f1/match.in_port").strip() == "3"


# -- CLI discipline -------------------------------------------------------------------


def test_cli_findings_exit_one(capsys):
    rc = main(["yanccrash", str(BAD)])
    out = capsys.readouterr().out
    assert rc == ExitCode.FINDINGS
    for rule, line in expected_findings(BAD):
        assert f"{BAD}:{line}:" in out
        assert f"[{rule}]" in out


def test_cli_clean_exit_zero(capsys):
    rc = main(["yanccrash", str(OK)])
    assert rc == ExitCode.CLEAN
    assert "yanccrash: 0 finding(s)" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = main(["yanccrash", str(BAD), "--json"])
    assert rc == ExitCode.FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert sorted((rec["rule"], rec["line"]) for rec in payload) == sorted(expected_findings(BAD))


def test_cli_baseline_filters_known_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["yanccrash", str(BAD), "--out", str(baseline)]) == ExitCode.FINDINGS
    capsys.readouterr()
    rc = main(["yanccrash", str(BAD), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "(baseline)" in out and "0 finding(s)" in out


def test_cli_internal_error_exit_three(monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("synthetic analyzer crash")

    monkeypatch.setattr(JUDGES["yanccrash"], "judge_interp", boom)
    rc = main(["yanccrash", str(OK)])
    assert rc == ExitCode.INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_cli_explore_clean_workload(tmp_path, capsys):
    workload = tmp_path / "workload.py"
    workload.write_text(
        textwrap.dedent(
            """\
            from repro.dataplane.actions import Output
            from repro.dataplane.match import Match
            from repro.vfs.syscalls import Syscalls
            from repro.vfs.vfs import VirtualFileSystem
            from repro.yancfs.client import YancClient, mount_yancfs

            sc = Syscalls(VirtualFileSystem())
            mount_yancfs(sc, "/net")
            client = YancClient(sc)
            client.create_switch("s1")
            client.create_flow("s1", "f1", Match(in_port=3), [Output(1)])
            client.commit_flow("s1", "f1")
            """
        )
    )
    rc = main(["yanccrash", "--explore", str(workload)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "explored" in out and "0 invariant violation(s)" in out


def test_cli_explore_torn_workload(tmp_path, capsys):
    workload = tmp_path / "torn.py"
    workload.write_text(
        textwrap.dedent(
            """\
            from repro.vfs.syscalls import Syscalls
            from repro.vfs.vfs import VirtualFileSystem

            sc = Syscalls(VirtualFileSystem())
            sc.makedirs("/var/spool")
            sc.mkdir("/var/spool/.e1")
            sc.write_text("/var/spool/.e1/data", "d")
            sc.rename("/var/spool/.e1", "/var/spool/e1")
            sc.write_text("/var/spool/e1/late", "x")
            """
        )
    )
    rc = main(["yanccrash", "--explore", str(workload)])
    assert rc == ExitCode.FINDINGS
    assert "[torn-publication]" in capsys.readouterr().out


def test_cli_explore_crashing_workload_exit_three(tmp_path, capsys):
    workload = tmp_path / "dies.py"
    workload.write_text("import sys\nsys.exit(7)\n")
    rc = main(["yanccrash", "--explore", str(workload)])
    assert rc == ExitCode.INTERNAL
    assert "exited with 7" in capsys.readouterr().err


# -- public surface -------------------------------------------------------------------


def test_package_exports():
    assert yc.KINDS == KINDS
    assert callable(yc.analyze_yanccrash)
