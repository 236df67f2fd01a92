"""yancperf: finding kinds, cost polynomials, CLI discipline, calibration."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import yancperf as ypf
from repro.analysis.cli import ExitCode, main
from repro.analysis.core import SourceFile
from repro.analysis.sweep import JUDGES, Sweep
from repro.analysis.loader import load_files
from repro.analysis.yancperf import CostExpr, CostIndex, KINDS, analyze_yancperf
from repro.analysis.yancperf.checker import analyze_sources
from repro.analysis.yancperf.report import cost_report

from tests.analysis.test_yancpath import expected_findings

HERE = Path(__file__).parent
BAD = HERE / "fixtures" / "bad" / "yancperf.py"
OK = HERE / "fixtures" / "ok" / "yancperf.py"
BASELINE = HERE / "yancperf_baseline.json"
REPO = HERE.parents[1]


def findings_of(path: Path) -> list[tuple[str, int]]:
    found = analyze_yancperf([str(path)])
    assert all(f.path == str(path) for f in found)
    return sorted(((f.rule, f.line) for f in found), key=lambda pair: (pair[1], pair[0]))


# -- finding kinds against the fixture pair -------------------------------------------


def test_bad_fixture_fires_every_kind():
    want = expected_findings(BAD)
    assert {rule for rule, _ in want} == set(KINDS), "fixture must seed all kinds"
    assert findings_of(BAD) == want


def test_ok_fixture_is_clean():
    assert findings_of(OK) == []


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_seeded_once(kind):
    assert any(rule == kind for rule, _ in expected_findings(BAD))


# -- the cost model -------------------------------------------------------------------


def _index_of(text: str) -> CostIndex:
    return CostIndex(Sweep(sources=[SourceFile.parse("app.py", textwrap.dedent(text))]))


def test_loop_depth_multiplies_cost():
    index = _index_of(
        """\
        def flat(sc, path):
            sc.stat(path)

        def nested(sc, paths):
            for a in paths:
                for b in paths:
                    sc.stat(f"{a}/{b}")
        """
    )
    assert index.cost(index.find(None, "flat")).render() == "1"
    assert index.cost(index.find(None, "nested")).render() == "n^2"


def test_facade_helpers_decompose_into_real_syscalls():
    index = _index_of(
        """\
        def save(sc, path):
            sc.write_text(path, "x")  # open + write + close
            sc.makedirs(path)         # exists + mkdir per component
        """
    )
    assert index.cost(index.find(None, "save")).evaluate(1) == 5


def test_callee_cost_rolls_up_shifted_by_call_depth():
    index = _index_of(
        """\
        def helper(sc, path):
            sc.stat(path)
            sc.unlink(path)

        def caller(sc, paths):
            for path in paths:
                helper(sc, path)
        """
    )
    decl = index.find(None, "caller")
    assert index.cost(decl).render() == "2n"
    assert index.rolled_callees(decl) == 1


def test_recursion_yields_an_approx_floor():
    index = _index_of(
        """\
        def walk_down(sc, path):
            sc.stat(path)
            for name in sc.listdir(path):
                walk_down(sc, f"{path}/{name}")
        """
    )
    cost = index.cost(index.find(None, "walk_down"))
    assert cost.approx
    assert cost.evaluate(1) >= 2  # stat + listdir at least


def test_cost_expr_renders_and_ranks():
    expr = CostExpr()
    expr.add_term(2, 3)
    expr.add_term(0, 7)
    assert expr.render() == "3n^2 + 7"
    assert expr.sort_key() > CostExpr(coeffs={1: 50}).sort_key()


# -- the report ranks the whole tree --------------------------------------------------


def test_report_ranks_at_least_25_functions_with_rollup():
    rows = cost_report([str(REPO / "src")])
    assert len(rows) >= 25
    assert rows == sorted(rows, key=lambda r: r.cost.sort_key(), reverse=True)
    assert any(row.rolled > 0 for row in rows[:25]), "rollup must reach the top"
    names = {row.name for row in rows}
    assert "YancClient.read_events" in names


def test_report_cli_json(capsys):
    rc = main(["yancperf", str(BAD), "--report", "--top", "3", "--json"])
    assert rc == ExitCode.CLEAN
    payload = json.loads(capsys.readouterr().out)
    assert 0 < len(payload) <= 3
    assert {"name", "path", "line", "cost", "degree", "at_n8", "rolled_callees"} <= set(payload[0])


# -- CLI discipline -------------------------------------------------------------------


def test_cli_findings_exit_one(capsys):
    rc = main(["yancperf", str(BAD)])
    out = capsys.readouterr().out
    assert rc == ExitCode.FINDINGS
    for rule, line in expected_findings(BAD):
        assert f"{BAD}:{line}:" in out
        assert f"[{rule}]" in out


def test_cli_clean_exit_zero(capsys):
    rc = main(["yancperf", str(OK)])
    assert rc == ExitCode.CLEAN
    assert "yancperf: 0 finding(s)" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = main(["yancperf", str(BAD), "--json"])
    assert rc == ExitCode.FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert sorted((rec["rule"], rec["line"]) for rec in payload) == sorted(expected_findings(BAD))


def test_cli_baseline_filters_known_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["yancperf", str(BAD), "--out", str(baseline)]) == ExitCode.FINDINGS
    capsys.readouterr()
    rc = main(["yancperf", str(BAD), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "(baseline)" in out and "0 finding(s)" in out


def test_report_and_calibrate_are_mutually_exclusive(capsys):
    assert main(["yancperf", "--report", "--calibrate"]) == ExitCode.USAGE
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_internal_error_exit_three(monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("synthetic analyzer crash")

    monkeypatch.setattr(JUDGES["yancperf"], "judge_interp", boom)
    rc = main(["yancperf", str(OK)])
    assert rc == ExitCode.INTERNAL
    assert "internal error" in capsys.readouterr().err


# -- the checked-in baseline stays fresh ----------------------------------------------


def test_checked_in_baseline_matches_the_tree(monkeypatch):
    """The CI gate's baseline must exactly mirror today's sweep.

    A stale extra entry would mask a regression at that site; a missing
    entry fails CI.  Regenerate with:
        python -m repro.analysis yancperf src examples --out tests/analysis/yancperf_baseline.json
    """
    monkeypatch.chdir(REPO)  # the baseline records repo-relative paths
    sweep = {(f.rule, f.path, f.line) for f in analyze_yancperf(["src", "examples"])}
    recorded = {
        (rec["rule"], rec["path"], rec["line"]) for rec in json.loads(BASELINE.read_text())
    }
    assert sweep == recorded


def test_fixed_findings_stay_fixed():
    """The PR's measured fixes must not be re-reported (they are not baselined)."""
    fixed_kinds = {"readdir-then-stat"}
    findings = analyze_yancperf([str(REPO / "src")])
    toolbox = [f for f in findings if f.path.endswith("shell/toolbox.py")]
    assert not [f for f in toolbox if f.rule in fixed_kinds]
    topology = [f for f in findings if f.path.endswith("apps/topology.py")]
    assert not [f for f in topology if f.rule == "path-reresolve"]


def test_indexed_flowtable_lookup_not_flagged():
    """The tuple-space FlowTable probes buckets; no linear-table-scan."""
    findings = analyze_yancperf([str(REPO / "src" / "repro" / "dataplane" / "flowtable.py")])
    assert not [f for f in findings if f.rule == "linear-table-scan"]


# -- entries provenance (indirected full-table scans) ---------------------------------


def test_indirected_entries_scan_still_fires():
    """Stashing table.entries() in a local does not launder the scan."""
    assert _analyze_text(
        """\
        def lookup(table, key):
            rows = table.entries()
            for entry in rows:
                if entry.key == key:
                    return entry
            return None
        """
    ) == [("linear-table-scan", 3)]


def test_sorted_wrapper_keeps_entries_provenance():
    assert _analyze_text(
        """\
        def classify(table, key):
            rows = sorted(table.entries())
            for entry in rows:
                if entry.key == key:
                    return entry
        """
    ) == [("linear-table-scan", 3)]


def test_rebinding_clears_entries_provenance():
    """A variable rebound to something else stops counting as table rows."""
    assert _analyze_text(
        """\
        def lookup(table, bucket_index, key):
            rows = table.entries()
            rows = bucket_index.get(key, [])
            for entry in rows:
                if entry.key == key:
                    return entry
        """
    ) == []


# -- calibration ----------------------------------------------------------------------


def test_calibration_static_bounds_hold_live():
    from repro.analysis.yancperf.calibrate import run_calibration

    rows = run_calibration([str(REPO / "src")])
    assert len(rows) == 5
    batched = next(row for row in rows if row.function == "YancClient.create_flows_batched")
    assert batched.live == 2  # io_uring_setup + one io_uring_enter, however many flows
    for row in rows:
        assert row.ok, f"{row.function}: live {row.live} > bound {row.bound}"
        assert row.bound > 0


def test_calibrate_json_prints_one_record_per_row(capsys):
    rc = main(["yancperf", str(REPO / "src"), "--calibrate", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == ExitCode.CLEAN
    assert len(payload) == 5
    for record in payload:
        assert set(record) == {"function", "n", "static", "bound", "live", "ok", "note"}
        assert record["ok"] and record["live"] <= record["bound"]


# -- suppressions ---------------------------------------------------------------------


def _analyze_text(text: str) -> list[tuple[str, int]]:
    src = SourceFile.parse("app.py", textwrap.dedent(text))
    return [(f.rule, f.line) for f in analyze_sources([src])]


def test_disable_comment_silences_yancperf():
    assert _analyze_text(
        """\
        def push_all(sc, flows):
            for flow in flows:  # yancperf: disable=syscall-in-loop
                sc.write_text(f"/tmp/{flow}/priority", "1")
        """
    ) == []


def test_yanclint_spelling_also_works():
    assert _analyze_text(
        """\
        def stat_all(sc, path):
            return [
                sc.lstat(f"{path}/{n}")  # yanclint: disable=readdir-then-stat
                for n in sc.listdir(path)
            ]
        """
    ) == []


# -- public surface -------------------------------------------------------------------


def test_package_exports():
    assert ypf.KINDS == KINDS
    assert callable(ypf.analyze_yancperf)
    assert ypf.STORM_THRESHOLD >= 1
