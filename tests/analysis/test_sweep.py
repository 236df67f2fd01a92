"""The static sweep and the one subcommand table.

Sharing must be real (one parse, one model, one interpretation for N
judges) and invisible (``all`` reports, record for record, what each
subcommand reports alone); the table rows must behave uniformly; and the
one workload runner must hand the workload its arguments and leave no
trace — subscriber, ``sys.argv``, environment — on any exit path.
"""

from __future__ import annotations

import collections
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.cli import COMMANDS, ExitCode, main
from repro.analysis.core import SourceFile
from repro.analysis.loader import load_files
from repro.analysis.sweep import JUDGES
from repro.analysis.yancpath.grammar import NamespaceModel
from repro.analysis.yancpath.interp import FuncInterp, ProjectIndex
from repro.perf import tracepoints

REPO = Path(__file__).resolve().parents[2]
FIXTURES = sorted((REPO / "tests/analysis/fixtures").glob("*/*.py"))
TOOLS = ["yanclint", *JUDGES]


def _json(capsys, argv: list[str]) -> tuple[int, object]:
    rc = main([*argv, "--json"])
    return rc, json.loads(capsys.readouterr().out)


def _per_tool(capsys, paths: list[str]) -> dict[str, list[dict]]:
    """What each subcommand prints alone (yanclint is the wordless default)."""
    return {tool: _json(capsys, ([] if tool == "yanclint" else [tool]) + paths)[1] for tool in TOOLS}


# -- sharing is real -------------------------------------------------------------------


def test_all_parses_builds_and_interprets_once(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    index = ProjectIndex(load_files(["src", "examples"])[0], lambda tokens: None)
    expected_interps = sum(1 + len(module.functions) for module in index.modules)
    parses: collections.Counter = collections.Counter()
    builds: list[int] = []
    sweep_runs: collections.Counter = collections.Counter()
    depth = [0]  # >0 while the index interprets a callee or an __init__ on demand
    real_parse, real_build = SourceFile.parse.__func__, NamespaceModel.build.__func__
    real_run = FuncInterp.run

    def parse(cls, path, text):
        parses[path] += 1
        return real_parse(cls, path, text)

    def build(cls):
        builds.append(1)
        return real_build(cls)

    def on_demand(real):
        def wrapper(self, *args):
            depth[0] += 1
            try:
                return real(self, *args)
            finally:
                depth[0] -= 1

        return wrapper

    def run(self):
        if depth[0] == 0:
            key = id(self.decl.node) if self.decl is not None else self.module.src.path
            sweep_runs[key] += 1
        return real_run(self)

    monkeypatch.setattr(SourceFile, "parse", classmethod(parse))
    monkeypatch.setattr(NamespaceModel, "build", classmethod(build))
    monkeypatch.setattr(ProjectIndex, "summary", on_demand(ProjectIndex.summary))
    monkeypatch.setattr(ProjectIndex, "attr_env", on_demand(ProjectIndex.attr_env))
    monkeypatch.setattr(FuncInterp, "run", run)

    assert main(["all", "src", "examples", "--baseline", "tests/analysis/yancperf_baseline.json"]) == ExitCode.CLEAN
    capsys.readouterr()
    assert parses and set(parses.values()) == {1}, "every file is parsed exactly once"
    assert len(builds) == 1, "one NamespaceModel for yanclint and the four judges"
    assert set(sweep_runs.values()) == {1}, "every module body and function is interpreted once"
    assert len(sweep_runs) == expected_interps >= len(parses) == len(index.modules)


def test_all_equals_each_subcommand_on_the_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    rc, sections = _json(capsys, ["all", "src", "examples"])
    assert rc == ExitCode.FINDINGS  # yancperf's baselined work list
    assert sections == _per_tool(capsys, ["src", "examples"])


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_equals_each_subcommand_on_fixtures(fixture, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    path = str(fixture.relative_to(REPO))
    rc, sections = _json(capsys, ["all", path])
    assert sections == _per_tool(capsys, [path])
    assert rc == (ExitCode.FINDINGS if any(sections.values()) else ExitCode.CLEAN)


@pytest.mark.parametrize("tool", JUDGES)
def test_a_raising_judge_is_an_internal_error_not_a_shorter_report(tool, monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("synthetic judge crash")

    monkeypatch.setattr(JUDGES[tool], "judge_interp", boom)
    ok = str(REPO / "tests/analysis/fixtures/ok/yancpath.py")
    assert main(["all", ok]) == ExitCode.INTERNAL
    assert "synthetic judge crash" in capsys.readouterr().err


def test_all_baseline_and_out_roundtrip(tmp_path, capsys):
    bad = str(REPO / "tests/analysis/fixtures/bad/yanccrash.py")
    baseline = tmp_path / "all.json"
    assert main(["all", bad, "--out", str(baseline)]) == ExitCode.FINDINGS
    assert {rec["rule"] for rec in json.loads(baseline.read_text())} >= set(JUDGES["yanccrash"].severities)
    capsys.readouterr()
    assert main(["all", bad, "--baseline", str(baseline)]) == ExitCode.CLEAN
    assert "0 finding(s)" in capsys.readouterr().out


# -- the table rows behave uniformly ---------------------------------------------------

ROWS = [cmd for cmd in COMMANDS if cmd.name]  # every row but the wordless default
STATIC_ROWS = [cmd for cmd in ROWS if cmd.paths is not None]
WORKLOAD_ROWS = [cmd for cmd in ROWS if cmd.subscriber is not None]


def _workload(tmp_path, text: str) -> str:
    path = tmp_path / "workload.py"
    path.write_text(text)
    return str(path)


def _workload_argv(cmd, workload: str, *rest: str) -> list[str]:
    flag = [cmd.workload_flag] if cmd.workload_flag else []
    return [cmd.name, *flag, workload, *rest]


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c.name or "yanclint")
def test_every_row_has_a_console_script_and_a_docstring_paragraph(cmd):
    scripts = (REPO / "pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("[", 1)[0]
    assert re.search(rf'^{cmd.prog.split()[0]} = "repro\.analysis\.cli:entry"$', scripts, re.M)
    invocation = f"* ``python -m repro.analysis {cmd.name} " if cmd.name else "* ``python -m repro.analysis [paths...]``"
    assert invocation in cli.__doc__, f"cli.py docstring lacks a paragraph for {cmd.name!r}"


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c.name or "yanclint")
def test_console_script_entry_dispatches_on_the_table(cmd, monkeypatch):
    seen: list[list[str]] = []
    monkeypatch.setattr(cli, "main", lambda argv: seen.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", [f"/usr/bin/{cmd.prog.split()[0]}", "--json"])
    assert cli.entry() == 0
    script_row = next(c for c in COMMANDS if c.prog == cmd.prog.split()[0])
    assert seen == [([script_row.name] if script_row.name else []) + ["--json"]]


@pytest.mark.parametrize("cmd", STATIC_ROWS, ids=lambda c: c.name)
def test_static_rows_share_flags_and_exit_codes(cmd, tmp_path, capsys):
    tool = "yancperf" if cmd.name == "all" else cmd.name  # a pair yanclint's rules are quiet on
    bad = str(REPO / f"tests/analysis/fixtures/bad/{tool}.py")
    ok = str(REPO / f"tests/analysis/fixtures/ok/{tool}.py")
    out = tmp_path / "findings.json"
    assert main([cmd.name, ok]) == ExitCode.CLEAN
    assert f"{cmd.prog}: 0 finding(s)" in capsys.readouterr().out
    assert main([cmd.name, bad, "--json", "--out", str(out)]) == ExitCode.FINDINGS
    printed = json.loads(capsys.readouterr().out)
    flat = printed if isinstance(printed, list) else [rec for recs in printed.values() for rec in recs]
    assert {rec["rule"] for rec in json.loads(out.read_text())} == {rec["rule"] for rec in flat}
    assert main([cmd.name, bad, "--baseline", str(out)]) == ExitCode.CLEAN
    assert "(baseline)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        main([cmd.name, "--no-such-flag"])
    assert usage.value.code == ExitCode.USAGE
    assert main([cmd.name, ok, "--baseline", str(tmp_path / "missing.json")]) == ExitCode.INTERNAL


# -- the one workload runner -----------------------------------------------------------

ECHO_ARGV = "import json, sys\nprint('ARGV=' + json.dumps(sys.argv[1:]))\n"


@pytest.mark.parametrize("cmd", WORKLOAD_ROWS, ids=lambda c: c.name)
def test_workload_receives_its_arguments(cmd, tmp_path, capsys):
    """``--explore w.py src examples`` used to run ``w.py`` with no arguments."""
    rc = main(_workload_argv(cmd, _workload(tmp_path, ECHO_ARGV), "src", "examples"))
    assert rc == ExitCode.CLEAN
    assert 'ARGV=["src", "examples"]' in capsys.readouterr().out


@pytest.mark.parametrize(
    "body, expected",
    [
        ("pass\n", ExitCode.CLEAN),
        ("raise SystemExit(0)\n", ExitCode.CLEAN),
        ("raise SystemExit(7)\n", ExitCode.INTERNAL),
        ("raise RuntimeError('workload crash')\n", ExitCode.INTERNAL),
    ],
    ids=["clean", "exit-zero", "exit-nonzero", "exception"],
)
@pytest.mark.parametrize("cmd", WORKLOAD_ROWS, ids=lambda c: c.name)
def test_workload_runner_leaves_no_trace(cmd, body, expected, tmp_path, capsys, monkeypatch):
    resets: list[object] = []
    real_reset = cmd.subscriber.reset
    monkeypatch.setattr(cmd.subscriber, "reset", lambda self: (resets.append(self), real_reset(self))[1])
    subscribers, argv, environ = list(tracepoints.subscribers), sys.argv, dict(os.environ)
    assert main(_workload_argv(cmd, _workload(tmp_path, body))) == expected
    assert tracepoints.subscribers == subscribers, "the subscriber is off the bus"
    assert len(resets) == 1 and isinstance(resets[0], cmd.subscriber), "and reset"
    assert sys.argv is argv and dict(os.environ) == environ
