"""yancpath: finding kinds, grammar derivation, CLI discipline, suppressions."""

from __future__ import annotations

import importlib
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import yancpath as yp
from repro.analysis.cli import ExitCode, main
from repro.analysis.core import SourceFile
from repro.analysis.sweep import JUDGES
from repro.analysis.yancpath import NamespaceModel, analyze_yancpath
from repro.analysis.yancpath import patterns as P
from repro.analysis.yancpath.checker import KINDS, analyze_sources

HERE = Path(__file__).parent
BAD = HERE / "fixtures" / "bad" / "yancpath.py"
OK = HERE / "fixtures" / "ok" / "yancpath.py"
#: The fixtures drive the real client, so it is swept alongside them.
CLIENT = str(HERE.parents[1] / "src" / "repro" / "yancfs" / "client.py")

_BAD_MARK = re.compile(r"#\s*bad:\s*([\w,\-]+)")


def expected_findings(path: Path) -> list[tuple[str, int]]:
    """Sorted (rule, line) pairs from the ``# bad: r1,r2`` fixture markers."""
    pairs = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _BAD_MARK.search(line)
        if match:
            pairs.extend((rule, lineno) for rule in match.group(1).split(","))
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def findings_of(path: Path) -> list[tuple[str, int]]:
    found = analyze_yancpath([str(path), CLIENT])
    assert all(f.path == str(path) for f in found)
    return sorted(((f.rule, f.line) for f in found), key=lambda pair: (pair[1], pair[0]))


def matches(model: NamespaceModel, path: str) -> bool:
    pattern = P.finalize(P.tokens_from_literal(path))
    assert pattern is not None
    return model.match(pattern).matched


# -- finding kinds against the fixture pair -------------------------------------------


def test_bad_fixture_fires_every_kind():
    want = expected_findings(BAD)
    assert {rule for rule, _ in want} == set(KINDS), "fixture must seed all kinds"
    assert findings_of(BAD) == want


def test_ok_fixture_is_clean():
    assert findings_of(OK) == []


# -- the grammar is derived, not hand-copied ------------------------------------------


def test_grammar_follows_schema_mutation(monkeypatch):
    from repro.yancfs import schema

    base = NamespaceModel.build()
    assert matches(base, "/net/switches/s1/num_buffers")
    assert not matches(base, "/net/switches/s1/shiny_new_attr")

    monkeypatch.setattr(schema, "SWITCH_ATTRIBUTE_FILES", ("id", "shiny_new_attr"))
    mutated = NamespaceModel.build()
    assert not matches(mutated, "/net/switches/s1/num_buffers")
    assert matches(mutated, "/net/switches/s1/shiny_new_attr")


def test_grammar_rejects_neighbour_typos():
    model = NamespaceModel.build()
    assert matches(model, "/net/switches/s1/flows/f1/version")
    for typo in (
        "/net/switchs/s1/id",
        "/net/switches/s1/flow/f1/version",
        "/net/switches/s1/flows/f1/priorty",
        "/net/switches/s1/flows/f1/match.bogus",
    ):
        assert not matches(model, typo), typo


def test_non_yanc_paths_are_not_judged():
    model = NamespaceModel.build()
    for path in ("/tmp/foo/bar", "output.txt", "config/settings"):
        pattern = P.finalize(P.tokens_from_literal(path))
        assert not model.match(pattern).applicable, path


# -- CLI discipline -------------------------------------------------------------------


def test_cli_findings_exit_one(capsys):
    rc = main(["yancpath", str(BAD), CLIENT])
    out = capsys.readouterr().out
    assert rc == ExitCode.FINDINGS
    for rule, line in expected_findings(BAD):
        assert f"{BAD}:{line}:" in out
        assert f"[{rule}]" in out


def test_cli_clean_exit_zero(capsys):
    rc = main(["yancpath", str(OK), CLIENT])
    assert rc == ExitCode.CLEAN
    assert "yancpath: 0 finding(s)" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = main(["yancpath", str(BAD), CLIENT, "--json"])
    assert rc == ExitCode.FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert sorted((rec["rule"], rec["line"]) for rec in payload) == sorted(expected_findings(BAD))
    assert all(rec["path"] == str(BAD) for rec in payload)


def test_cli_baseline_filters_known_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert main(["yancpath", str(BAD), CLIENT, "--out", str(baseline)]) == ExitCode.FINDINGS
    capsys.readouterr()
    rc = main(["yancpath", str(BAD), CLIENT, "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert rc == ExitCode.CLEAN
    assert "(baseline)" in out and "0 finding(s)" in out


def test_cli_syntax_error_elsewhere_does_not_stop_analysis(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    (tmp_path / "app.py").write_text(
        "# yanclint: scope=app\n"
        "def read_id(sc, sw):\n"
        '    return sc.read_text(f"/net/switchs/{sw}/id")\n'
    )
    rc = main(["yancpath", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == ExitCode.FINDINGS  # findings, not an internal error
    assert "[parse-error]" in out and "[unknown-path]" in out


def test_cli_internal_error_exit_three(monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("synthetic analyzer crash")

    monkeypatch.setattr(JUDGES["yancpath"], "judge_interp", boom)
    rc = main(["yancpath", str(OK), CLIENT])
    assert rc == ExitCode.INTERNAL
    assert "internal error" in capsys.readouterr().err


def test_shipped_tree_is_yancpath_clean():
    repo = HERE.parents[1]
    assert analyze_yancpath([str(repo / "src"), str(repo / "examples")]) == []


# -- console scripts ------------------------------------------------------------------


def test_console_scripts_resolve():
    text = (HERE.parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("[", 1)[0]
    entries = dict(re.findall(r'(\w+)\s*=\s*"([\w.:]+)"', section))
    assert set(entries) == {"yanclint", "yancrace", "yancpath", "yancperf", "yanccrash", "yancsec"}
    for target in entries.values():
        module, func = target.split(":")
        assert callable(getattr(importlib.import_module(module), func))


# -- suppressions ---------------------------------------------------------------------


def _analyze_text(text: str) -> list[tuple[str, int]]:
    src = SourceFile.parse("app.py", textwrap.dedent(text))
    return [(f.rule, f.line) for f in analyze_sources([src])]


def test_disable_comment_silences_yancpath():
    assert _analyze_text(
        """\
        # yanclint: scope=app
        def read_id(sc, sw):
            return sc.read_text(f"/net/switchs/{sw}/id")  # yanclint: disable=unknown-path
        """
    ) == []


def test_disable_on_multiline_statement_tail():
    # The finding anchors at the statement's first line; the comment sits
    # on the closing line and must still apply.
    assert _analyze_text(
        """\
        # yanclint: scope=app
        def read_id(sc, sw):
            return sc.read_text(
                f"/net/switchs/{sw}/id"
            )  # yanclint: disable=unknown-path
        """
    ) == []


def test_disable_on_decorator_line_covers_the_def():
    src = SourceFile.parse(
        "t.py",
        textwrap.dedent(
            """\
            @property  # yanclint: disable=mutable-default
            def f(x=[]):
                return x
            """
        ),
    )
    assert src.is_suppressed("mutable-default", 2)


def test_disable_inside_a_body_does_not_cover_the_def():
    src = SourceFile.parse(
        "t.py",
        textwrap.dedent(
            """\
            def f(x=[]):
                return x  # yanclint: disable=mutable-default
            """
        ),
    )
    assert not src.is_suppressed("mutable-default", 1)
    assert src.is_suppressed("mutable-default", 2)


# -- public surface -------------------------------------------------------------------


def test_package_exports():
    assert yp.KINDS == KINDS
    assert callable(yp.analyze_yancpath)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_is_seeded_once(kind):
    assert any(rule == kind for rule, _ in expected_findings(BAD))
