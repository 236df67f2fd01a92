"""yanclint core: findings, rules, source files, and suppressions.

A rule examines one :class:`SourceFile` (or, for cross-module rules, the
whole project) and yields :class:`Finding` records.  Suppressions are
in-source comments:

* ``# yanclint: disable=<rule>[,<rule>...]`` on the flagged line silences
  those rules for that line (``disable=all`` silences everything); the
  comment may also sit on a decorator line (it applies to the decorated
  ``def``) or on any later line of a multi-line statement (it applies to
  the statement's first line, where findings anchor);
* ``# yanclint: disable-file=<rule>`` anywhere silences a rule for the
  whole file;
* ``# yanclint: scope=<app|driver|example|vfs|clock>`` declares the file's
  scope explicitly, overriding the path-derived default (used by test
  fixtures that live outside the real ``apps/``/``vfs/`` trees).

Disable comments accept any ``yanc<tool>`` prefix (``# yancperf:
disable=...``, ``# yanccrash: disable=...``) — rule ids are unique across
the analysis tools, so every spelling addresses one shared suppression
set and each tool only ever consults its own ids.  Nothing has to be
registered, so it cannot matter which tool modules were imported before
a file was parsed.

A :class:`Judge` is the interpreter-based tools' counterpart of a rule:
what :class:`repro.analysis.sweep.Sweep` drives over the shared facts.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

_DISABLE_RE = re.compile(r"#\s*yanc\w+:\s*disable=([\w,\-]+)")
_DISABLE_FILE_RE = re.compile(r"#\s*yanc\w+:\s*disable-file=([\w,\-]+)")


def comment_suppresses(line: str, kind: str) -> bool:
    """True when a source ``line``'s disable comment covers ``kind``.

    The line-oriented entry point for runtime tools (yancrace) that look
    sites up through ``linecache`` instead of parsing a whole
    :class:`SourceFile`.
    """
    for match in _DISABLE_RE.finditer(line):
        kinds = set(match.group(1).split(","))
        if "all" in kinds or kind in kinds:
            return True
    return False


_SCOPE_RE = re.compile(r"#\s*yanclint:\s*scope=([\w\-]+)")

#: Compound statements: their bodies are *other* statements' lines, so a
#: disable inside the body must not bubble up to the header.
_COMPOUND_STMTS = tuple(
    getattr(ast, name)
    for name in (
        "FunctionDef",
        "AsyncFunctionDef",
        "ClassDef",
        "If",
        "For",
        "AsyncFor",
        "While",
        "With",
        "AsyncWith",
        "Try",
        "TryStar",
        "Match",
    )
    if hasattr(ast, name)
)


class Severity(enum.IntEnum):
    """Finding severity; the CLI exit code trips at WARNING and above."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case name for diagnostics."""
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line:col: severity [rule] message``."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def format(self) -> str:
        """Render the canonical single-line diagnostic."""
        return f"{self.path}:{self.line}:{self.col}: {self.severity.label} [{self.rule}] {self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class SourceFile:
    """A parsed module plus everything rules need to judge it."""

    path: str
    text: str
    tree: ast.Module
    scopes: set[str] = field(default_factory=set)
    line_disables: dict[int, set[str]] = field(default_factory=dict)
    file_disables: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        """Parse ``text``; raises SyntaxError for the loader to report."""
        tree = ast.parse(text, filename=path)
        src = cls(path=path, text=text, tree=tree)
        src._scan_comments()
        src._propagate_disables()
        src.scopes |= scopes_from_path(path)
        return src

    def _scan_comments(self) -> None:
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            if "#" not in line:
                continue
            for match in _DISABLE_RE.finditer(line):
                self.line_disables.setdefault(lineno, set()).update(match.group(1).split(","))
            for match in _DISABLE_FILE_RE.finditer(line):
                self.file_disables.update(match.group(1).split(","))
            for match in _SCOPE_RE.finditer(line):
                self.scopes.add(match.group(1))

    def _propagate_disables(self) -> None:
        """Attach disables written on secondary lines to the anchor line.

        Findings anchor at a statement's *first* line (the ``def`` line of
        a decorated function, the opening line of a multi-line call) — but
        the natural place to write the comment is often a decorator line
        or the closing line of the statement.  Copy those onto the anchor.
        """
        if not self.line_disables:
            return
        extra: dict[int, set[str]] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            anchor = node.lineno
            span: set[int] = set()
            for deco in getattr(node, "decorator_list", ()):
                span.update(range(deco.lineno, anchor))
            if not isinstance(node, _COMPOUND_STMTS):
                span.update(range(anchor + 1, (node.end_lineno or anchor) + 1))
            for lineno in span:
                rules = self.line_disables.get(lineno)
                if rules:
                    extra.setdefault(anchor, set()).update(rules)
        for anchor, rules in extra.items():
            self.line_disables.setdefault(anchor, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is disabled for ``line`` (or the whole file)."""
        if "all" in self.file_disables or rule in self.file_disables:
            return True
        disabled = self.line_disables.get(line, ())
        return "all" in disabled or rule in disabled


def scopes_from_path(path: str) -> set[str]:
    """Derive rule scopes from where a file lives.

    * ``app``     — application-side code (src ``apps/`` and ``shell/``):
      may only reach the network through file I/O;
    * ``driver``  — device-facing daemons (``drivers/``, ``middlebox/``,
      ``distfs/``): run as processes; scheduling goes through Process;
    * ``example`` — ``examples/`` scripts: may build the simulated hardware
      but must not bypass the file interface to *control* it;
    * ``vfs``     — ``vfs/`` and ``yancfs/``: raises must be typed;
    * ``clock``   — ``sim/clock.py``: the one legitimate time source.

    Paths under a ``tests`` or ``fixtures`` segment get no implicit scope
    (fixtures opt in with ``# yanclint: scope=...``).
    """
    parts = path.replace("\\", "/").split("/")
    segments = [p for p in parts if p not in ("", ".")]
    if "tests" in segments or "fixtures" in segments:
        return set()
    scopes: set[str] = set()
    if "apps" in segments or "shell" in segments:
        scopes.add("app")
    if "drivers" in segments or "middlebox" in segments or "distfs" in segments:
        scopes.add("driver")
    if "examples" in segments:
        scopes.add("example")
    if "vfs" in segments or "yancfs" in segments:
        scopes.add("vfs")
    if len(segments) >= 2 and segments[-2] == "sim" and segments[-1] == "clock.py":
        scopes.add("clock")
    return scopes


class Rule:
    """Base class: one per-file check.

    Subclasses set ``id``, ``severity``, ``description`` and implement
    :meth:`check`.  Cross-module rules subclass :class:`ProjectRule`.
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, src: SourceFile) -> Iterator[Finding]:
        """Yield findings for one source file."""
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            severity=self.severity,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that judges the project as a whole, not one file."""

    def check(self, src: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_project(self, sweep) -> Iterator[Finding]:
        """Yield findings spanning modules of one :class:`~repro.analysis.sweep.Sweep`."""
        raise NotImplementedError


@dataclass
class Judge:
    """One interpreter-based tool: a table of finding kinds plus the
    callbacks :meth:`repro.analysis.sweep.Sweep.run` drives.

    ``emit(kind, node, message)`` is the sweep's; ``state`` is whatever
    ``prepare(sweep)`` returned (None without one).
    """

    name: str
    severities: dict[str, Severity]  # finding kind -> severity; the keys are the tool's KINDS
    judge_interp: Callable[[Any, Any, Callable, Any], None]  # (sweep, interp, emit, state)
    prepare: Callable[[Any], Any] | None = None  # (sweep) -> state, once per run
    judge_module: Callable[[Any, Any, Callable, Any], None] | None = None  # (sweep, module, emit, state)

    def analyze(self, paths: list[str], *, model=None) -> list[Finding]:
        """Sweep files/directories ``paths``: sorted findings, loader findings included."""
        from repro.analysis.sweep import Sweep

        return Sweep(paths, model=model).report(self)

    def analyze_sources(self, sources: Iterable[SourceFile], *, model=None) -> list[Finding]:
        """Judge already-parsed sources (the CLI adds loader findings)."""
        from repro.analysis.sweep import Sweep

        return Sweep(sources=sources, model=model).run(self)


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add a rule instance to the global registry (id must be unique)."""
    if not rule.id:
        raise ValueError("rule needs an id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def all_rules() -> dict[str, Rule]:
    """The registry, importing the built-in rule modules on first use."""
    # Imported lazily so `core` stays dependency-free for the sanitizer.
    from repro.analysis import (  # noqa: F401
        determinism,
        errordiscipline,
        hygiene,
        notifyread,
        procdiscipline,
        schemacoverage,
        sharedwrite,
        vfsbypass,
    )

    return dict(_REGISTRY)
