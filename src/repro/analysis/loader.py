"""yanclint file collection and parsing.

Directories are walked recursively for ``*.py`` files; ``__pycache__``,
hidden directories, and ``fixtures`` directories are skipped (fixture files
hold deliberately-bad code and are only analyzed when named explicitly on
the command line, which always wins over the skip list).
"""

from __future__ import annotations

import os

from repro.analysis.core import Finding, Severity, SourceFile

_SKIP_DIRS = {"__pycache__", "fixtures", ".git", ".hg", "node_modules"}


def collect_files(paths: list[str]) -> tuple[list[str], list[Finding]]:
    """Expand files and directories into a sorted list of .py paths.

    Paths that do not exist become findings rather than silent no-ops —
    a typo'd path must not report "clean"."""
    out: list[str] = []
    missing: list[Finding] = []
    seen: set[str] = set()

    def add(path: str) -> None:
        norm = os.path.normpath(path)
        if norm not in seen:
            seen.add(norm)
            out.append(norm)

    for path in paths:
        if os.path.isfile(path):
            add(path)  # explicit files are always analyzed, even fixtures
            continue
        if not os.path.isdir(path):
            missing.append(
                Finding(path=path, line=1, col=1, rule="usage", severity=Severity.ERROR, message="no such file or directory")
            )
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    add(os.path.join(dirpath, name))
    return out, missing


def load_files(paths: list[str]) -> tuple[list[SourceFile], list[Finding]]:
    """Parse every collected file; unparseable ones become findings."""
    sources: list[SourceFile] = []
    files, findings = collect_files(paths)
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
            sources.append(SourceFile.parse(path, text))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule="parse-error",
                    severity=Severity.ERROR,
                    message=f"cannot parse: {exc.msg}",
                )
            )
    return sources, findings
