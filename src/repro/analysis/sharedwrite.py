"""Rule ``shared-write-discipline``: flow writes commit in the same function.

§3.4 makes the ``version`` increment the one atomic commit point for a
flow: its spec files (``match.*``, ``action.*``, ``priority``, the
timeouts, ``cookie`` — :mod:`repro.yancfs.commit` names them) are just
staging until the version bump publishes them to the driver.  A function
that writes flow-spec files but never commits leaves the flow torn — the
switch never sees the change, and any concurrent reader observes a
half-edited spec.
yancrace catches this dynamically (``torn-commit``); this rule catches
the shape statically, before the code ever runs.

A function is flagged when it stages spec state — a ``write_text`` /
``write_bytes`` whose path literally names a spec file, or a
``create_flow(..., commit=False)`` — and contains no commit: no
``commit_flow`` call and no write to a ``version`` file.

Scopes: ``app`` and ``example`` (drivers *read* specs; client helpers
live in yancfs and stage on behalf of callers).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, Severity, SourceFile, register
from repro.yancfs.commit import SPEC_NAMES, SPEC_PREFIXES

#: Literal path fragments that mark a write as flow-spec staging.
_SPEC_MARKERS = SPEC_PREFIXES + tuple(f"/{name}" for name in sorted(SPEC_NAMES))
_WRITE_ATTRS = {"write_text", "write_bytes"}


def _static_text(node: ast.AST) -> str:
    """Concatenated constant parts of a string expression ('' if none)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value for part in node.values if isinstance(part, ast.Constant) and isinstance(part.value, str)
        )
    return ""


def _is_spec_write(call: ast.Call) -> str | None:
    """The offending spec fragment when ``call`` stages flow state."""
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr in _WRITE_ATTRS and call.args:
        text = _static_text(call.args[0])
        for marker in _SPEC_MARKERS:
            if marker in text:
                return marker
        return None
    if call.func.attr == "create_flow":
        for kw in call.keywords:
            if kw.arg == "commit" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return "commit=False"
    return None


def _is_commit(call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    if call.func.attr == "commit_flow":
        return True
    if call.func.attr in _WRITE_ATTRS and call.args:
        return "version" in _static_text(call.args[0])
    return False


class SharedWriteDisciplineRule(Rule):
    id = "shared-write-discipline"
    severity = Severity.WARNING
    description = (
        "functions that write flow spec files (match.*/action.*/priority/..., or "
        "create_flow(commit=False)) must commit in the same function — a "
        "version write or commit_flow — or the flow stays torn (§3.4)"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if "app" not in src.scopes and "example" not in src.scopes:
            return
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            staged: list[tuple[ast.Call, str]] = []
            committed = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                marker = _is_spec_write(node)
                if marker is not None:
                    staged.append((node, marker))
                if _is_commit(node):
                    committed = True
            if committed:
                continue
            for call, marker in staged:
                yield self.finding(
                    src,
                    call,
                    f"flow spec staged here ({marker}) but {func.name}() never commits "
                    "(no version write / commit_flow): the switch will never see the "
                    "change and concurrent readers observe a torn flow (§3.4)",
                )


register(SharedWriteDisciplineRule())
