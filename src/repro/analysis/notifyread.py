"""Rule ``notify-before-read``: poll loops must subscribe, not spin.

The yanc file system is push-based: §3.3 gives every directory inotify
semantics precisely so that consumers wait for ``IN_CREATE`` /
``IN_MOVED_TO`` / ``IN_MODIFY`` instead of re-reading state on a timer.
A loop that advances simulated time and re-reads files each iteration is
a polling loop — it burns cycles, observes torn intermediate states that
a notification-driven reader never sees, and races the writer (the
dynamic ``unsynchronized`` findings yancrace reports usually trace back
to exactly this shape).

A loop (``while``/``for``) is flagged when its body both reads state
(``read_text`` / ``read_bytes`` / ``readdirplus`` / ``read_events``) and
advances time (``run_for`` / ``run_until`` / ``step``, or ``.run(...)`` on
a simulator-ish receiver), unless the enclosing function subscribes first
(a ``watch`` / ``inotify_add_watch`` call anywhere in the function).

Scopes: ``app`` and ``example`` (drivers own device state and may poll
hardware; the shell's ``sh.run(command)`` is command dispatch, which the
receiver heuristic leaves alone).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, Rule, Severity, SourceFile, register

_READ_ATTRS = {"read_text", "read_bytes", "readdirplus", "read_events"}
_ADVANCE_ATTRS = {"run_for", "run_until", "step"}
_SUBSCRIBE_ATTRS = {"watch", "inotify_add_watch"}
#: Receivers whose bare ``.run(...)`` means "advance the simulation".
_SIM_RECEIVER_RE = re.compile(r"(sim|ctl|net|controller)", re.IGNORECASE)


def _attr_call(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _advances_time(node: ast.AST) -> bool:
    attr = _attr_call(node)
    if attr in _ADVANCE_ATTRS:
        return True
    if attr == "run":
        # `sh.run(command)` dispatches a shell command; only count `.run`
        # when the receiver looks like a simulator/controller handle.
        receiver = node.func.value  # type: ignore[union-attr]
        return isinstance(receiver, ast.Name) and bool(_SIM_RECEIVER_RE.search(receiver.id))
    return False


class NotifyBeforeReadRule(Rule):
    id = "notify-before-read"
    severity = Severity.WARNING
    description = (
        "loops that advance time and re-read files each iteration are "
        "polling; subscribe with watch()/inotify_add_watch() and let §3.3 "
        "notification delivery wake the reader instead"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if "app" not in src.scopes and "example" not in src.scopes:
            return
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(_attr_call(node) in _SUBSCRIBE_ATTRS for node in ast.walk(func)):
                continue
            for loop in ast.walk(func):
                if not isinstance(loop, (ast.While, ast.For)):
                    continue
                reads = [n for n in ast.walk(loop) if _attr_call(n) in _READ_ATTRS]
                advances = any(_advances_time(n) for n in ast.walk(loop))
                if not reads or not advances:
                    continue
                yield self.finding(
                    src,
                    loop,
                    f"{func.name}() polls: this loop advances time and re-reads "
                    f"{_attr_call(reads[0])}() each pass with no watch()/"
                    "inotify_add_watch() subscription — use notification "
                    "delivery (§3.3) so the reader wakes only on change",
                )


register(NotifyBeforeReadRule())
