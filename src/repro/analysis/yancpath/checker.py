"""The yancpath judge: every recorded syscall site against the grammar.

A :class:`~repro.analysis.core.Judge` over the shared
:class:`~repro.analysis.sweep.Sweep`: the sweep derives the
:class:`~repro.analysis.yancpath.grammar.NamespaceModel` from the live
schema and runs the :class:`~repro.analysis.yancpath.interp.FuncInterp`
abstract interpreter over every function and module body; this module
turns the recorded syscall sites and typestate results into ordinary
:class:`repro.analysis.core.Finding` records:

* ``unknown-path`` (error) — the site's path pattern is *about* the yanc
  tree (anchored at the mount, or naming a structural directory) but no
  interpretation of it can exist in the derived namespace;
* ``bad-write-format`` (error) — a compile-time-constant payload that
  every possible target file's validator rejects;
* ``event-buffer-misuse`` (error, app/example scope) — writing inside a
  §3.5 event buffer (driver-filled, app-read) or reading the
  ``packet_out`` spool (app-filled, driver-read);
* ``flow-no-commit`` (warning) — a flow spec write with no ``version``
  increment on some normal path to the function exit (§3.4);
* ``fd-leak-on-exception`` (warning) — an ``open`` whose fd can escape
  down an exception edge without reaching ``close``.

Suppressions are the ordinary ``# yanclint: disable=<kind>`` comments.
"""

from __future__ import annotations

from repro.analysis.core import Judge, Severity, SourceFile
from repro.analysis.yancpath import patterns as P
from repro.analysis.yancpath.interp import FuncInterp
from repro.vfs.syscalls import SYSCALLS
from repro.yancfs.commit import COMMIT_FILE, is_spec_file

_SEVERITY = {
    "unknown-path": Severity.ERROR,
    "bad-write-format": Severity.ERROR,
    "event-buffer-misuse": Severity.ERROR,
    "flow-no-commit": Severity.WARNING,
    "fd-leak-on-exception": Severity.WARNING,
}

KINDS = tuple(_SEVERITY)

#: What an app may not do inside an event buffer (change it) or to the
#: packet_out spool (read it back): the syscall table's mutators, and its
#: other path-taking calls.
_WRITEISH = frozenset(op for op, row in SYSCALLS.items() if row.mutates)
_READISH = frozenset(op for op, row in SYSCALLS.items() if row.paths and not row.mutates)


def flow_role(tokens: tuple) -> str | None:
    """The flow-file role oracle the interpreter's §3.4 machine uses.

    A write is judged by where its finalized pattern lands: the file
    directly under ``flows/<name>/`` is a *commit* when it is ``version``
    and a *staging* write when it is a spec file
    (:func:`~repro.yancfs.commit.is_spec_file`) or a name too dynamic to
    tell — the flow pusher writes ``f"{path}/{filename}"``.  Driver ack
    files (``state.*``) and anything deeper (``counters/``) are neither.
    """
    pattern = P.finalize(tokens)
    if pattern is None:
        return None
    if len(pattern.atoms) == 2 and pattern.atoms[0] is P.STAR and pattern.atoms[1] is not P.STAR:
        # ``f"{flow_path}/version"`` (``commit_version``): the directory is
        # one opaque hole, but only a flow holds a ``version`` — a commit.
        return "commit" if pattern.atoms[1].literal == COMMIT_FILE else None
    if len(pattern.atoms) < 3:
        return None
    flows = pattern.atoms[-3]
    if flows is P.STAR or flows.literal != "flows":
        return None
    last = pattern.atoms[-1]
    if last is P.STAR:
        return None
    literal = last.literal
    if literal == COMMIT_FILE:
        return "commit"
    if literal is None or is_spec_file(literal):
        return "stage"
    return None


def _judge_interp(sweep, interp: FuncInterp, emit, _state) -> None:
    for kind, node in interp.local_findings:
        if kind == "flow-no-commit":
            emit(
                kind,
                node,
                "flow spec write reaches a function exit with no "
                "version increment on that path (§3.4 commit protocol)",
            )
        else:
            emit(
                kind,
                node,
                "fd from open() can leak on an exception path; "
                "close it in a finally block",
            )
    for site in interp.sites:
        _judge_site(site, interp.module.src, sweep, emit)


def _judge_site(site, src: SourceFile, sweep, emit) -> None:
    for position, tokens in enumerate(site.paths):
        result = sweep.match_tokens(tokens)
        if result is None:
            continue
        pattern = sweep.pattern(tokens)
        if not result.matched:
            emit(
                "unknown-path",
                site.node,
                f"{site.method}() path {pattern.render()!r} cannot exist "
                "in the yanc namespace (derived from yancfs/schema.py)",
            )
            continue
        if not result.exhaustive:
            continue  # resolution cap hit: too ambiguous to judge further
        resolutions = result.resolutions
        if (
            site.method == "write_text"
            and position == 0
            and isinstance(site.content, str)
            and resolutions
            and all(
                not r.is_dir and r.validator_known and r.validator is not None
                for r in resolutions
            )
        ):
            rejection = _rejected_by_all(site.content, resolutions)
            if rejection is not None:
                emit(
                    "bad-write-format",
                    site.node,
                    f"payload {site.content!r} is rejected by the target "
                    f"file's validator ({rejection}); written as "
                    f"{pattern.render()!r}",
                )
        scoped = "app" in src.scopes or "example" in src.scopes
        if scoped and resolutions:
            if site.method in _WRITEISH and all(r.in_event_buffer for r in resolutions):
                emit(
                    "event-buffer-misuse",
                    site.node,
                    f"{site.method}() inside a §3.5 event buffer: buffers "
                    "are driver-filled and app-read; apps must not write "
                    "event messages",
                )
            elif site.method in _READISH and all(r.in_packet_out for r in resolutions):
                emit(
                    "event-buffer-misuse",
                    site.node,
                    f"{site.method}() from the packet_out spool: the spool "
                    "is app-written and driver-consumed; apps must not "
                    "read it back",
                )


def _rejected_by_all(content: str, resolutions) -> str | None:
    """The rejection message when every candidate validator refuses."""
    message = None
    for resolution in resolutions:
        try:
            resolution.validator(content)
            return None
        except Exception as exc:  # noqa: BLE001 — validators raise typed errors
            message = str(exc) or type(exc).__name__
    return message


JUDGE = Judge("yancpath", _SEVERITY, _judge_interp)
analyze_yancpath = JUDGE.analyze
analyze_sources = JUDGE.analyze_sources

__all__ = ["JUDGE", "KINDS", "analyze_sources", "analyze_yancpath", "flow_role"]
