"""yancsec static pass: capability & tenant-isolation findings.

A :class:`~repro.analysis.core.Judge` over the shared
:class:`~repro.analysis.sweep.Sweep`.  It reads two facts the
:class:`~repro.analysis.yancpath.interp.FuncInterp` interpreter records
on every syscall site and RPC, and walks no function body of its own:

* **taint** — per path argument, the read sites the value derives from
  with no validator since.  String assembly (concatenation, f-strings,
  ``os.path.join``, ``format``) propagates it; an ``if`` that tests the
  value, or a call whose name says it validates/sanitizes, clears it; it
  is joined at every merge, so an overwrite in one arm of an ``if``
  leaves the other arm's taint standing.  A read is a *source* when it
  reads tenant-reachable state (packet/event payloads, yanc attribute
  files — recognized by matching the read site's path pattern against
  the schema-derived namespace grammar).
* **credential class** — every ``Syscalls`` / ``Process`` receiver is
  typed by how it was constructed (``Syscalls(vfs)`` is root;
  ``host.process(...)`` is a per-name app or driver uid;
  ``spawn(cred=...)`` and explicit ``cred=`` keywords follow the
  credential expression), so each syscall site knows which
  ``Credentials`` it executes under.

Five finding kinds judge the syscall sites:

* ``tainted-path`` (error) — a source's taint reaches a *path* argument
  of a syscall, or crosses a distfs RPC boundary: the tenant who controls
  the data controls which file the program touches.  Sources and sinks
  both live in app/example scope, where tenant data enters the system;
  the message names the source and its line.
* ``root-ambient`` (error) — a mutating operation in app scope executes
  under uid 0 against the yanc tree, where the schema's ACLs would grant
  a per-app uid instead (§5.1: ambient root authority defeats the
  file-system isolation story).
* ``missing-acl`` (warning) — a write lands on a schema-stamped,
  world-readable file that carries **no** ACL while the writer's scope
  differs from the scope that creates the node: without an ACL the write
  works only for the creating uid, so the collaboration relies on
  everything running as root.  ACLs are read off the live schema nodes
  via :meth:`Sweep.file_nodes`.
* ``slice-escape`` (error) — a path token-string in app scope contains a
  literal ``..`` segment while naming the yanc tree: inside a shared
  namespace the expression walks out of the slice root (the runtime
  clamps ``..`` only at the *namespace* root, see views/namespace.py).
* ``unauthenticated-rpc`` (warning) — an ``RpcChannel`` constructed
  without ``cred=``: every op the channel carries executes under the
  file server's own credentials instead of the caller's (AUTH_SYS-style
  identity is threaded since the distfs caller-identity change).

Suppressions are ``# yancsec: disable=<kind>`` comments (the yanclint
spelling works too).  Like the rest of the suite, the pass errs toward
silence: unresolvable paths, unknown receivers, and values that passed
through calls it cannot see are never flagged.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.analysis.core import Judge, Severity, SourceFile
from repro.analysis.yancpath.grammar import NamespaceModel
from repro.analysis.yancpath.interp import FuncInterp, ModuleInfo, Site, _callee_name, classify_constructor
from repro.vfs.syscalls import SYSCALLS

_SEVERITY = {
    "tainted-path": Severity.ERROR,
    "root-ambient": Severity.ERROR,
    "missing-acl": Severity.WARNING,
    "slice-escape": Severity.ERROR,
    "unauthenticated-rpc": Severity.WARNING,
}

KINDS = tuple(_SEVERITY)

#: Syscalls that change the tree (the root-ambient surface).
_MUTATORS = frozenset(op for op, row in SYSCALLS.items() if row.mutates)

# -- the taint lattice -----------------------------------------------------------------


def _source(sweep, read: Site) -> str | None:
    """What a read site reads, when that is tenant-reachable state (a taint source)."""
    result = sweep.match_tokens(read.paths[0])
    if result is None or not result.matched:
        return None
    spooled = any(r.in_event_buffer or r.in_packet_out for r in result.resolutions)
    if read.method in ("listdir", "scandir"):
        return f"{read.method}() of a packet/event spool" if spooled else None
    return f"{read.method}() of {'a packet/event payload' if spooled else 'a yanc attribute file'}"


def _check_tainted_path(interp: FuncInterp, sweep, emit: Callable[[str, ast.AST, str], None]) -> None:
    path_harm = "the data's author picks which file this touches; validate the value first"
    rpc_harm = "the server resolves whatever path/argument the tenant supplied"
    sinks = [(site.node, site.taint, f"path handed to {site.method}() is assembled from", path_harm) for site in interp.sites]
    sinks += [(rpc.node, (rpc.taint,), "an argument crossing the distfs RPC boundary carries", rpc_harm) for rpc in interp.rpc_sites]
    # Probe-tree matches are analysis-time traffic, memoized in the sweep.
    for node, taints, sink, harm in sinks:  # yancperf: disable=syscall-in-loop
        sources = sorted(
            (read.node.lineno, what) for taint in taints for read in taint if (what := _source(sweep, read))  # yancperf: disable=syscall-in-loop
        )
        if sources:
            line, what = sources[0]
            message = f"{sink} tenant-controlled data ({what}, line {line}) with no validator between source and sink — {harm}"
            emit("tainted-path", node, message)


# -- per-kind judgments ---------------------------------------------------------------


def _check_root_ambient(interp: FuncInterp, sweep, emit: Callable[[str, ast.AST, str], None]) -> None:
    # Probe-tree matches are analysis-time traffic, memoized in the sweep.
    for site in interp.sites:  # yancperf: disable=syscall-in-loop
        if site.method not in _MUTATORS or not site.paths or site.cred != "root":
            continue
        result = sweep.match_tokens(site.paths[0])
        if result is None or not result.matched:
            continue
        emit(
            "root-ambient",
            site.node,
            f"{site.method}() on the yanc tree executes under uid 0 "
            "(receiver built without credentials) — the schema's ACLs "
            "grant this to a per-app uid; use host.process() or "
            "app_credentials() instead of ambient root",
        )


def _creator_scope(path: str) -> str | None:
    """Which scope class creates a probe-tree node at ``path``."""
    parts = [part for part in path.split("/") if part]
    if parts and parts[0] == "net":
        parts = parts[1:]
    while len(parts) >= 2 and parts[0] == "views":
        parts = parts[2:]  # view subtrees mirror the master classes
    if not parts:
        return None
    head = parts[0]
    if head in ("hosts", "apps"):
        return "app"
    if head == "middleboxes":
        return "driver"
    if head == "switches":
        if "flows" in parts or "events" in parts:
            return "app"  # flows and event buffers are app-created
        return "driver"
    return None


def _check_missing_acl(
    interp: FuncInterp,
    sweep,
    scope_class: str,
    emit: Callable[[str, ast.AST, str], None],
) -> None:
    # Probe-tree matches are analysis-time traffic, memoized in the sweep.
    for site in interp.sites:  # yancperf: disable=syscall-in-loop
        if site.method not in ("write_text", "write_bytes") or not site.paths:
            continue
        seen: set[str] = set()
        for path, node in sweep.file_nodes(site.paths[0]):
            if path in seen:
                continue
            seen.add(path)
            if getattr(node, "acl", None) is not None:
                continue
            if not getattr(node, "mode", 0) & 0o004:
                continue  # not reader-visible: private by construction
            creator = _creator_scope(path)
            if creator is None or creator == scope_class:
                continue
            basename = path.rsplit("/", 1)[-1]
            emit(
                "missing-acl",
                site.node,
                f"writes `{basename}` ({path}), a world-readable schema "
                f"file with no ACL created by {creator}-scope code: the "
                "write succeeds only for the creating uid — stamp a "
                "schema ACL on the node so the collaboration is policy, "
                "not root",
            )
            break


def _names_yanc_tree(tokens: tuple, model: NamespaceModel) -> bool:
    texts = {token[1] for token in tokens if isinstance(token, tuple) and len(token) == 2 and token[0] == "text"}
    texts.discard("..")
    return "net" in texts or bool(texts & model.dir_vocab)


def _check_slice_escape(
    interp: FuncInterp,
    model: NamespaceModel,
    emit: Callable[[str, ast.AST, str], None],
) -> None:
    for site in interp.sites:
        for tokens in site.paths:
            if any(token == ("text", "..") for token in tokens) and _names_yanc_tree(tokens, model):
                emit(
                    "slice-escape",
                    site.node,
                    f"{site.method}() path contains a `..` segment while "
                    "naming the yanc tree: in a shared namespace the "
                    "expression resolves outside the slice root — address "
                    "views downward only (the runtime clamps `..` at the "
                    "namespace root, not the view root)",
                )
                break


def _check_unauthenticated_rpc(_sweep, module: ModuleInfo, emit, _state) -> None:
    for node in ast.walk(module.src.tree):
        if not isinstance(node, ast.Call) or _callee_name(node.func) != "RpcChannel":
            continue
        if any(kw.arg == "cred" for kw in node.keywords):
            continue
        emit(
            "unauthenticated-rpc",
            node,
            "RpcChannel built without cred=: every op this channel "
            "carries executes under the file server's own credentials, "
            "so the remote caller inherits the server's authority — "
            "thread the client's Credentials through the channel",
        )


# -- the judge -------------------------------------------------------------------------


def _judge_interp(sweep, interp: FuncInterp, emit, _state) -> None:
    src: SourceFile = interp.module.src
    tenant_scoped = "app" in src.scopes or "example" in src.scopes
    if tenant_scoped:
        _check_slice_escape(interp, sweep.model, emit)
        _check_root_ambient(interp, sweep, emit)
        _check_tainted_path(interp, sweep, emit)
    scope_class = "app" if tenant_scoped else ("driver" if "driver" in src.scopes else None)
    if scope_class is not None:
        _check_missing_acl(interp, sweep, scope_class, emit)


JUDGE = Judge("yancsec", _SEVERITY, _judge_interp, judge_module=_check_unauthenticated_rpc)
analyze_yancsec = JUDGE.analyze
analyze_sources = JUDGE.analyze_sources

__all__ = [
    "JUDGE",
    "KINDS",
    "analyze_sources",
    "analyze_yancsec",
    "classify_constructor",
]
