"""yancsec static pass: capability & tenant-isolation findings.

A :class:`~repro.analysis.core.Judge` over the shared
:class:`~repro.analysis.sweep.Sweep`, extending the interpreter's facts
with two lattices:

* a **taint lattice** over local values: reads of tenant-reachable state
  (packet/event payloads, yanc attribute files — recognized by matching
  the read site's path pattern against the schema-derived namespace
  grammar) mark a value tainted; string assembly (concatenation,
  f-strings, ``os.path.join``, ``format``) propagates taint; a validator
  on the way — an ``if`` that tests the value, or a call whose name says
  it validates/sanitizes — clears it.  A tainted value landing in a
  *path* argument of a syscall, or crossing a distfs RPC boundary, is a
  ``tainted-path`` finding: the tenant who controls the data controls
  which file the program touches.
* a **credential-effect summary** per function: every ``Syscalls`` /
  ``Process`` receiver is typed by how it was constructed
  (``Syscalls(vfs)`` is root; ``host.process(...)`` is a per-name app or
  driver uid; ``spawn(cred=...)`` and explicit ``cred=`` keywords follow
  the credential expression), so each syscall site knows which
  ``Credentials`` it executes under.

Five finding kinds judge the syscall sites:

* ``tainted-path`` (error) — see above; sources and sinks both live in
  app/example scope, where tenant data enters the system.
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
import re
from typing import Callable

from repro.analysis.core import Judge, Severity, SourceFile
from repro.analysis.yancpath.grammar import NamespaceModel
from repro.analysis.yancpath.interp import FuncDecl, FuncInterp, ModuleInfo
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

#: String operations that carry taint from receiver/arguments to result.
_PROPAGATORS = frozenset(
    {
        "strip",
        "lstrip",
        "rstrip",
        "lower",
        "upper",
        "title",
        "decode",
        "encode",
        "format",
        "removeprefix",
        "removesuffix",
        "split",
        "rsplit",
        "partition",
        "rpartition",
        "join",
        "replace",
    }
)

#: A call whose name says it judges its input counts as the validator
#: between source and sink (flow_file_validator, sanitize_name, ...).
_SANITIZER = re.compile(r"valid|sanitiz|check|clean|escape|quote|safe|basename", re.I)


# -- credential-effect summaries -------------------------------------------------------


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _classify_cred_expr(expr: ast.expr) -> str:
    """What credential class an expression evaluates to."""
    if isinstance(expr, ast.Name) and expr.id == "ROOT":
        return "root"
    if isinstance(expr, ast.Call):
        name = _callee_name(expr.func)
        if name == "app_credentials":
            return "app"
        if name == "driver_credentials":
            return "driver"
        if name == "Credentials":
            for kw in expr.keywords:
                if kw.arg == "uid" and isinstance(kw.value, ast.Constant):
                    return "root" if kw.value.value == 0 else "user"
    return "unknown"


def classify_constructor(call: ast.Call) -> str | None:
    """The credential class a Syscalls/Process-producing call yields.

    Returns None for calls that produce no syscall context (so the
    receiver stays untyped and the pass errs toward silence).
    """
    name = _callee_name(call.func)
    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    if name == "Syscalls":
        if "cred" not in keywords:
            return "root"
        return _classify_cred_expr(keywords["cred"])
    if name == "process":
        if "cred" in keywords:
            return _classify_cred_expr(keywords["cred"])
        role = keywords.get("role")
        if isinstance(role, ast.Constant) and role.value == "driver":
            return "driver"
        return "app"
    if name == "spawn":
        if "cred" in keywords:
            return _classify_cred_expr(keywords["cred"])
        return None  # inherits the parent context's credentials
    return None


def _receiver_key(expr: ast.expr) -> str | None:
    """The summary key for a receiver expression (``sc`` or ``.sc``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return f".{expr.attr}"
    return None


def credential_summary(module: ModuleInfo, decl: FuncDecl | None) -> dict[str, str]:
    """receiver key -> credential class, for one function's visible scope.

    Derived from receiver typing: assignments in the module body, the
    enclosing class's ``__init__``, and the function body itself (inner
    assignments win).
    """
    bodies: list[list[ast.stmt]] = [
        [stmt for stmt in module.src.tree.body if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    ]
    if decl is not None and decl.class_name:
        init = module.by_class.get(decl.class_name, {}).get("__init__")
        if init is not None:
            bodies.append(init.node.body)
    if decl is not None:
        bodies.append(decl.node.body)
    out: dict[str, str] = {}
    for body in bodies:
        for stmt in body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                    continue
                cred = classify_constructor(node.value)
                if cred is None:
                    continue
                for target in node.targets:
                    key = _receiver_key(target)
                    if key is not None:
                        out[key] = cred
    return out


# -- the taint lattice -----------------------------------------------------------------


def taint_sources(interp: FuncInterp, sweep) -> dict[int, str]:
    """id(call node) -> origin label, for reads of tenant-reachable state."""
    out: dict[int, str] = {}
    # Probe-tree matches are analysis-time traffic, memoized in the sweep.
    for site in interp.sites:  # yancperf: disable=syscall-in-loop
        if not site.paths or site.queued:
            continue  # a queued read's data arrives as a completion, not as the call's value
        result = sweep.match_tokens(site.paths[0])
        if result is None or not result.matched:
            continue
        spooled = any(r.in_event_buffer or r.in_packet_out for r in result.resolutions)
        if site.method in ("read_text", "read_bytes", "readdirplus"):
            origin = "a packet/event payload" if spooled else "a yanc attribute file"
            out[id(site.node)] = f"{site.method}() of {origin}"
        elif site.method in ("listdir", "scandir") and spooled:
            out[id(site.node)] = f"{site.method}() of a packet/event spool"
    return out


class _TaintPass:
    """Forward, per-function taint propagation with in-place sink checks."""

    def __init__(
        self,
        sites: dict[int, object],
        sources: dict[int, str],
        emit: Callable[[str, ast.AST, str], None],
    ) -> None:
        self.sites = sites
        self.sources = sources
        self.emit = emit
        self.tainted: set[str] = set()

    # -- statements --------------------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions get their own interp
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is None:
                return
            taint = self._expr(stmt.value)
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                key = _receiver_key(target)
                if key is None:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            self._set(node.id, taint)
                    continue
                if isinstance(stmt, ast.AugAssign):
                    taint = taint or key in self.tainted
                self._set(key, taint)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._untaint_tested(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._expr(stmt.iter)
            for _ in range(2):  # twice: loop-carried taint reaches sinks
                for node in ast.walk(stmt.target):
                    if isinstance(node, ast.Name):
                        self._set(node.id, taint)
                self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            for _ in range(2):
                self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    for node in ast.walk(item.optional_vars):
                        if isinstance(node, ast.Name):
                            self._set(node.id, taint)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        else:
            for node in ast.iter_child_nodes(stmt):
                if isinstance(node, ast.expr):
                    self._expr(node)

    def _set(self, key: str, taint: bool) -> None:
        if taint:
            self.tainted.add(key)
        else:
            self.tainted.discard(key)

    def _untaint_tested(self, test: ast.expr) -> None:
        """An ``if`` that inspects a tainted value is its validator."""
        for node in ast.walk(test):
            key = _receiver_key(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if key is not None:
                self.tainted.discard(key)

    # -- expressions -------------------------------------------------------------

    def _expr(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            return self._call(expr)
        key = _receiver_key(expr) if isinstance(expr, (ast.Name, ast.Attribute)) else None
        if key is not None:
            return key in self.tainted
        if isinstance(expr, ast.BinOp):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            return left or right
        if isinstance(expr, ast.JoinedStr):
            return any(self._expr(v.value) for v in expr.values if isinstance(v, ast.FormattedValue))
        if isinstance(expr, ast.FormattedValue):
            return self._expr(expr.value)
        if isinstance(expr, ast.Subscript):
            self._expr(expr.slice)
            return self._expr(expr.value)
        if isinstance(expr, ast.IfExp):
            self._expr(expr.test)
            body = self._expr(expr.body)
            orelse = self._expr(expr.orelse)
            return body or orelse
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return any(self._expr(e) for e in expr.elts)
        if isinstance(expr, ast.Starred):
            return self._expr(expr.value)
        if isinstance(expr, ast.Attribute):
            return self._expr(expr.value)
        if isinstance(expr, (ast.BoolOp,)):
            return any(self._expr(v) for v in expr.values)
        for node in ast.iter_child_nodes(expr):
            if isinstance(node, ast.expr):
                self._expr(node)
        return False

    def _call(self, call: ast.Call) -> bool:
        arg_taints = [self._expr(arg) for arg in call.args]
        kw_taints = [self._expr(kw.value) for kw in call.keywords]
        site = self.sites.get(id(call))
        if site is not None:
            for position in site.positions:
                if arg_taints[position]:
                    self.emit(
                        "tainted-path",
                        call,
                        f"path handed to {site.method}() is assembled from "
                        "tenant-controlled data with no validator between "
                        "source and sink — the data's author picks which "
                        "file this touches; validate the value first",
                    )
                    break
        elif FuncInterp._is_rpc(call) and (any(arg_taints) or any(kw_taints)):
            self.emit(
                "tainted-path",
                call,
                "tenant-controlled data crosses the distfs RPC boundary "
                "with no validator between source and sink — the server "
                "resolves whatever path/argument the tenant supplied",
            )
        if id(call) in self.sources:
            return True
        func = call.func
        if isinstance(func, ast.Name):
            if _SANITIZER.search(func.id):
                self._untaint_args(call)
                return False
            if func.id in ("str", "repr", "format", "bytes"):
                return any(arg_taints)
            return False
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if _SANITIZER.search(attr):
                self._untaint_args(call)
                return False
            receiver_taint = self._expr(func.value)
            if attr == "replace" and call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value in ("/", "..", "\\"):
                return False  # stripping separators IS the sanitization
            if attr in _PROPAGATORS:
                return receiver_taint or any(arg_taints)
            return False
        return False

    def _untaint_args(self, call: ast.Call) -> None:
        for arg in call.args:
            key = _receiver_key(arg)
            if key is not None:
                self.tainted.discard(key)


# -- per-kind judgments ---------------------------------------------------------------


def _check_root_ambient(
    interp: FuncInterp,
    creds: dict[str, str],
    sweep,
    emit: Callable[[str, ast.AST, str], None],
) -> None:
    # Probe-tree matches are analysis-time traffic, memoized in the sweep.
    for site in interp.sites:  # yancperf: disable=syscall-in-loop
        if site.method not in _MUTATORS or not site.paths:
            continue
        func = site.node.func
        if not isinstance(func, ast.Attribute):
            continue
        key = _receiver_key(func.value)
        if key is None or creds.get(key) != "root":
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
    module = interp.module
    src: SourceFile = module.src
    tenant_scoped = "app" in src.scopes or "example" in src.scopes
    if tenant_scoped:
        _check_slice_escape(interp, sweep.model, emit)
        creds = credential_summary(module, interp.decl)
        _check_root_ambient(interp, creds, sweep, emit)
        sites = {id(site.node): site for site in interp.sites}
        body = interp.decl.node.body if interp.decl is not None else src.tree.body
        _TaintPass(sites, taint_sources(interp, sweep), emit).run(body)
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
    "credential_summary",
    "taint_sources",
]
