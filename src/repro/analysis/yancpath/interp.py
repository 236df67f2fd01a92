"""The yancpath interprocedural abstract interpreter.

One structural pass per function (and per module body, which examples use
as their main program) evaluates every expression into the token-string
lattice of :mod:`repro.analysis.yancpath.patterns`, records each
recognized syscall site with its abstract path arguments, and runs two
typestate machines on the way through:

* **fd lifecycle** — an fd returned by ``open`` must reach ``close`` on
  every path, including exception edges; a ``try/finally`` whose finally
  closes the fd protects it, passing the fd to another function
  transfers ownership, returning it hands it to the caller;
* **flow commit (§3.4)** — a write that stages flow spec state
  (``match.*``/``action.*``/``priority``/``timeout``/...) obligates a
  ``version`` increment before every *normal* exit of the function;
  exception paths are exempt (a helper bailing on bad input is not a
  protocol violation, and the partially-staged flow is invisible to the
  driver until versioned anyway).

The state also carries two facts the security judge reads: **taint** —
per variable, the read sites its value derives from with no validator
since, joined at every merge like the token strings — and each
receiver's **credential class**, typed from its constructor as
``types`` types it from its class.  Every site records both.

Interprocedural reasoning is by summaries: each function's return value
is summarized as a token string with *named* holes for its parameters
(substituted at call sites, so ``yc.flow_path(sw, n)`` composes exactly),
plus a commit effect — ``always`` (the function commits on every normal
path), ``never``, or ``cond(<param>, <value>)`` for a commit guarded by a
parameter: the ``if commit:`` idiom the flow pusher uses, ``write_object``'s
``if publish == "version":``, and a caller forwarding its own flag into
one (``create_flow`` passes ``"version" if commit else None``) — and a
``stages`` bit saying whether it writes spec files at all.  Summaries are memoized and guarded
against recursion (an in-progress callee summarizes as unknown).

Everything here errs toward silence: an expression the lattice cannot
track becomes an anonymous hole, a call it cannot resolve returns
unknown, and the checker only flags what the grammar *positively*
refutes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.yancpath import patterns as P
from repro.vfs.syscalls import SYSCALLS

# -- the recognized syscall surface ----------------------------------------------------

#: method name -> positions of its path arguments: every syscall-table row's
#: resolved and stored paths (a symlink's target is matched against the
#: grammar too), plus the ``Process.watch`` run-loop helper.
PATH_ARGS: dict[str, tuple[int, ...]] = {
    op: tuple(sorted(row.stores + row.paths)) for op, row in SYSCALLS.items() if row.paths
} | {"watch": (0,)}

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: Receiver spellings treated as a ring handle (mirrors the ``sc`` /
#: ``.sc`` convention for Syscalls receivers).
_URING_RECEIVERS = ("ring", "uring", "_uring", "batch")


def _is_super(base: ast.expr) -> bool:
    """``super()``: a call through it is the caller's base-class method, not any method of that name."""
    return isinstance(base, ast.Call) and isinstance(base.func, ast.Name) and base.func.id == "super"


def _is_ring(base: ast.expr) -> bool:
    if isinstance(base, ast.Name):
        return base.id in _URING_RECEIVERS
    return isinstance(base, ast.Attribute) and base.attr in _URING_RECEIVERS


def syscall_method(call: ast.Call) -> str | None:
    """The syscall name when ``call``'s receiver looks like a Syscalls.

    Recognized receivers: a bare ``sc``/``syscalls`` name, any attribute
    spelled ``.sc`` / ``.root_sc`` (``self.sc``, ``host.root_sc``), ``self``
    itself for ``watch`` only (the Process run-loop helper), and — for
    ``submit``, the ring's one kernel crossing — a ``ring``/``uring``/
    ``batch`` name or ``.ring``/``.uring``/``._uring``/``.batch``
    attribute (the §8.1 ring, or a caller's batch on it).  Only
    ``submit`` registers as an op site, which is exactly what makes
    batched loops legible to yancperf: the storm collapses to one
    recognized op per flush.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    method = func.attr
    base = func.value
    if isinstance(base, ast.Name):
        if base.id in ("sc", "syscalls"):
            return method
        if base.id == "self" and method == "watch":
            return method
    elif isinstance(base, ast.Attribute) and base.attr in ("sc", "root_sc"):
        return method
    if method == "submit" and _is_ring(base):
        return method
    return None


def _opens_directory(call: ast.Call, shift: int) -> bool:
    """Does this ``open`` (or ring entry queuing one) pass ``O_DIRECTORY`` in its flags?"""
    flags = call.args[shift + 1] if len(call.args) > shift + 1 else None
    return flags is not None and any(
        (isinstance(node, ast.Name) and node.id == "O_DIRECTORY") or (isinstance(node, ast.Attribute) and node.attr == "O_DIRECTORY")
        for node in ast.walk(flags)
    )


def _dir_fd_key(call: ast.Call) -> str | None:
    """The state key of the directory an ``open``'s ``dir_fd=`` names, None without one.

    A ring chain's ``LINK_DIRFD`` is bound by the chain's ``O_DIRECTORY``
    open; any other descriptor gets a key nothing binds (its path is
    unknown).  Neither key is an identifier, so neither meets a variable.
    """
    for kw in call.keywords:
        if kw.arg == "dir_fd":
            return " LINK_DIRFD" if isinstance(kw.value, ast.Name) and kw.value.id == "LINK_DIRFD" else " dirfd"
    return None


def queued_syscall(call: ast.Call) -> tuple[str, int] | None:
    """``(method, shift)`` when ``call`` queues a ring entry.

    ``batch.prep(op, *args)`` stands for ``sc.op(*args)`` (its arguments
    sit one position later) and ``batch.prep_write_file(path, data)`` for
    ``sc.write_bytes(path, data)``; an op that is not a ring row of the
    syscall table is no entry at all.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or not _is_ring(func.value):
        return None
    if func.attr == "prep_write_file":
        return "write_bytes", 0
    if func.attr == "prep" and call.args and isinstance(call.args[0], ast.Constant):
        row = SYSCALLS.get(call.args[0].value)
        if row is not None and row.ring:
            return row.name, 1
    return None


# -- taint and credential rules ----------------------------------------------------------

#: Syscalls whose result is read data: each is a taint source candidate,
#: and the judge decides whether what it reads is tenant-reachable.
_READS = frozenset({"read_text", "read_bytes", "readdirplus", "listdir", "scandir"})

#: String operations that carry taint from receiver/arguments to result.
_PROPAGATORS = frozenset(
    "strip lstrip rstrip lower upper title decode encode format removeprefix removesuffix"
    " split rsplit partition rpartition join replace".split()
)

#: A call whose name says it judges its input counts as the validator
#: between source and sink (flow_file_validator, sanitize_name, ...).
_SANITIZER = re.compile(r"valid|sanitiz|check|clean|escape|quote|safe|basename", re.I)

#: An attribute naming a table of entries (``entries``, ``_flow_entries``), not one merely
#: spelled with the word inside it (an inode's ``dentries`` are its names).
_TABLE_ATTR = re.compile(r"(?:^|_)entries")

_CLEAN: frozenset = frozenset()


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _key(expr: ast.expr) -> str | None:
    """The state key of a local name (``x``) or an instance attribute (``self.x``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return f"self.{expr.attr}"
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

    ``Syscalls(vfs)`` is root; ``host.process(...)`` is a per-name app or
    driver uid; ``spawn(cred=...)`` and explicit ``cred=`` keywords follow
    the credential expression.  Returns None for calls that produce no
    syscall context (the receiver stays untyped, erring toward silence).
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


def _join_taint(a: dict, b: dict) -> dict:
    """The may-taint join: a name is tainted by every read either side saw."""
    out = dict(a)
    for name, sources in b.items():
        out[name] = out.get(name, _CLEAN) | sources
    return out


# -- project indexing ------------------------------------------------------------------


@dataclass
class FuncDecl:
    """One function or method, ready to interpret."""

    node: ast.AST  # FunctionDef | AsyncFunctionDef
    module: "ModuleInfo"
    class_name: str | None
    params: tuple[str, ...]  # leading self dropped for methods
    defaults: dict[str, ast.expr]

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ModuleInfo:
    """Per-module interpretation context."""

    src: object  # core.SourceFile
    functions: list[FuncDecl] = field(default_factory=list)
    by_class: dict[str, dict[str, FuncDecl]] = field(default_factory=dict)
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    global_env: dict[str, tuple] = field(default_factory=dict)
    global_creds: dict[str, str] = field(default_factory=dict)  # name -> credential class


@dataclass
class Summary:
    """What a call site needs to know about a callee."""

    ret: tuple  # token string, named holes = params
    effect: tuple  # ("always",) | ("never",) | ("cond", param, committing value)
    stages: bool  # writes flow spec files (directly or transitively)


_UNKNOWN_SUMMARY = Summary(ret=P.UNKNOWN, effect=("never",), stages=False)


def _decl_of(node, module: ModuleInfo, class_name: str | None) -> FuncDecl:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    defaults: dict[str, ast.expr] = {}
    pos_defaults = args.defaults
    if pos_defaults:
        for name, default in zip(names[-len(pos_defaults) :], pos_defaults):
            defaults[name] = default
    for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaults[kwarg.arg] = default
        names.append(kwarg.arg)
    if class_name is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return FuncDecl(
        node=node, module=module, class_name=class_name, params=tuple(names), defaults=defaults
    )


class ProjectIndex:
    """Call-graph index + summary cache over all analyzed modules."""

    def __init__(self, sources, judge: Callable[[tuple], str | None]):
        self.judge = judge
        self.modules: list[ModuleInfo] = []
        self.by_name: dict[str, list[FuncDecl]] = {}
        #: class name -> its module, None when the name is ambiguous.
        self.classes: dict[str, ModuleInfo | None] = {}
        self._summaries: dict[int, Summary] = {}
        self._in_progress: set[int] = set()
        self._attr_envs: dict[tuple[int, str], State] = {}
        for src in sources:
            module = ModuleInfo(src=src)
            for stmt in src.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add(_decl_of(stmt, module, None))
                elif isinstance(stmt, ast.ClassDef):
                    methods = module.by_class.setdefault(stmt.name, {})
                    module.class_bases[stmt.name] = tuple(
                        b.id for b in stmt.bases if isinstance(b, ast.Name)
                    )
                    self.classes[stmt.name] = None if stmt.name in self.classes else module
                    for item in stmt.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            decl = _decl_of(item, module, stmt.name)
                            methods[item.name] = decl
                            self._add(decl)
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Constant):
                        if isinstance(stmt.value.value, str):
                            module.global_env[target.id] = P.tokens_from_literal(stmt.value.value)
                    elif isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                        cred = classify_constructor(stmt.value)
                        if cred is not None:
                            module.global_creds[target.id] = cred
            self.modules.append(module)

    def method_on(self, class_name: str, method: str, _seen: frozenset = frozenset()) -> FuncDecl | None:
        """Look ``method`` up on ``class_name``, walking declared bases."""
        if class_name in _seen:
            return None
        module = self.classes.get(class_name)
        if module is None:
            return None
        decl = module.by_class.get(class_name, {}).get(method)
        if decl is not None:
            return decl
        for base in module.class_bases.get(class_name, ()):
            found = self.method_on(base, method, _seen | {class_name})
            if found is not None:
                return found
        return None

    def _add(self, decl: FuncDecl) -> None:
        self.by_name.setdefault(decl.name, []).append(decl)
        decl.module.functions.append(decl)

    # -- summaries -------------------------------------------------------------------

    def summary(self, decl: FuncDecl) -> Summary:
        key = id(decl.node)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return _UNKNOWN_SUMMARY
        self._in_progress.add(key)
        try:
            interp = FuncInterp(self, decl)
            interp.run()
            ret = None
            for tokens in interp.returns:
                ret = P.merge(ret, tokens)
            if ret is None:
                ret = P.UNKNOWN
            if interp.cond_commit is not None:
                effect: tuple = ("cond", *interp.cond_commit)
            elif interp.exit_committed and all(interp.exit_committed):
                effect = ("always",)
            else:
                effect = ("never",)
            # A parameter-guarded commit defers what the function staged, even
            # when the staging writes went through a helper too opaque to judge.
            summary = Summary(ret=ret, effect=effect, stages=interp.ever_staged or effect[0] == "cond")
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def resolve_call(
        self, call: ast.Call, caller: FuncDecl | None, recv_type: str | None = None
    ) -> tuple[FuncDecl | None, bool]:
        """Best-effort callee resolution: receiver type, then unique name.

        Returns ``(callee, usable)``.  ``usable`` is False only for an
        ambiguous name whose definitions share a parameter list but not
        their commit behaviour: the call is still recorded (so the cost
        rollup does not depend on the §3.4 role oracle) but its summary
        must not be applied.
        """
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if recv_type is not None:
                typed = self.method_on(recv_type, name)
                if typed is not None:
                    return typed, True
            if _is_super(func.value) and caller is not None and caller.class_name is not None:
                for base in caller.module.class_bases.get(caller.class_name, ()):
                    inherited = self.method_on(base, name)
                    if inherited is not None:
                        return inherited, True
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and caller is not None
                and caller.class_name is not None
            ):
                own = self.method_on(caller.class_name, name)
                if own is not None and own.module is caller.module:
                    return own, True
                own = caller.module.by_class.get(caller.class_name, {}).get(name)
                if own is not None:
                    return own, True
        else:
            return None, False
        candidates = self.by_name.get(name)
        if not candidates:
            return None, False
        if len(candidates) == 1:
            return candidates[0], True
        # Ambiguous names are only usable when every definition agrees on
        # the parameter list and commit behaviour; otherwise stay silent.
        first = self.summary(candidates[0])
        params = candidates[0].params
        usable = True
        for other in candidates[1:]:
            if other.params != params:
                return None, False
            if usable:
                summ = self.summary(other)
                usable = summ.effect == first.effect and summ.stages == first.stages
        return candidates[0], usable

    # -- instance attribute environments ---------------------------------------------

    def attr_env(self, module: ModuleInfo, class_name: str) -> "State":
        """The ``self.X`` facts ``__init__`` leaves behind: values, types, credentials.

        Named parameter holes are anonymized: outside the constructor the
        argument values are unknown, but the *shape* (``self.root`` is a
        single segment, ``self.log_path`` is ``/var/...``) survives — and
        ``self.yc = YancClient(...)`` types the attribute so method calls
        through it resolve to the right class, as ``self.sc = Syscalls(vfs)``
        gives its receiver a credential class.  Declared base classes
        contribute their own ``__init__`` attributes underneath.
        """
        key = (id(module.src), class_name)
        cached = self._attr_envs.get(key)
        if cached is not None:
            return cached
        self._attr_envs[key] = State()  # recursion guard
        attrs = State()
        for base in module.class_bases.get(class_name, ()):
            base_module = self.classes.get(base)
            if base_module is not None:
                inherited = self.attr_env(base_module, base)
                attrs.env.update(inherited.env)
                attrs.types.update(inherited.types)
                attrs.creds.update(inherited.creds)
        init = module.by_class.get(class_name, {}).get("__init__")
        if init is not None:
            interp = FuncInterp(self, init)
            interp.run()
            final = interp.state
            for facts, own in ((attrs.env, final.env), (attrs.types, final.types), (attrs.creds, final.creds)):
                facts.update({name: fact for name, fact in own.items() if name.startswith("self.")})
            attrs.env = {name: _anonymize(tokens) for name, tokens in attrs.env.items()}
        self._attr_envs[key] = attrs
        return attrs


def _anonymize(tokens: tuple) -> tuple:
    return tuple(P.hole_token() if t[0] == "hole" else t for t in tokens)


# -- interpreter state -----------------------------------------------------------------


@dataclass
class FdInfo:
    site: ast.AST
    protected: bool = False
    #: The judged role of the opened path ("stage"/"commit"/None): a
    #: write/pwrite through the fd carries the same §3.4 obligation as a
    #: write_text to the path (commit_flow commits via open + pwrite).
    role: str | None = None


@dataclass
class State:
    env: dict[str, tuple] = field(default_factory=dict)
    types: dict[str, str] = field(default_factory=dict)  # var -> class name
    fds: dict[str, FdInfo] = field(default_factory=dict)
    staged: dict[int, ast.AST] = field(default_factory=dict)  # id(node) -> node
    listings: set[str] = field(default_factory=set)  # vars holding listdir() results
    tablerows: set[str] = field(default_factory=set)  # vars holding table.entries() results
    #: var -> the read sites its value derives from, with no validator since.
    taint: dict[str, frozenset] = field(default_factory=dict)
    creds: dict[str, str] = field(default_factory=dict)  # receiver -> credential class
    committed: bool = False
    returned: bool = False

    def clone(self) -> "State":
        return State(
            env=dict(self.env),
            types=dict(self.types),
            fds={k: FdInfo(v.site, v.protected, v.role) for k, v in self.fds.items()},
            staged=dict(self.staged),
            listings=set(self.listings),
            tablerows=set(self.tablerows),
            taint=dict(self.taint),
            creds=dict(self.creds),
            committed=self.committed,
            returned=self.returned,
        )


_NO_ATTRS = State()  # what a function outside any class knows about ``self``


def _commit_guard(test, params) -> tuple[str, object] | None:
    """``(param, the value that commits)`` for a commit guard: ``if p:`` or ``if p == <constant>:``."""
    if isinstance(test, ast.Name) and test.id in params:
        return test.id, True
    if (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id in params
        and isinstance(test.ops[0], ast.Eq)
        and isinstance(test.comparators[0], ast.Constant)
    ):
        return test.left.id, test.comparators[0].value
    return None


def _commits(value, when) -> bool:
    """Does an argument take a callee's guarded commit?  A dynamic one is assumed to."""
    if not isinstance(value, ast.Constant):
        return True
    return value.value is not False if when is True else value.value == when


def _merge_states(a: State, b: State) -> State:
    """Join two branch states (the continuation of an If/Try)."""
    if a.returned and not b.returned:
        return b
    if b.returned and not a.returned:
        return a
    env: dict[str, tuple] = {}
    for name in set(a.env) | set(b.env):
        env[name] = P.merge(a.env.get(name), b.env.get(name))
    types = {name: t for name, t in a.types.items() if b.types.get(name) == t}
    fds: dict[str, FdInfo] = {}
    for name in set(a.fds) | set(b.fds):
        fa, fb = a.fds.get(name), b.fds.get(name)
        keep = fa or fb
        fds[name] = FdInfo(keep.site, (fa.protected if fa else True) and (fb.protected if fb else True))
    staged = dict(a.staged)
    staged.update(b.staged)
    return State(
        env=env,
        types=types,
        fds=fds,
        staged=staged,
        listings=a.listings | b.listings,
        tablerows=a.tablerows | b.tablerows,
        taint=_join_taint(a.taint, b.taint),
        creds={name: c for name, c in a.creds.items() if b.creds.get(name) == c},
        committed=a.committed and b.committed,
        returned=a.returned and b.returned,
    )


# -- recorded syscall sites ------------------------------------------------------------

#: Hole name bound to loop targets: a path containing one varies per iteration.
LOOP_HOLE = "~loop"


def loop_variant(tokens: tuple) -> bool:
    """True when the token string depends on the enclosing loop's variable."""
    return any(t[0] == "hole" and t[1] == LOOP_HOLE for t in tokens)


@dataclass
class LoopInfo:
    """One loop (or comprehension generator) the interpreter descended into."""

    node: ast.AST  # For | While | comprehension
    depth: int  # nesting depth of the loop *body* (outermost = 1)
    bounded: bool  # iterates a compile-time-constant collection
    kind: str  # "listdir" | "scandir" | "walk" | "entries" | "while" | "for"


@dataclass
class CallInfo:
    """One resolved project-internal call, for interprocedural cost rollup."""

    node: ast.Call
    callee: FuncDecl
    depth: int
    loop: Optional[LoopInfo]


@dataclass
class OpSite:
    """Any recognized metered operation (path-based or fd-based) with context."""

    node: ast.Call
    method: str
    depth: int
    loop: Optional[LoopInfo]
    taint: frozenset = _CLEAN  # an RPC's: the read sites its arguments derive from


@dataclass(eq=False)
class Site:
    """One recognized syscall call with its abstract path arguments.

    A queued ring entry is the site of the call it stands for
    (``queued``), with its chain bit: ``link`` is ``True``/``False`` for a
    compile-time constant and ``None`` when dynamic (treated as
    chain-continuing, erring toward silence).  ``taint`` holds, per path,
    the read sites the path derives from (a read site is a taint source
    when its judge says it reads tenant-reachable state); ``cred`` is the
    receiver's credential class, None when untyped.
    """

    node: ast.Call
    method: str
    paths: tuple[tuple, ...]  # token string per path argument
    content: object = None  # compile-time constant payload for write_text/bytes
    depth: int = 0  # loop nesting depth at the site
    loop: Optional[LoopInfo] = None  # innermost enclosing loop
    #: Enclosing conditional arms, outermost first: ``(id(if_node), arm)``
    #: pairs.  Two sites are program-ordered by visit order only when one
    #: branch stack prefixes the other — sites in sibling arms are not.
    branch: tuple = ()
    positions: tuple[int, ...] = ()  # the call-argument position of each path
    queued: bool = False
    link: bool | None = False
    taint: tuple[frozenset, ...] = ()
    cred: str | None = None


#: Calls whose first argument unwraps to the underlying iterable.
_ITER_WRAPPERS = frozenset({"sorted", "list", "tuple", "set", "reversed", "enumerate", "iter"})


def _unwrap_iter(expr):
    """Peel ``sorted(...)``/``list(...)``/... down to the iterable expression."""
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _ITER_WRAPPERS
        and expr.args
    ):
        expr = expr.args[0]
    return expr


_STMT_BUDGET = 20000


class FuncInterp:
    """Interpret one function body (or a module body as a pseudo-function)."""

    def __init__(self, index: ProjectIndex, decl: FuncDecl | None, module: ModuleInfo | None = None):
        self.index = index
        self.decl = decl
        self.module = decl.module if decl is not None else module
        self.state = State()
        self.sites: list[Site] = []  # queued ring entries included
        self.op_sites: list[OpSite] = []  # every metered op, incl. fd-based
        self.rpc_sites: list[OpSite] = []  # distfs channel.call round trips
        self.calls: list[CallInfo] = []  # resolved project-internal calls
        self.loops: list[LoopInfo] = []  # every loop descended into, in visit order
        self._loops: list[LoopInfo] = []
        self.returns: list[tuple] = []
        self.exit_committed: list[bool] = []
        self.cond_commit: tuple[str, object] | None = None  # (param, the value that commits)
        self.ever_staged = False
        #: (kind, node) local typestate findings for the checker.
        self.local_findings: list[tuple[str, ast.AST]] = []
        self._leaked: set[int] = set()
        self._uncommitted: set[int] = set()
        self._finally_closes: list[set[str]] = []
        self._branches: list[tuple[int, str]] = []
        self._budget = _STMT_BUDGET
        self.params: tuple[str, ...] = decl.params if decl is not None else ()

    def run(self) -> None:
        for name in self.params:
            self.state.env[name] = (P.hole_token(name),)
        body = self.decl.node.body if self.decl is not None else self.module.src.tree.body
        self.visit_block(body, self.state)
        if not self.state.returned:
            self._exit(self.state, node=None, value_name=None)

    # -- statements ------------------------------------------------------------------

    def visit_block(self, stmts, state: State) -> None:
        for stmt in stmts:
            if state.returned or self._budget <= 0:
                return
            self._budget -= 1
            before = {
                name for name, fd in state.fds.items() if not fd.protected
            }
            self.visit_stmt(stmt, state)
            if before and _may_raise(stmt):
                for name in before:
                    fd = state.fds.get(name)
                    if fd is not None and not fd.protected:
                        self._leak(fd.site)

    def visit_stmt(self, stmt, state: State) -> None:
        if isinstance(stmt, ast.Assign):
            value, taint = self.eval(stmt.value, state)
            value_type = self._type_of(stmt.value, state)
            cred = self._cred_of(stmt.value, state)
            listing = self._listing_origin(stmt.value, state)
            rows = self._entries_origin(stmt.value, state)
            for target in stmt.targets:
                self._assign(target, value, state, value_type, cred)
                self._bind_taint(target, taint, state)
                if isinstance(target, ast.Name):
                    (state.listings.add if listing else state.listings.discard)(target.id)
                    (state.tablerows.add if rows else state.tablerows.discard)(target.id)
            self._track_open(stmt, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value, taint = self.eval(stmt.value, state)
                self._assign(stmt.target, value, state)
                self._bind_taint(stmt.target, taint, state)
                self._track_open(stmt, state)
        elif isinstance(stmt, ast.AugAssign):
            value, taint = self.eval(stmt.value, state)
            if isinstance(stmt.op, ast.Add) and isinstance(stmt.target, ast.Name):
                old = state.env.get(stmt.target.id, P.UNKNOWN)
                state.env[stmt.target.id] = P.concat(old, value)
            elif isinstance(stmt.target, ast.Name):
                state.env[stmt.target.id] = P.UNKNOWN
            self._bind_taint(stmt.target, taint | state.taint.get(_key(stmt.target), _CLEAN), state)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state)
        elif isinstance(stmt, ast.Return):
            value_name = stmt.value.id if isinstance(stmt.value, ast.Name) else None
            tokens = self.eval(stmt.value, state)[0] if stmt.value is not None else None
            if tokens is not None:
                self.returns.append(tokens)
            self._exit(state, node=stmt, value_name=value_name)
            state.returned = True
        elif isinstance(stmt, ast.If):
            self._visit_if(stmt, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            _, taint = self.eval(stmt.iter, state)
            info = self._loop_info(stmt, state)
            body_state = state.clone()
            self._bind_holes(stmt.target, body_state, loop=True)
            self._visit_loop(stmt.body, body_state, info, lambda s: self._bind_taint(stmt.target, taint, s))
            merged = _merge_states(state, body_state)
            self._replace(state, merged)
            self.visit_block(stmt.orelse, state)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, state)
            body_state = state.clone()
            info = LoopInfo(node=stmt, depth=len(self._loops) + 1, bounded=False, kind="while")
            self._visit_loop(stmt.body, body_state, info, lambda s: None)
            merged = _merge_states(state, body_state)
            self._replace(state, merged)
            self.visit_block(stmt.orelse, state)
        elif isinstance(stmt, ast.Try):
            self._visit_try(stmt, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                _, taint = self.eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind_holes(item.optional_vars, state)
                    self._bind_taint(item.optional_vars, taint, state)
            self.visit_block(stmt.body, state)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, state)
            for fd in state.fds.values():
                if not fd.protected:
                    self._leak(fd.site)
            state.returned = True  # this path ends; §3.4 obligations waived
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            state.env[stmt.name] = P.UNKNOWN
        elif isinstance(stmt, (ast.Delete, ast.Assert, ast.Global, ast.Nonlocal)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, state)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass, ast.Break, ast.Continue)):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, state)

    def _visit_if(self, stmt: ast.If, state: State) -> None:
        self.eval(stmt.test, state)
        # An ``if`` that inspects a value is its validator: both arms see it clean.
        for node in ast.walk(stmt.test):
            state.taint.pop(_key(node), None)
        then_state = state.clone()
        self._branches.append((id(stmt), "then"))
        self.visit_block(stmt.body, then_state)
        self._branches.pop()
        else_state = state.clone()
        self._branches.append((id(stmt), "else"))
        self.visit_block(stmt.orelse, else_state)
        self._branches.pop()
        merged = _merge_states(then_state, else_state)
        # The §3.4 `if commit: ...commit...` idiom: a parameter guards the
        # commit.  The function's obligation becomes conditional — record
        # it for the summary and treat the local obligation as discharged
        # (callers passing commit=False inherit the staging).
        guard = _commit_guard(stmt.test, self.params)
        if guard is not None and then_state.committed and not else_state.committed and not state.committed:
            self.cond_commit = guard
            merged.staged = dict(then_state.staged)
            merged.committed = state.committed
        self._replace(state, merged)

    def _visit_try(self, stmt: ast.Try, state: State) -> None:
        closes = _closed_fd_names(stmt.finalbody)
        for name in closes:
            fd = state.fds.get(name)
            if fd is not None:
                fd.protected = True
        self._finally_closes.append(closes)
        body_state = state.clone()
        self.visit_block(stmt.body, body_state)
        self._finally_closes.pop()
        results = [body_state]
        for position, handler in enumerate(stmt.handlers):
            handler_state = _merge_states(state, body_state).clone()
            handler_state.returned = False
            if handler.name:
                handler_state.env[handler.name] = P.UNKNOWN
            self._branches.append((id(stmt), f"except{position}"))
            self.visit_block(handler.body, handler_state)
            self._branches.pop()
            results.append(handler_state)
        merged = results[0]
        for other in results[1:]:
            merged = _merge_states(merged, other)
        self.visit_block(stmt.orelse, merged)
        self.visit_block(stmt.finalbody, merged)
        self._replace(state, merged)

    def _visit_loop(self, body, state: State, info: LoopInfo, bind: Callable[[State], None]) -> None:
        """Visit a loop body once, entered with the taint an earlier iteration leaves.

        ``bind`` (re)binds the loop target's taint.  A throwaway
        interpreter runs that earlier iteration, so a sink at the top of
        the body sees a name tainted at its bottom and no site, call or
        finding is recorded twice.
        """
        bind(state)
        first = state.clone()
        FuncInterp(self.index, self.decl, self.module).visit_block(body, first)
        state.taint = _join_taint(state.taint, first.taint)
        bind(state)
        self.loops.append(info)
        self._loops.append(info)
        self.visit_block(body, state)
        self._loops.pop()

    def _replace(self, state: State, new: State) -> None:
        state.env = new.env
        state.types = new.types
        state.fds = new.fds
        state.staged = new.staged
        state.taint = new.taint
        state.creds = new.creds
        state.committed = new.committed
        state.returned = new.returned

    def _bind_holes(self, target, state: State, loop: bool = False) -> None:
        # Loop targets get a *named* hole so downstream consumers (yancperf)
        # can tell iteration-variant paths from loop-constant ones; for the
        # grammar both finalize to the same wildcard.
        tokens = (P.hole_token(LOOP_HOLE),) if loop else P.UNKNOWN
        if isinstance(target, ast.Name):
            state.env[target.id] = tokens
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_holes(elt, state, loop=loop)
        elif isinstance(target, ast.Starred):
            self._bind_holes(target.value, state, loop=loop)

    def _loop_info(self, stmt, state: State) -> LoopInfo:
        """Classify a For loop: what it iterates and whether it is bounded."""
        bounded, kind = self._classify_iter(stmt.iter, state)
        return LoopInfo(node=stmt, depth=len(self._loops) + 1, bounded=bounded, kind=kind)

    def _comp_loop_info(self, node, gen, state: State) -> LoopInfo:
        bounded, kind = self._classify_iter(gen.iter, state)
        return LoopInfo(node=node, depth=len(self._loops) + 1, bounded=bounded, kind=kind)

    def _classify_iter(self, iter_expr, state: State) -> tuple[bool, str]:
        iterable = _unwrap_iter(iter_expr)
        if isinstance(iterable, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
            return True, "for"
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id == "range":
                return all(isinstance(a, ast.Constant) for a in iterable.args), "for"
            method = syscall_method(iterable)
            if method in ("listdir", "scandir", "walk"):
                return False, method
            if isinstance(func, ast.Attribute) and func.attr.lstrip("_") == "entries":
                return False, "entries"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "values"
                and isinstance(func.value, ast.Attribute)
                and _TABLE_ATTR.search(func.value.attr)
            ):
                return False, "entries"
            return False, "for"
        if isinstance(iterable, ast.Name) and iterable.id in state.listings:
            return False, "listdir"
        if isinstance(iterable, ast.Name) and iterable.id in state.tablerows:
            return False, "entries"
        if isinstance(iterable, ast.Attribute) and _TABLE_ATTR.search(iterable.attr):
            return False, "entries"
        return False, "for"

    def _listing_origin(self, expr, state: State) -> bool:
        """Does ``expr`` evaluate to the result of a ``listdir()``?"""
        inner = _unwrap_iter(expr)
        if isinstance(inner, ast.Call):
            return syscall_method(inner) == "listdir"
        if isinstance(inner, ast.Name):
            return inner.id in state.listings
        return False

    def _entries_origin(self, expr, state: State) -> bool:
        """Does ``expr`` evaluate to a flow table's full entry list?

        Provenance tracking for the linear-table-scan checker: stashing
        ``table.entries()`` in a local and looping over the local later is
        still a full-table scan, even though the loop iterable is a bare
        name.  Mirrors the ``listdir`` provenance in ``state.listings``.
        """
        inner = _unwrap_iter(expr)
        if isinstance(inner, ast.Call):
            func = inner.func
            if isinstance(func, ast.Attribute) and func.attr.lstrip("_") == "entries":
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "values"
                and isinstance(func.value, ast.Attribute)
                and _TABLE_ATTR.search(func.value.attr)
            ):
                return True
            return False
        if isinstance(inner, ast.Name):
            return inner.id in state.tablerows
        return False

    def _assign(
        self, target, value: tuple, state: State, value_type: str | None = None, cred: str | None = None
    ) -> None:
        key = _key(target)
        if key is not None:
            state.fds.pop(key, None)  # rebound: old fd escapes tracking
            state.env[key] = value
            if value_type is not None:
                state.types[key] = value_type
            elif isinstance(target, ast.Name):
                state.types.pop(key, None)
            if cred is not None:
                state.creds[key] = cred
            else:
                state.creds.pop(key, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, P.UNKNOWN, state)

    def _bind_taint(self, target, taint: frozenset, state: State) -> None:
        """Taint an assignment target: a name or ``self.x``, else every name inside it."""
        key = _key(target)
        for name in [key] if key else [node.id for node in ast.walk(target) if isinstance(node, ast.Name)]:
            if taint:
                state.taint[name] = taint
            else:
                state.taint.pop(name, None)

    def _attrs(self) -> State:
        """What the enclosing class's ``__init__`` leaves on ``self``."""
        if self.decl is None or self.decl.class_name is None:
            return _NO_ATTRS
        return self.index.attr_env(self.decl.module, self.decl.class_name)

    def _type_of(self, expr, state: State) -> str | None:
        """The project class an expression constructs or aliases, if clear."""
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and self.index.classes.get(func.id) is not None:
                return func.id
            # self.yc.in_view(...) etc.: a resolvable method annotated by
            # convention — returning `self` keeps the receiver's type.
            return None
        key = _key(expr)
        if key is not None and key.startswith("self.") and key not in state.types:
            return self._attrs().types.get(key)
        return state.types.get(key)

    def _cred_of(self, expr, state: State) -> str | None:
        """The credential class a receiver expression constructs or aliases, if clear."""
        if isinstance(expr, ast.Call):
            return classify_constructor(expr)
        key = _key(expr)
        if key in state.env:  # bound in this body: its own assignment decides
            return state.creds.get(key)
        if key is None or key.startswith("self."):
            return self._attrs().creds.get(key)
        return self.module.global_creds.get(key)

    def _track_open(self, stmt, state: State) -> None:
        """``fd = sc.open(...)`` starts fd-lifecycle tracking."""
        value = stmt.value
        if not isinstance(value, ast.Call) or syscall_method(value) != "open":
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            protected = any(targets[0].id in closes for closes in self._finally_closes)
            role = self.index.judge(self._at_dir_fd(value, self.eval(value.args[0], state)[0], state)) if value.args else None
            state.fds[targets[0].id] = FdInfo(site=value, protected=protected, role=role)

    def _exit(self, state: State, node, value_name: str | None) -> None:
        """A normal exit: settle §3.4 obligations and open fds."""
        self.exit_committed.append(state.committed)
        for staging in state.staged.values():
            if id(staging) not in self._uncommitted:
                self._uncommitted.add(id(staging))
                self.local_findings.append(("flow-no-commit", staging))
        for name, fd in state.fds.items():
            if not fd.protected and name != value_name:
                self._leak(fd.site)

    def _leak(self, site: ast.AST) -> None:
        if id(site) not in self._leaked:
            self._leaked.add(id(site))
            self.local_findings.append(("fd-leak-on-exception", site))

    # -- expressions -----------------------------------------------------------------

    def eval(self, node, state: State) -> tuple[tuple, frozenset]:
        """Abstract-evaluate ``node``: its token string (never None) and its taint.

        The taint is the set of read sites the value derives from with no
        validator on the way: string assembly (concatenation, f-strings,
        containers, the ``_PROPAGATORS``) carries it, any other operation
        or call yields a clean value.
        """
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return P.tokens_from_literal(node.value), _CLEAN
            return P.UNKNOWN, _CLEAN
        if isinstance(node, ast.JoinedStr):
            parts = []
            taint = _CLEAN
            for piece in node.values:
                if isinstance(piece, ast.Constant):
                    parts.append(P.tokens_from_literal(str(piece.value)))
                elif isinstance(piece, ast.FormattedValue):
                    inner, inner_taint = self.eval(piece.value, state)
                    taint |= inner_taint
                    if piece.format_spec is not None:
                        self.eval(piece.format_spec, state)
                        inner = P.UNKNOWN
                    parts.append(inner)
            return P.concat(*parts), taint
        if isinstance(node, ast.Name):
            taint = state.taint.get(node.id, _CLEAN)
            if node.id in state.env:
                return state.env[node.id], taint
            if self.module is not None and node.id in self.module.global_env:
                return self.module.global_env[node.id], taint
            return P.UNKNOWN, taint
        if isinstance(node, ast.Attribute):
            taint = self.eval(node.value, state)[1]
            key = _key(node)
            if key is None:
                return P.UNKNOWN, taint  # obj.field carries obj's taint
            env = state.env if key in state.env else self._attrs().env
            return env.get(key, P.UNKNOWN), state.taint.get(key, _CLEAN)
        if isinstance(node, ast.BinOp):
            left, left_taint = self.eval(node.left, state)
            right, right_taint = self.eval(node.right, state)
            taint = left_taint | right_taint
            if isinstance(node.op, ast.Add):
                return P.concat(left, right), taint
            if isinstance(node.op, ast.Div):  # pathlib's Path / "seg"
                return P.join([left, right]), taint
            if isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                return P.tokens_from_template(node.left.value), taint
            return P.UNKNOWN, taint
        if isinstance(node, ast.BoolOp):
            result = None
            taint = _CLEAN
            for value in node.values:
                tokens, value_taint = self.eval(value, state)
                result = P.merge(result, tokens)
                taint |= value_taint
            return (result if result is not None else P.UNKNOWN), taint
        if isinstance(node, ast.IfExp):
            self.eval(node.test, state)
            body, body_taint = self.eval(node.body, state)
            orelse, orelse_taint = self.eval(node.orelse, state)
            return P.merge(body, orelse), body_taint | orelse_taint
        if isinstance(node, ast.Call):
            return self.eval_call(node, state)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_state = state  # comprehension sites still count
            for gen in node.generators:
                self.eval(gen.iter, comp_state)  # evaluated at the outer depth
                self._bind_holes(gen.target, comp_state, loop=True)
                info = self._comp_loop_info(node, gen, comp_state)
                self.loops.append(info)
                self._loops.append(info)
                for cond in gen.ifs:
                    self.eval(cond, comp_state)
            if isinstance(node, ast.DictComp):
                self.eval(node.key, comp_state)
                self.eval(node.value, comp_state)
            else:
                self.eval(node.elt, comp_state)
            del self._loops[len(self._loops) - len(node.generators) :]
            return P.UNKNOWN, _CLEAN
        # Generic: recurse for site-recording, value unknown; a container,
        # an element of one, or a starred value carries what it holds.
        whole = isinstance(node, (ast.Tuple, ast.List, ast.Set))
        held = node.value if isinstance(node, (ast.Subscript, ast.Starred)) else None
        taint = _CLEAN
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_taint = self.eval(child, state)[1]
                if whole or child is held:
                    taint |= child_taint
        return P.UNKNOWN, taint

    def eval_call(self, call: ast.Call, state: State) -> tuple[tuple, frozenset]:
        func = call.func
        # The receiver can hide a metered call: sc.read_text(p).strip().
        receiver = self.eval(func.value, state)[1] if isinstance(func, ast.Attribute) else _CLEAN
        args = [self.eval(a, state) for a in call.args]
        keywords = [(kw.arg, self.eval(kw.value, state)) for kw in call.keywords]
        arg_tokens = [tokens for tokens, _ in args]
        taint = self._result_taint(call, receiver, [t for _, t in args], state)

        # os.path.join(...) — join semantics
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "path"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "os"
        ):
            return P.join(arg_tokens), taint
        # "<template>".format(...) — placeholders become holes
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "format"
            and isinstance(func.value, ast.Constant)
            and isinstance(func.value.value, str)
        ):
            return P.tokens_from_template(func.value.value), taint
        # Path(x) / clean(x) / str(x) are abstractly the identity
        if isinstance(func, ast.Name) and func.id in ("Path", "clean", "str") and len(call.args) == 1:
            return arg_tokens[0], taint

        queued = queued_syscall(call)
        if queued is not None:  # the entry is the call it stands for; its crossing is the ring's
            self._record_site(call, *queued, args, state)
            self._escape_fds(call, state)
            return P.UNKNOWN, taint

        method = syscall_method(call)
        if method is not None:
            self.op_sites.append(
                OpSite(node=call, method=method, depth=len(self._loops), loop=self._innermost())
            )
        if method == "submit":  # the ring's one crossing: what it runs are the entries queued before it
            return P.UNKNOWN, taint
        if method is not None and method in PATH_ARGS:
            site = self._record_site(call, method, None, args, state)
            # A read's value is a taint source candidate: it carries its site.
            return P.UNKNOWN, frozenset({site}) if site is not None and method in _READS else taint
        if method in ("write", "pwrite") and call.args and isinstance(call.args[0], ast.Name):
            # A write through an open fd stages or commits exactly as a
            # write_text to the opened path would (§3.4): commit_flow
            # publishes via open + pwrite so the in-place version rewrite
            # is a single durable op.
            fd = state.fds.get(call.args[0].id)
            if fd is not None and fd.role == "stage":
                state.staged[id(call)] = call
                self.ever_staged = True
            elif fd is not None and fd.role == "commit":
                state.staged.clear()
                state.committed = True
        if method == "close" and call.args and isinstance(call.args[0], ast.Name):
            state.fds.pop(call.args[0].id, None)
            return P.UNKNOWN, taint
        if self._is_rpc(call):
            sent = frozenset().union(*(t for _, t in args), *(t for _, (_, t) in keywords))
            self.rpc_sites.append(
                OpSite(node=call, method="rpc", depth=len(self._loops), loop=self._innermost(), taint=sent)
            )

        recv_type = None
        if isinstance(func, ast.Attribute):
            recv_type = self._type_of(func.value, state)
        callee, usable = self.index.resolve_call(call, self.decl, recv_type)
        if callee is not None:
            self.calls.append(
                CallInfo(node=call, callee=callee, depth=len(self._loops), loop=self._innermost())
            )
        if usable:
            summary = self.index.summary(callee)
            bindings = self._bind_args(callee, call, arg_tokens, {name: t for name, (t, _) in keywords if name})
            self._apply_effect(call, callee, summary, state)
            self._escape_fds(call, state)
            return P.substitute(summary.ret, bindings), taint

        self._escape_fds(call, state)
        return P.UNKNOWN, taint

    @staticmethod
    def _result_taint(call: ast.Call, receiver: frozenset, args: list, state: State) -> frozenset:
        """What a call's value carries; a validator call clears its arguments."""
        name = _callee_name(call.func)
        if name is None:
            return _CLEAN
        if _SANITIZER.search(name):
            for arg in call.args:
                state.taint.pop(_key(arg), None)
            return _CLEAN
        if isinstance(call.func, ast.Name):
            return frozenset().union(*args) if name in ("str", "repr", "format", "bytes") else _CLEAN
        first = call.args[0] if call.args else None
        if name == "replace" and isinstance(first, ast.Constant) and first.value in ("/", "..", "\\"):
            return _CLEAN  # stripping separators IS the sanitization
        return receiver.union(*args) if name in _PROPAGATORS else _CLEAN

    def _innermost(self) -> Optional[LoopInfo]:
        return self._loops[-1] if self._loops else None

    @staticmethod
    def _is_rpc(call: ast.Call) -> bool:
        """``<...>.channel.call(...)`` — one distfs RPC round trip."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "call"):
            return False
        base = func.value
        if isinstance(base, ast.Name):
            return base.id == "channel"
        return isinstance(base, ast.Attribute) and base.attr == "channel"

    def _record_site(self, call: ast.Call, method: str, shift: int | None, args: list, state: State) -> Site | None:
        """Record a call of ``method`` — or, given the ``shift`` of its arguments, a ring entry queuing one.

        ``args`` are the evaluated ``(tokens, taint)`` call arguments.
        """
        queued = shift is not None
        shift = shift or 0
        positions = tuple(i + shift for i in PATH_ARGS.get(method, ()) if i + shift < len(args))
        if not positions and not queued:
            return None
        paths = tuple(args[i][0] for i in positions)
        if paths:
            paths = (self._at_dir_fd(call, paths[0], state),) + paths[1:]
            if queued and method == "open" and _opens_directory(call, shift):
                state.env[" LINK_DIRFD"] = paths[0]  # the chain's directory, for the entries that name LINK_DIRFD
        content = None
        data = call.args[shift + 1] if len(call.args) > shift + 1 else None
        if method in _WRITE_METHODS and isinstance(data, ast.Constant):
            content = data.value
        link: bool | None = False
        for kw in call.keywords:
            if queued and kw.arg == "link":
                link = bool(kw.value.value) if isinstance(kw.value, ast.Constant) else None
        site = Site(
            node=call,
            method=method,
            paths=paths,
            content=content,
            depth=len(self._loops),
            loop=self._innermost(),
            branch=tuple(self._branches),
            positions=positions,
            queued=queued,
            link=link,
            taint=tuple(args[i][1] for i in positions),
            cred=self._cred_of(call.func.value, state),
        )
        self.sites.append(site)
        if method in _WRITE_METHODS and paths:
            role = self.index.judge(paths[0])
            if role == "stage":
                state.staged[id(call)] = call
                self.ever_staged = True
            elif role == "commit":
                state.staged.clear()
                state.committed = True
        return site

    @staticmethod
    def _at_dir_fd(call: ast.Call, tokens: tuple, state: State) -> tuple:
        """The path ``tokens`` name in ``call``: joined to its ``dir_fd=``'s directory (openat(2)) when it has one."""
        key = _dir_fd_key(call)
        if key is None:
            return tokens
        directory = state.env.get(key)
        return P.join([directory, tokens]) if directory is not None else P.UNKNOWN

    def _bind_args(self, callee: FuncDecl, call: ast.Call, arg_tokens, kw_tokens) -> dict:
        bindings: dict[str, tuple] = {}
        for param, tokens in zip(callee.params, arg_tokens):
            bindings[param] = tokens
        for name, tokens in kw_tokens.items():
            if name in callee.params:
                bindings[name] = tokens
        return bindings

    def _apply_effect(self, call: ast.Call, callee: FuncDecl, summary: Summary, state: State) -> None:
        effect = summary.effect
        if effect == ("always",):
            state.staged.clear()
            state.committed = True
            return
        if effect[0] == "cond":
            _, param, when = effect
            value = self._arg_for(callee, call, param)
            guard = _commit_guard(value.test, self.params) if isinstance(value, ast.IfExp) else None
            if guard is not None and _commits(value.body, when) and not _commits(value.orelse, when):
                # `f(..., "version" if commit else None)`: the idiom, one call down.
                self.cond_commit = guard
                state.staged.clear()
            elif _commits(value, when):
                # A dynamic value errs toward silence.
                state.staged.clear()
                state.committed = True
            elif when is True and summary.stages:
                state.staged[id(call)] = call
                self.ever_staged = True
            return
        if summary.stages:  # ("never",) and it writes spec files
            state.staged[id(call)] = call
            self.ever_staged = True

    def _arg_for(self, callee: FuncDecl, call: ast.Call, param: str):
        """The AST expression bound to ``param`` at this call, or its default."""
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
        try:
            index = callee.params.index(param)
        except ValueError:
            return None
        if index < len(call.args):
            return call.args[index]
        return callee.defaults.get(param)

    def _escape_fds(self, call: ast.Call, state: State) -> None:
        """Passing a tracked fd to a call that does not take a descriptor transfers ownership."""
        row = SYSCALLS.get(syscall_method(call))
        if row is not None and row.fd:
            return
        for arg in call.args:
            if isinstance(arg, ast.Name):
                state.fds.pop(arg.id, None)
        for kw in call.keywords:
            if isinstance(kw.value, ast.Name):
                state.fds.pop(kw.value.id, None)


def _closed_fd_names(stmts) -> set[str]:
    """fd variable names closed anywhere under ``stmts`` (a finally body)."""
    names: set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and syscall_method(node) == "close"
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                names.add(node.args[0].id)
    return names


def _may_raise(stmt) -> bool:
    """Conservatively: a statement containing a call or raise may raise."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Call, ast.Raise)):
            return True
    return False


__all__ = [
    "LOOP_HOLE",
    "CallInfo",
    "FuncDecl",
    "FuncInterp",
    "LoopInfo",
    "ModuleInfo",
    "OpSite",
    "PATH_ARGS",
    "ProjectIndex",
    "Site",
    "Summary",
    "loop_variant",
    "syscall_method",
    "queued_syscall",
]
