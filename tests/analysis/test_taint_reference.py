"""The old taint pass as the reference model for the interpreter's taint facts.

``_TaintPass`` below is yancsec's former second walk of every function
body, kept verbatim: it ran an ``if``'s two arms over one shared state and
walked loop bodies twice.  The interpreter now carries taint in its own
state, joined at every merge.  Over generated tenant-scoped functions the
two must agree exactly on straight-line code; with branches the new
findings are a superset, and each extra one is a path the old pass lost
to a one-arm overwrite — the interpreter's findings are exactly the union
of the old pass's findings over every path of the program.
"""

from __future__ import annotations

import ast
import re
from itertools import product
from typing import Callable

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.core import SourceFile
from repro.analysis.sweep import Sweep
from repro.analysis.yancpath.grammar import NamespaceModel
from repro.analysis.yancpath.interp import FuncInterp
from repro.analysis.yancsec.checker import analyze_sources

MODEL = NamespaceModel.build()

# -- the reference: yancsec's old forward pass, verbatim -----------------------------

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



def _receiver_key(expr: ast.expr) -> str | None:
    """The summary key for a receiver expression (``sc`` or ``.sc``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return f".{expr.attr}"
    return None



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


# -- generated tenant-scoped functions -----------------------------------------------
#
# A program is a block of nodes: ("line", text), ("if", test, then, orelse),
# ("for", body) or ("try", body, handler).  Every sink writes a distinct
# "s<k>" so a finding names its sink wherever the line lands.

NAMES = ("owner", "a", "b")
SOURCE = 'sc.read_text(f"/net/switches/{sw}/id")'
_SINK_ID = re.compile(r'"(s\d+)"\)')


@st.composite
def _simple(draw, reads: tuple, writes: tuple, sink_ids) -> tuple:
    kinds = ["source", "sanitize"] if writes else []
    if writes:
        kinds += ["overwrite"] + (["fstring", "propagate", "concat", "join", "format"] if reads else [])
    if reads:
        kinds.append("sink")
    if set(reads) & set(writes):
        kinds.append("augment")
    kind = draw(st.sampled_from(kinds))
    x = draw(st.sampled_from(writes)) if writes else None
    y = draw(st.sampled_from(reads)) if reads else None
    text = {
        "source": f"{x} = {SOURCE}",
        "sanitize": f"validate_name({x})",
        "overwrite": f'{x} = "default"',
        "fstring": f'{x} = f"h-{{{y}}}"',
        "propagate": f"{x} = {y}.strip()",
        "concat": f'{x} = {y} + "-1"',
        "join": f'{x} = os.path.join("hosts", {y})',
        "format": f'{x} = "{{}}-1".format({y})',
        "augment": "",
        "sink": f'sc.write_text(f"/net/hosts/{{{y}}}/owner", "s{next(sink_ids)}")',
    }[kind]
    if kind == "augment":
        x = draw(st.sampled_from(sorted(set(reads) & set(writes))))
        text = f"{x} += {y}"
    return ("line", text)


@st.composite
def _block(draw, reads: tuple, writes: tuple, sink_ids, depth: int, branchy: bool) -> list:
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["line"] * 3 + (["if", "for", "try"] if branchy and depth < 2 else [])))
        sub = lambda r, w: _block(r, w, sink_ids, depth + 1, branchy)  # noqa: E731
        if kind == "line":
            out.append(draw(_simple(reads, writes, sink_ids)))
        elif kind == "if":
            # The old pass runs the else arm on the then arm's state: an arm
            # reads no name an arm writes, so that order hides no real flow.
            arm_writes = tuple(draw(st.sets(st.sampled_from(writes), max_size=2))) if writes else ()
            arm_reads = tuple(name for name in reads if name not in arm_writes)
            guards = ["known"] + [f"{name} in known" for name in writes]
            out.append(("if", draw(st.sampled_from(guards)), draw(sub(arm_reads, arm_writes)), draw(sub(arm_reads, arm_writes))))
        elif kind == "for":
            out.append(("for", draw(sub(reads, writes))))
        else:
            out.append(("try", draw(sub(reads, writes)), draw(sub(reads, writes))))
    return out


def _programs(branchy: bool):
    def build(draw):
        sink_ids = iter(range(1000))
        block = draw(_block(NAMES, NAMES, sink_ids, 0, branchy))
        last = draw(st.sampled_from(NAMES))
        return block + [("line", f'sc.write_text(f"/net/hosts/{{{last}}}/owner", "s{next(sink_ids)}")')]

    return st.composite(build)()


def _render(block: list, indent: str = "    ") -> list[str]:
    lines = []
    for node in block:
        if node[0] == "line":
            lines.append(indent + node[1])
        elif node[0] == "if":
            lines += [f"{indent}if {node[1]}:", *_render(node[2], indent + "    ")]
            lines += [f"{indent}else:", *_render(node[3], indent + "    ")]
        elif node[0] == "for":
            lines += [f"{indent}for item in items:", *_render(node[1], indent + "    ")]
        else:
            lines += [f"{indent}try:", *_render(node[1], indent + "    ")]
            lines += [f"{indent}except OSError:", *_render(node[2], indent + "    ")]
    return lines


def _paths(block: list) -> list[list]:
    """Every straight-line path through ``block``: an ``if`` takes one arm
    (its validating test kept as a validator call), a loop runs zero, one
    or two times, a ``try`` runs its body, its handler, or both."""
    out: list[list] = [[]]
    for node in block:
        if node[0] == "line":
            choices = [[node]]
        elif node[0] == "if":
            test = [("line", f"validate_name({node[1].split()[0]})")] if " in " in node[1] else []
            choices = [test + path for arm in node[2:] for path in _paths(arm)]
        elif node[0] == "for":
            once = _paths(node[1])
            choices = [[]] + once + [p + q for p, q in product(once, once)]
        else:
            body, handler = _paths(node[1]), _paths(node[2])
            choices = body + handler + [p + q for p, q in product(body, handler)]
        out = [p + q for p, q in product(out, choices)]
    return out


def _module(functions: list[list]) -> SourceFile:
    text = "# yanclint: " + "scope=app\n"  # split so this file gets no scope
    for number, block in enumerate(functions):
        text += f"def run{number}(sc, sw, known, items):\n    owner = {SOURCE}\n    a = \"a\"\n    b = \"b\"\n"
        text += "\n".join(_render(block)) + "\n\n"
    return SourceFile.parse("app.py", text)


def _sink(src: SourceFile, line: int) -> str:
    return _SINK_ID.search(src.text.splitlines()[line - 1]).group(1)


def interpreter_findings(block: list) -> set[str]:
    src = _module([block])
    return {_sink(src, f.line) for f in analyze_sources([src], model=MODEL) if f.rule == "tainted-path"}


def reference_findings(blocks: list[list]) -> set[str]:
    """The old pass's sinks over ``blocks``, each a function, pooled."""
    src = _module(blocks)
    sweep = Sweep(sources=[src], model=MODEL)
    found: set[str] = set()
    for _module_info, interps in sweep.modules:
        for interp in interps:
            if interp.decl is None:
                continue
            sites = {id(site.node): site for site in interp.sites}
            emit = lambda _kind, node, _message: found.add(_sink(src, node.lineno))  # noqa: E731
            _TaintPass(sites, taint_sources(interp, sweep), emit).run(interp.decl.node.body)
    return found


@settings(max_examples=40, deadline=None)
@given(_programs(branchy=False))
def test_branch_free_findings_equal_the_reference(block):
    assert interpreter_findings(block) == reference_findings([block])


@settings(max_examples=40, deadline=None)
@given(_programs(branchy=True))
def test_branch_findings_add_only_one_arm_overwrites(block):
    paths = _paths(block)
    assume(len(paths) <= 64)
    found = interpreter_findings(block)
    assert found >= reference_findings([block])
    # Exactly the union over paths: every extra finding is a real path —
    # the arm, iteration count or handler that skips an overwrite.
    assert found == reference_findings(paths)


def test_one_arm_overwrite_is_an_extra_finding():
    block = [("if", "known", [("line", 'owner = "default"')], [("line", "a = owner")])]
    block.append(("line", 'sc.write_text(f"/net/hosts/{owner}/owner", "s0")'))
    assert reference_findings([block]) == set()
    assert interpreter_findings(block) == {"s0"}
