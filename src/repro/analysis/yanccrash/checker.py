"""yanccrash static pass: crash-consistency findings from persistence effects.

A :class:`~repro.analysis.core.Judge` over the shared
:class:`~repro.analysis.sweep.Sweep`: every function's
recorded syscall sites (:class:`~repro.analysis.yancpath.interp.Site`,
queued ring entries included) form a per-function *persistence-effect
sequence* — data writes, rename-publications, version-file commits, staged dot-entries,
chain-linked batch entries — in program order, with branch tags so
sites in sibling ``if`` arms are never treated as ordered.  Four
finding kinds judge that sequence:

* ``publish-before-data`` (error) — a publication (rename, or a §3.4
  ``version`` commit) is followed, on the same control path, by a write
  it was supposed to cover: a write under the rename's source or
  destination, or a flow spec write to the flow just committed.  A crash
  between the publication and the late write exposes torn state to
  readers who trusted the visibility point.
* ``non-atomic-publish`` (warning) — a directory made visible under its
  final name and then filled with two or more files, with no dot-temp +
  rename and no ``version`` gate.  Readers can list the directory
  half-filled; maildir or a version file makes it atomic.
* ``commit-outside-chain`` (error) — a batched flow whose ``version``
  write is prepped in a different uring chain than its spec writes.  A
  severed spec chain cancels the remaining spec writes but *not* the
  version write, so the flow becomes visible torn.
* ``unrecovered-staging`` (warning) — staged state (a dot-entry) whose
  staging directory no recovery path ever sweeps.  A module that stages
  under a directory declares its sweeper with a module-level
  ``YANCCRASH_RECOVERS = ("<path-prefix>", ...)`` tuple (see
  :mod:`repro.yancfs.recovery`, which declares ``/net`` for the
  mount-time fsck).  A crashed publisher leaks its temp forever
  otherwise.

Suppressions are ``# yanccrash: disable=<kind>`` comments (the yanclint
spelling works too; rule ids are unique across the tools).  Like the
rest of the suite, the pass errs toward silence: unresolvable paths,
unordered branches, and holes it cannot compare are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Judge, Severity, SourceFile
from repro.analysis.yancpath import patterns as P
from repro.analysis.yancpath.checker import flow_role
from repro.analysis.yancpath.interp import FuncInterp, Site

_SEVERITY = {
    "publish-before-data": Severity.ERROR,
    "non-atomic-publish": Severity.WARNING,
    "commit-outside-chain": Severity.ERROR,
    "unrecovered-staging": Severity.WARNING,
}

KINDS = tuple(_SEVERITY)

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})
_MKDIR_METHODS = frozenset({"mkdir", "makedirs"})

#: The module-level declaration naming the staging prefixes a recovery
#: path sweeps.
RECOVERS_NAME = "YANCCRASH_RECOVERS"


# -- token-string helpers --------------------------------------------------------------


def _split(tokens: tuple) -> tuple[tuple, tuple] | None:
    """``(parent, basename)`` token strings, or None for a bare name."""
    last = -1
    for position, token in enumerate(tokens):
        if token == P.SEP:
            last = position
    if last < 0:
        return None
    return tokens[:last], tokens[last + 1 :]


def _parent(tokens: tuple) -> tuple | None:
    parts = _split(tokens)
    return parts[0] if parts else None


def _basename(tokens: tuple) -> tuple:
    parts = _split(tokens)
    return parts[1] if parts else tokens


def _basename_literal(tokens: tuple) -> str | None:
    base = _basename(tokens)
    if len(base) == 1 and base[0][0] == "text":
        return base[0][1]
    return None


def _is_dot(tokens: tuple) -> bool:
    """Does the final path segment start with a literal dot?"""
    base = _basename(tokens)
    return bool(base) and base[0][0] == "text" and base[0][1].startswith(".")


def _under(parent: tuple, child: tuple) -> bool:
    """Is ``child`` strictly inside ``parent`` (token-prefix containment)?"""
    if len(child) <= len(parent) or child[: len(parent)] != parent:
        return False
    return child[len(parent)] == P.SEP


def _under_or_equal(parent: tuple, child: tuple) -> bool:
    return child == parent or _under(parent, child)


def _ordered(a: tuple, b: tuple) -> bool:
    """Are two branch stacks comparable (one a prefix of the other)?"""
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]


def _is_flow_dir(tokens: tuple) -> bool:
    """Does the path name a ``flows/<name>`` directory (version-gated)?"""
    parent = _parent(tokens)
    return parent is not None and _basename_literal(parent) == "flows"


def _covered(declared: list[tuple[str, ...]], pattern: P.PathPattern) -> bool:
    """Does a declared recovery prefix cover the staging directory?

    The declared prefix's segments are matched against the pattern's
    leading atoms; atoms the lattice cannot pin (holes, ``*``) match
    leniently — the pass errs toward silence.
    """
    for prefix in declared:
        if len(pattern.atoms) < len(prefix):
            continue
        if all(
            atom is P.STAR or atom.literal is None or atom.literal == segment
            for segment, atom in zip(prefix, pattern.atoms)
        ):
            return True
    return False


def recovery_declarations(sources: Iterable[SourceFile]) -> list[tuple[str, ...]]:
    """All ``YANCCRASH_RECOVERS`` prefixes declared anywhere in the project."""
    declared: list[tuple[str, ...]] = []
    for src in sources:
        for stmt in src.tree.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Name) and target.id == RECOVERS_NAME):
                continue
            if not isinstance(stmt.value, (ast.Tuple, ast.List)):
                continue
            for element in stmt.value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    segments = tuple(s for s in element.value.split("/") if s)
                    if segments:
                        declared.append(segments)
    return declared


# -- the per-function judgments --------------------------------------------------------


class _FuncJudge:
    """Run the four crash-consistency checks over one interpreted function."""

    def __init__(self, sweep, interp: FuncInterp, declared, emit) -> None:
        self.sweep = sweep
        self.interp = interp
        self.declared = declared
        self.emit = emit

    def run(self) -> None:
        sites = self.interp.sites
        self._publish_before_data(sites)
        self._non_atomic_publish(sites)
        self._commit_outside_chain([site for site in sites if site.queued])
        self._unrecovered_staging(sites)

    # publish-before-data ---------------------------------------------------------

    def _publish_before_data(self, sites: list[Site]) -> None:
        for position, site in enumerate(sites):
            if site.method == "rename" and len(site.paths) == 2:
                src, dst = site.paths
                for late in sites[position + 1 :]:
                    if late.method not in _WRITE_METHODS | _MKDIR_METHODS:
                        continue
                    if not _ordered(site.branch, late.branch) or late.loop is not site.loop:
                        continue
                    if not late.paths:
                        continue
                    path = late.paths[0]
                    if _under_or_equal(src, path) or _under_or_equal(dst, path):
                        self.emit(
                            "publish-before-data",
                            late.node,
                            f"{late.method}() lands under an entry already "
                            "published by rename(); a crash here leaves the "
                            "published entry torn — write before renaming",
                        )
            elif site.method in _WRITE_METHODS and self._role(site) == "commit":
                flow_dir = _parent(site.paths[0])
                if flow_dir is None:
                    continue
                for late in sites[position + 1 :]:
                    if late.method not in _WRITE_METHODS or not late.paths:
                        continue
                    if not _ordered(site.branch, late.branch) or late.loop is not site.loop:
                        continue
                    if self._role(late) == "stage" and _parent(late.paths[0]) == flow_dir:
                        self.emit(
                            "publish-before-data",
                            late.node,
                            "flow spec write after the version commit that "
                            "publishes it; a crash here exposes a committed "
                            "flow with torn spec state (§3.4)",
                        )

    def _role(self, site: Site) -> str | None:
        return flow_role(site.paths[0]) if site.paths else None

    # non-atomic-publish ----------------------------------------------------------

    def _non_atomic_publish(self, sites: list[Site]) -> None:
        renamed_sources = {
            site.paths[0]
            for site in sites
            if site.method == "rename" and len(site.paths) == 2
        }
        for position, site in enumerate(sites):
            if site.method not in _MKDIR_METHODS or not site.paths:
                continue
            target = site.paths[0]
            if _is_dot(target):
                continue  # a staging dir: the dot-entry protocol at work
            if _is_flow_dir(target):
                continue  # version-gated: invisible until version leaves 0
            if target in renamed_sources:
                continue  # renamed into place later: atomic at the rename
            children: set[tuple] = set()
            gated = False
            for late in sites[position + 1 :]:
                if late.method not in _WRITE_METHODS or not late.paths:
                    continue
                if not _ordered(site.branch, late.branch):
                    continue
                if _parent(late.paths[0]) == target:
                    children.add(_basename(late.paths[0]))
                    if _basename_literal(late.paths[0]) == "version":
                        gated = True
            if len(children) >= 2 and not gated:
                self.emit(
                    "non-atomic-publish",
                    site.node,
                    f"directory created under its final name and filled with "
                    f"{len(children)} files; readers can list it half-written "
                    "— assemble under a dot-temp and rename() into place, or "
                    "gate visibility with a version file",
                )

    # commit-outside-chain --------------------------------------------------------

    def _commit_outside_chain(self, queued: list[Site]) -> None:
        if not queued:
            return
        # Chains break only AFTER a link=False entry — links carry across
        # loop iterations and out of branches at runtime, so loop/branch
        # boundaries must not sever a static chain (link=None, a
        # non-constant flag, leniently continues it).
        chains: list[list[Site]] = []
        current: list[Site] = []
        for site in queued:
            current.append(site)
            if site.link is False:
                chains.append(current)
                current = []
        if current:
            chains.append(current)
        staged_parents_by_chain: list[set[tuple]] = []
        for chain in chains:
            parents: set[tuple] = set()
            for site in chain:
                if not site.paths:
                    continue
                if site.method == "write_bytes" and flow_role(site.paths[0]) == "stage":
                    parent = _parent(site.paths[0])
                    if parent is not None:
                        parents.add(parent)
                elif site.method == "mkdir":
                    parents.add(site.paths[0])
            staged_parents_by_chain.append(parents)
        for index, chain in enumerate(chains):
            for site in chain:
                if site.method != "write_bytes" or not site.paths:
                    continue
                if flow_role(site.paths[0]) != "commit":
                    continue
                flow_dir = _parent(site.paths[0])
                if flow_dir is None or flow_dir in staged_parents_by_chain[index]:
                    continue
                if any(
                    flow_dir in staged_parents_by_chain[chain_index]
                    and any(
                        _ordered(site.branch, other.branch)
                        for other in chains[chain_index]
                    )
                    for chain_index in range(len(chains))
                    if chain_index != index
                ):
                    self.emit(
                        "commit-outside-chain",
                        site.node,
                        "batched version write is not chain-linked to the "
                        "spec writes it publishes; a severed spec chain "
                        "cancels the specs but still commits the version, "
                        "exposing a torn flow — prep the version write as "
                        "the tail of the same linked chain",
                    )

    # unrecovered-staging ---------------------------------------------------------

    def _unrecovered_staging(self, sites: list[Site]) -> None:
        seen_parents: set[tuple] = set()
        staging: list[tuple[tuple, ast.AST]] = []
        for site in sites:
            if site.method not in _WRITE_METHODS | _MKDIR_METHODS or not site.paths:
                continue
            if _is_dot(site.paths[0]):
                staging.append((site.paths[0], site.node))
        for path, node in staging:
            parent = _parent(path) or ()
            if parent in seen_parents:
                continue
            seen_parents.add(parent)
            pattern = self.sweep.pattern(parent) if parent else None
            if pattern is not None and pattern.anchored:
                flagged = not _covered(self.declared, pattern)
            else:
                # Holes hide the staging root; only flag when the project
                # declares no recovery path at all (erring toward silence).
                flagged = not self.declared
            if flagged:
                self.emit(
                    "unrecovered-staging",
                    node,
                    "dot-entry staged here has no recovery path: a crash "
                    "before the rename leaks it forever — sweep the staging "
                    "directory at startup and declare it in a module-level "
                    f"{RECOVERS_NAME} tuple",
                )


# -- the judge -------------------------------------------------------------------------


def _judge_interp(sweep, interp: FuncInterp, emit, declared) -> None:
    _FuncJudge(sweep, interp, declared, emit).run()


JUDGE = Judge(
    "yanccrash",
    _SEVERITY,
    _judge_interp,
    prepare=lambda sweep: recovery_declarations(sweep.sources),
)
analyze_yanccrash = JUDGE.analyze
analyze_sources = JUDGE.analyze_sources

__all__ = [
    "JUDGE",
    "KINDS",
    "RECOVERS_NAME",
    "analyze_sources",
    "analyze_yanccrash",
    "recovery_declarations",
]
