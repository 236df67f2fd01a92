"""yancperf findings: syscall-amplification anti-patterns, judged per loop.

The five kinds, in claim order (a loop claimed by a more specific kind is
not re-reported by a more general one):

* ``readdir-then-stat`` — a ``stat``/``lstat`` of a per-entry path inside
  a loop over ``listdir()`` output; one ``scandir()`` batches names and
  metadata into a single syscall;
* ``chatty-rpc`` — a distfs ``channel.call`` round trip inside an
  unbounded loop; per-item RPCs should batch into one call;
* ``linear-table-scan`` — a packet/flow hot-path function iterating a
  full match-entry table or schema directory; the ROADMAP's indexed flow
  tables remove the scan;
* ``path-reresolve`` — the same abstract path resolved two or more times
  within one loop iteration (``exists`` + ``unlink``, read-modify-write);
  resolve once and hold the fd or dcache-pinned handle;
* ``syscall-in-loop`` — an unbounded loop whose body issues at least
  :data:`STORM_THRESHOLD` path-resolving syscalls per iteration
  (callee costs rolled up) with no held fd; the §8.1 N+1 storm shape.

All findings are warnings: they rank work, they do not assert bugs.
Suppressions are ``# yancperf: disable=<kind>`` comments (the yanclint
spelling works too — rule ids are unique across tools).
"""

from __future__ import annotations

import re
from repro.analysis.core import Judge, Severity
from repro.analysis.yancpath.interp import FuncDecl, FuncInterp, loop_variant
from repro.analysis.yancperf.model import PATH_RESOLVING, CostIndex, WEIGHTS

KINDS = (
    "syscall-in-loop",
    "path-reresolve",
    "linear-table-scan",
    "chatty-rpc",
    "readdir-then-stat",
)

_SEVERITY = {kind: Severity.WARNING for kind in KINDS}

#: Minimum estimated path-resolving syscalls per iteration to call a storm.
STORM_THRESHOLD = 3

#: Function names that put a loop on the packet/flow hot path.
_HOT_NAME = re.compile(r"lookup|packet|frame|ingest|forward|route|classify|inject|recv")

_STAT_METHODS = frozenset({"stat", "lstat"})

_SCAN_KINDS = frozenset({"entries", "listdir", "walk"})


def _prepare(sweep) -> tuple[CostIndex, set[int]]:
    cost_index = CostIndex(sweep)
    return cost_index, _hot_decls(cost_index)


def _hot_decls(cost_index: CostIndex) -> set[int]:
    """``id(decl.node)`` of hot-named functions and all their callees."""
    edges: dict[int, list[FuncDecl]] = {}
    for decl in cost_index.decls:
        edges[id(decl.node)] = [c.callee for c in cost_index.interp_of(decl).calls]
    hot: set[int] = set()
    frontier = [d for d in cost_index.decls if _HOT_NAME.search(d.name)]
    while frontier:
        decl = frontier.pop()
        if id(decl.node) in hot:
            continue
        hot.add(id(decl.node))
        frontier.extend(edges.get(id(decl.node), ()))
    return hot


def _judge_interp(sweep, interp: FuncInterp, emit, state: tuple[CostIndex, set[int]]) -> None:
    cost_index, hot = state
    decl = interp.decl
    is_hot = decl is not None and id(decl.node) in hot
    claimed_sites: set[int] = set()  # id(site.node) consumed by a specific kind
    claimed_loops: set[int] = set()  # id(loop.node) already reported

    # 1. readdir-then-stat: the scandir-shaped batching opportunity.
    for site in interp.sites:
        if (
            site.method in _STAT_METHODS
            and site.paths
            and site.loop is not None
            and site.loop.kind == "listdir"
            and loop_variant(site.paths[0])
        ):
            emit(
                "readdir-then-stat",
                site.node,
                f"{site.method}() per directory entry after listdir(); "
                "one scandir() batches names and metadata into a single syscall",
            )
            claimed_sites.add(id(site.node))
            claimed_loops.add(id(site.loop.node))

    # 2. chatty-rpc: one network round trip per item.
    for rpc in interp.rpc_sites:
        if rpc.loop is not None and not rpc.loop.bounded:
            emit(
                "chatty-rpc",
                rpc.node,
                "distfs RPC round trip per loop iteration; "
                "batch the items into one call",
            )
            claimed_loops.add(id(rpc.loop.node))

    # 3. linear-table-scan: full-table iteration on a packet/flow hot path.
    if is_hot:
        for loop in interp.loops:
            if loop.bounded or id(loop.node) in claimed_loops:
                continue
            if loop.kind in _SCAN_KINDS:
                what = (
                    "match-entry table"
                    if loop.kind == "entries"
                    else "schema directory"
                )
                emit(
                    "linear-table-scan",
                    loop.node,
                    f"hot path {decl.name}() scans the full {what} per "
                    "lookup; an indexed table avoids the linear scan "
                    "(ROADMAP: indexed flow tables)",
                )
                claimed_loops.add(id(loop.node))

    # 4. path-reresolve: the same abstract path resolved repeatedly in one
    #    iteration (exists+unlink, read-modify-write on one file, ...).  A
    #    queued ring entry costs no crossing of its own, so a chain that
    #    names its path twice (open ... unlink) is not the round trip.
    groups: dict[tuple[int, tuple], list] = {}
    for site in interp.sites:
        if site.loop is None or site.queued or id(site.node) in claimed_sites:
            continue
        if site.method not in PATH_RESOLVING:
            continue
        for tokens in site.paths:
            if not any(t[0] == "text" for t in tokens):
                continue  # a pure hole carries no identity to re-resolve
            groups.setdefault((id(site.loop.node), tokens), []).append(site)
    for (_loop_id, tokens), sites in groups.items():
        distinct = {id(s.node): s for s in sites}
        if len(distinct) < 2:
            continue
        ordered = sorted(
            distinct.values(), key=lambda s: (s.node.lineno, s.node.col_offset)
        )
        pattern = sweep.pattern(tokens)
        rendered = pattern.render() if pattern is not None else "<path>"
        emit(
            "path-reresolve",
            ordered[1].node,
            f"path {rendered!r} is resolved {len(distinct)} times per loop "
            "iteration; resolve once and hold the fd or dcache-pinned handle",
        )
        for site in ordered:
            claimed_sites.add(id(site.node))
        claimed_loops.add(_loop_id)

    # 5. syscall-in-loop: the general N+1 storm, for loops nothing more
    #    specific has already explained.
    for loop in interp.loops:
        if loop.bounded or id(loop.node) in claimed_loops:
            continue
        weight = cost_index.per_iteration_weight(interp, loop)
        if weight >= STORM_THRESHOLD:
            emit(
                "syscall-in-loop",
                loop.node,
                f"loop issues ~{weight} metered syscalls per iteration "
                "(callee costs included) with no held fd; batch, cache, "
                "or hoist the resolution (§8.1 syscall tax)",
            )
            claimed_loops.add(id(loop.node))


JUDGE = Judge("yancperf", _SEVERITY, _judge_interp, prepare=_prepare)
analyze_yancperf = JUDGE.analyze
analyze_sources = JUDGE.analyze_sources

__all__ = ["JUDGE", "KINDS", "STORM_THRESHOLD", "analyze_sources", "analyze_yancperf"]
