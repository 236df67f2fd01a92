"""The §3.4 commit protocol, stated once: spec files are staging, a flow reaches hardware when ``version`` grows, versions only grow.

:class:`CommitAutomaton` is a pure state machine (no I/O, no trace-point
subscription).  Per flow: ``uncommitted → committed(v) → dirty(v,
writers) → committed(v')``, plus ``gone``.  A flow is its
:class:`~repro.yancfs.schema.FlowNode`, held weakly: a rename keeps its
state, a collected node leaves none, a node with no name left (``rmdir``)
owes no commit.  yancsan, yancrace and yanccrash's replay each own one
and keep only their judgement; ``writer``/``retires`` carry yancrace's
happens-before rule (a commit retires only what its committer covers).
The module is also the one definition of a flow's spec files
(:func:`is_spec_file`) and of its inode-level version (:func:`version_of`).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple

from repro.vfs.inode import FileInode
from repro.yancfs.validate import FLOW_ATTRIBUTE_VALIDATORS

if TYPE_CHECKING:
    from repro.yancfs.schema import FlowNode

COMMIT_FILE = "version"
#: Every flow file but the commit and the driver's ``state.*`` acks stages spec state.
SPEC_NAMES = frozenset(FLOW_ATTRIBUTE_VALIDATORS) - {COMMIT_FILE}
SPEC_PREFIXES = ("match.", "action.")


def is_spec_file(name: str) -> bool:
    """Is ``name``, a file directly in a flow directory, staging for the next commit?"""
    return name in SPEC_NAMES or name.startswith(SPEC_PREFIXES)


def version_of(flow: "FlowNode") -> int:
    """The version ``flow``'s inode holds now; 0 when absent, empty or unparsable."""
    node = flow._children.get(COMMIT_FILE)  # the raw child map: no lookup hook runs (a remote one is an RPC)
    if not isinstance(node, FileInode):
        return 0
    try:
        return int(node.read_all().decode(errors="replace").strip() or "0", 0)
    except ValueError:
        return 0


class Pending(NamedTuple):
    """A spec write to a committed flow awaiting its version increment."""

    flow: "FlowNode"
    writer: Hashable
    version: int  # the committed version the write dirtied
    note: object  # what the judge reports it with


@dataclass
class _Flow:
    version: int
    writers: dict = field(default_factory=dict)  # writer -> (sequence number, version, note) of its first pending write


class CommitAutomaton:
    """Per-flow §3.4 state; a judge makes a new one to forget everything."""

    def __init__(self) -> None:
        self._flows: weakref.WeakKeyDictionary[FlowNode, _Flow] = weakref.WeakKeyDictionary()
        self._seq = itertools.count()

    def committed(self, flow: "FlowNode") -> int | None:
        """The highest version seen committed for ``flow``; None before the automaton saw it."""
        state = self._flows.get(flow)
        return None if state is None else state.version

    def spec(self, flow: "FlowNode", writer: Hashable = None, note: object = None) -> bool:
        """A write to a spec file; True when it became ``writer``'s pending write (its first since a commit).

        A flow first seen here adopts the version its inode holds (it may
        have been committed before the judge looked).
        """
        state = self._flows.setdefault(flow, _Flow(0))
        state.version = max(state.version, version_of(flow))
        if state.version == 0 or writer in state.writers:
            return False
        state.writers[writer] = (next(self._seq), state.version, note)
        return True

    def commit(self, flow: "FlowNode", version: int, retires: Callable[[Pending], bool] | None = None) -> int | None:
        """``version`` was written: below the committed version it is a regression (returns that version, changes nothing);
        above it, a commit that retires every pending write ``retires`` accepts (all, when None); equal, nothing."""
        state = self._flows.setdefault(flow, _Flow(0))
        if version < state.version:
            return state.version
        if version > state.version:
            state.version = version
            for writer, (_, dirtied, note) in list(state.writers.items()):
                if retires is None or retires(Pending(flow, writer, dirtied, note)):
                    del state.writers[writer]
        return None

    def withdraw(self, flow: "FlowNode", writer: Hashable = None) -> None:
        """``writer``'s spec write never became durable (close-time validation rolled it back)."""
        state = self._flows.get(flow)
        if state is not None:
            state.writers.pop(writer, None)

    def pending(self, flow: "FlowNode | None" = None) -> list[Pending]:
        """The writes awaiting a commit (to ``flow`` alone, when given), oldest first; a removed flow owes none."""
        states = [(flow, self._flows.get(flow))] if flow is not None else list(self._flows.items())
        found = [
            (seq, Pending(node, writer, dirtied, note))
            for node, state in states
            if state is not None and node.dentries
            for writer, (seq, dirtied, note) in state.writers.items()
        ]
        return [entry for _, entry in sorted(found, key=lambda pair: pair[0])]
