"""The §3.4 commit automaton against a reference kept here: one list of events per flow, replayed.

:class:`~repro.yancfs.commit.CommitAutomaton` keys flows by their
``FlowNode`` and keeps only the state the protocol needs.  The reference
below keeps everything — each flow (a node, whatever names it had) is a
plain list of the spec writes and commits it saw — and derives what is
pending and which commits regressed by replaying that list.  Over random
creates, spec writes by two writers, commits (lower versions included,
retiring everything or only the committer's writes), renames within and
across ``flows/`` directories, ``rmdir`` and re-creation under an old
name, both must agree after every operation.
"""

from __future__ import annotations

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import race, sanitizer
from repro.vfs.errors import FsError
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import mount_yancfs
from repro.yancfs.commit import SPEC_NAMES, CommitAutomaton, is_spec_file, version_of
from repro.yancfs.validate import FLOW_ATTRIBUTE_VALIDATORS

SWITCHES = ("s1", "s2")
WRITERS = ("a", "b")


def _replay(events: list[tuple]) -> tuple[list[tuple[int, str]], list[tuple[int, int]]]:
    """One flow's events -> (pending as (seq, writer), regressions as (committed, written))."""
    committed = 0
    pending: list[tuple[int, str]] = []
    regressions = []
    for event in events:
        if event[0] == "spec":
            _, seq, writer = event
            if committed > 0 and writer not in [w for _, w in pending]:
                pending.append((seq, writer))
        else:
            _, version, committer = event
            if version < committed:
                regressions.append((committed, version))
            elif version > committed:
                committed = version
                pending = [(seq, w) for seq, w in pending if committer is not None and w != committer]
    return pending, regressions


#: Flow slots, the first drawn most: a protocol sequence needs several ops on one flow.
_slot = st.sampled_from([("s1", "f1")] * 4 + [("s1", "f2"), ("s2", "f1"), ("s2", "f2")])
_spec = st.tuples(st.just("spec"), _slot, st.sampled_from(WRITERS))
_commit = st.tuples(st.just("commit"), _slot, st.sampled_from([-2, -1, 0, 1, 1, 2]), st.sampled_from((None, None) + WRITERS))
#: Spec writes and commits drawn three times as often as a rename or an rmdir.
_op = st.one_of(
    st.tuples(st.just("create"), _slot),
    _spec,
    _spec,
    _spec,
    _commit,
    _commit,
    _commit,
    st.tuples(st.just("rename"), _slot, _slot),
    st.tuples(st.just("rmdir"), _slot),
)


def _agree(automaton, nodes, events, regressions):
    """The automaton's pending writes and regressions are the reference's, oldest first."""
    want_pending = []
    want_regressions = {}
    for node in nodes:
        pending, regressed = _replay(events[id(node)])
        if node.dentries:  # a removed flow owes no commit
            want_pending += [(seq, id(node), writer) for seq, writer in pending]
        if regressed:
            want_regressions[id(node)] = regressed
    assert [(id(p.flow), p.writer) for p in automaton.pending()] == [(fid, writer) for _, fid, writer in sorted(want_pending)]
    assert regressions == want_regressions


@settings(max_examples=100, deadline=None)
@given(st.lists(_op, min_size=30, max_size=80))
def test_the_automaton_agrees_with_a_per_flow_replay(ops):
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    for switch in SWITCHES:
        sc.mkdir(f"/net/switches/{switch}")
    automaton = CommitAutomaton()
    nodes = []  # every flow node made, kept alive so an id() names one flow for the whole run
    events: dict[int, list[tuple]] = {}
    regressions: dict[int, list[tuple[int, int]]] = {}
    seq = 0

    def flow(switch, name):
        try:
            return sc.vfs.resolve(sc.ns, sc.cred, f"/net/switches/{switch}/flows/{name}")
        except FsError:
            return None

    for kind, (switch, name), *args in ops:
        base = f"/net/switches/{switch}/flows/{name}"
        node = flow(switch, name)
        if node is None and kind in ("create", "spec", "commit"):  # a write to a missing flow makes it first
            sc.mkdir(base)
            node = flow(switch, name)
            nodes.append(node)
            events[id(node)] = []
        if node is None or kind == "create":
            continue
        if kind == "spec":
            sc.write_text(f"{base}/match.in_port", str(seq % 7 + 1))
            automaton.spec(node, args[0])
            events[id(node)].append(("spec", seq, args[0]))
            seq += 1
        elif kind == "commit":
            held = automaton.committed(node) or 0
            version = max(0, held + args[0])
            sc.write_text(f"{base}/version", str(version))
            committer = args[1]
            retires = None if committer is None else (lambda pend, who=committer: pend.writer == who)
            old = automaton.commit(node, version, retires=retires)
            if old is not None:
                regressions.setdefault(id(node), []).append((old, version))
            events[id(node)].append(("commit", version, committer))
        elif kind == "rename":
            if flow(*args[0]) is None:
                sc.rename(base, "/net/switches/{}/flows/{}".format(*args[0]))
        elif kind == "rmdir":
            sc.rmdir(base)
        _agree(automaton, nodes, events, regressions)
    # The torn commits and regressions are deliberate; the env-installed
    # judges (YANCSAN/YANCRACE) saw them too.
    sanitizer.reset_all()
    race.reset_all()


def test_a_flow_node_that_dies_is_gone():
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    sc.mkdir("/net/switches/s1")
    sc.mkdir("/net/switches/s1/flows/f1")
    automaton = CommitAutomaton()
    automaton.commit(sc.vfs.resolve(sc.ns, sc.cred, "/net/switches/s1/flows/f1"), 1)
    assert len(automaton._flows) == 1
    del sc
    sanitizer.reset_all()  # nothing pins the tree but the tools on the bus
    race.reset_all()
    gc.collect()
    assert len(automaton._flows) == 0 and automaton.pending() == []


def test_a_flow_first_seen_committed_adopts_its_version():
    """A judge installed after the commit still holds the next spec write to it."""
    sc = Syscalls(VirtualFileSystem())
    mount_yancfs(sc)
    sc.mkdir("/net/switches/s1")
    sc.mkdir("/net/switches/s1/flows/f1")
    sc.write_text("/net/switches/s1/flows/f1/version", "4")
    node = sc.vfs.resolve(sc.ns, sc.cred, "/net/switches/s1/flows/f1")
    automaton = CommitAutomaton()
    assert version_of(node) == 4
    assert automaton.spec(node, note="priority")
    assert [(p.version, p.note) for p in automaton.pending()] == [(4, "priority")]
    assert automaton.commit(node, 4) is None and automaton.pending() != []  # no increment, no commit
    assert automaton.commit(node, 3) == 4
    assert automaton.commit(node, 5) is None and automaton.pending() == []


def test_the_spec_files_are_every_flow_attribute_but_the_commit():
    assert SPEC_NAMES == set(FLOW_ATTRIBUTE_VALIDATORS) - {"version"}
    assert {"priority", "timeout", "idle_timeout", "hard_timeout", "cookie"} <= SPEC_NAMES
    assert is_spec_file("match.in_port") and is_spec_file("action.out") and is_spec_file("cookie")
    assert not is_spec_file("version") and not is_spec_file("state.installed")
