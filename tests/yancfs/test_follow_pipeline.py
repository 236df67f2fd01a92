"""The read side of §3.4: a wakeup's run of ``flows/`` events is one ring take, and parity is the contract.

A translator follows every switch's ``flows/`` with one consume rule
(:func:`~repro.yancfs.translate.follow_flows`): a flow that appeared is
a linked ``inotify_add_watch → readdirplus`` pair, a ``version`` write
one ``readdirplus``, the whole run one submission; a removal first takes
what is queued.  What the follower did before — an event at a time, a
watch and a ``read_flow`` per new flow — stays here as the reference:
over random creates (committed or staged), commits, deletes,
re-creates under an old name and renames into, out of and between
``flows/`` directories, on two switches, with
and without an ``IN_Q_OVERFLOW`` in the middle, both must hand the same
``on_commit``/``on_remove`` sequence to the translator and end with the
same ``versions`` and the same watches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Match, Output
from repro.proc import ProcessTable
from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, commit_version, mount_yancfs
from repro.yancfs.translate import DIR_MASK, FILE_MASK, FlowFollower, follow_flows

# -- the reference: the follower as it was, an event at a time, a system call per step --------


class LoopFollower(FlowFollower):
    """Every new flow is a direct ``inotify_add_watch`` and a ``read_flow``, every ``version`` write a ``read_flow``."""

    def attach(self):
        self.proc.watch(f"{self.yc.switch_path(self.switch)}/flows", DIR_MASK, ("flows", self))
        names = self.yc.flows(self.switch)
        for name in [name for name in self.versions if name not in set(names)]:
            self._forget(name)
        for name in names:
            self._track(name)

    def on_event(self, ctx, event):
        if len(ctx) == 3:
            if event.name == "version":
                self._sync(ctx[2])
        elif event.name is None:
            return
        elif event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            self._track(event.name)
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            self._forget(event.name)

    def _track(self, name):
        self.proc.watch(self.yc.flow_path(self.switch, name), FILE_MASK, ("flows", self, name))
        self._sync(name)  # a moved-in or adopted flow may already be committed

    def _sync(self, name):
        seen = self.versions.setdefault(name, 0)
        try:
            spec = self.yc.read_flow(self.switch, name)
        except FsError:
            return
        if spec.version > seen:
            self.versions[name] = spec.version
            self.on_commit(name, spec)


class _Translator(Process):
    """Follows ``s1`` and ``s2``, logging what reaches the translation; an overflow re-attaches both followers."""

    run_kinds = ("flows",)
    follower = FlowFollower

    def __init__(self, proc, sim, queue: int | None):
        super().__init__(proc, sim)
        self.log: list[tuple] = []
        self.yc = YancClient(self.sc)
        self.start()
        if queue is not None:
            self.ino.max_queued_events = queue
        self.followers = [self.follower(self, self.yc, switch, self._commit(switch), self._remove(switch)) for switch in _SWITCHES]
        for follower in self.followers:
            follower.attach()

    def _commit(self, switch):
        return lambda name, spec: self.log.append(("commit", switch, name, spec))

    def _remove(self, switch):
        return lambda name: self.log.append(("remove", switch, name))

    def on_run(self, kind, run):
        follow_flows(self.ring, run)

    def on_overflow(self):
        self.log.append(("overflow",))
        for follower in self.followers:
            follower.attach()

    def watched(self) -> list[tuple[str, str]]:
        return sorted((ctx[1].switch, ctx[2] if len(ctx) == 3 else "") for ctx in self._watch_ctx.values())


class _LoopTranslator(_Translator):
    run_kinds = ()
    follower = LoopFollower

    def on_event(self, ctx, event):
        ctx[1].on_event(ctx, event)


# -- the property ------------------------------------------------------------------------------

_SWITCHES = ("s1", "s2")
_NAMES = ("a", "b", "c")
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["create", "create", "stage", "commit", "commit", "delete", "out", "in", "move", "commit_parked", "wake"]),
        st.sampled_from(_SWITCHES),
        st.sampled_from(_NAMES),
    ),
    min_size=8,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_OPS, st.sampled_from([None, 3]))
def test_a_run_of_flows_events_hands_over_what_an_event_at_a_time_did(ops, queue):
    sim = Simulator()
    sc = Syscalls(VirtualFileSystem(clock=lambda: sim.now))
    mount_yancfs(sc)
    table = ProcessTable(sc, sim)
    writer = YancClient(sc)
    for switch in _SWITCHES:
        writer.create_switch(switch)
    writer.create_flow("s1", "a", Match(dl_vlan=1), [Output(1)], priority=1)  # there before attach: adopted
    translators = (_Translator(table.spawn(), sim, queue), _LoopTranslator(table.spawn(), sim, queue))
    parked: list[str] = []
    for seq, (op, switch, name) in enumerate(ops, start=2):
        path = writer.flow_path(switch, name)
        there = sc.exists(path)
        if op == "wake":
            sim.run_until(sim.now + 0.01)
        elif op in ("create", "stage") and not there:
            writer.create_flow(switch, name, Match(dl_vlan=seq), [Output(1)], priority=seq, commit=op == "create")
        elif op == "commit" and there:
            writer.commit_flow(switch, name)
        elif op == "delete" and there:
            writer.delete_flow(switch, name)
        elif op == "out" and there:
            parked.append(f"/net/parked{seq}")
            sc.rename(path, parked[-1])
        elif op == "in" and parked and not there:
            sc.rename(parked.pop(0), path)
        elif op == "move" and there:
            other = writer.flow_path(_SWITCHES[switch == "s1"], name)
            if not sc.exists(other):
                sc.rename(path, other)
        elif op == "commit_parked" and parked:
            commit_version(sc, parked[0])  # a flow moved out: its events must not reach the translation
    sim.run_until(sim.now + 0.01)
    batched, looped = translators
    assert batched.log == looped.log
    assert [follower.versions for follower in batched.followers] == [follower.versions for follower in looped.followers]
    assert batched.watched() == looped.watched()
