"""The translation loop's flow follower: inotify and polling are one reconciliation."""

from repro.dataplane import Match, Output
from repro.proc.process import Process
from repro.yancfs import YancClient
from repro.yancfs.translate import FlowFollower


class _Translator(Process):
    """The least a translator is: a process that hands its follower's events back to it."""

    def on_event(self, ctx, event):
        ctx[0].on_event(ctx, event)


def _logging_follower(proc, yc, log):
    return FlowFollower(proc, yc, "sw1", lambda name, spec: log.append(("commit", name, spec.version, spec.priority)), lambda name: log.append(("remove", name)))


def test_inotify_and_poll_hand_over_the_same_commits_and_removals(yanc_sc, sim):
    yc = YancClient(yanc_sc)
    yc.create_switch("sw1")
    yc.create_flow("sw1", "before", Match(dl_vlan=1), [Output(1)], priority=5)  # already there at attach: adopted
    watched, polled = [], []
    proc = _Translator(yanc_sc, sim).start()
    by_notify = _logging_follower(proc, yc, watched)
    by_poll = _logging_follower(proc, yc, polled)
    by_notify.attach()

    def settle():
        sim.run()
        by_poll.poll()

    settle()
    yc.create_flow("sw1", "a", Match(dl_vlan=2), [Output(1)], priority=6)
    yc.create_flow("sw1", "staged", Match(dl_vlan=3), [Output(1)], commit=False)
    settle()
    yanc_sc.write_text(yc.flow_path("sw1", "a") + "/priority", "7")  # a spec file touched without a commit
    settle()
    yc.commit_flow("sw1", "a")
    yc.commit_flow("sw1", "staged")
    settle()
    yc.delete_flow("sw1", "a")
    yc.delete_flow("sw1", "before")
    settle()
    assert sorted(watched) == sorted(polled)
    assert [entry for entry in watched if entry[1] == "a"] == [("commit", "a", 1, 6), ("commit", "a", 2, 7), ("remove", "a")]
    assert ("commit", "before", 1, 5) in watched and ("commit", "staged", 1, 32768) in watched
    assert by_notify.versions == by_poll.versions == {"staged": 1}
    assert sorted(ctx[1:] for ctx in proc._watch_ctx.values()) == [(), ("staged",)]  # flows/ and the one flow still there
    by_notify.detach()
    assert proc._watch_ctx == {} and by_notify.versions == {}
