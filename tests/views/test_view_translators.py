"""What the slicer and the virtualizer get from the one translation loop.

Both follow their tenant ``flows/`` directories through
:class:`repro.yancfs.translate.FlowFollower`, so one parametrised test per
property covers them: a retired tenant flow pins no watch, and a
restarted translator adopts what was committed while it was down.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.apps import TopologyDaemon
from repro.dataplane import Match, Output, build_linear
from repro.proc import ON_CRASH
from repro.runtime import YancController
from repro.views import BigSwitchVirtualizer, Slicer
from repro.yancfs import YancClient

SSH = Match(dl_type=0x800, nw_proto=6, tp_dst=22)


@dataclass
class Rig:
    ctl: YancController
    make: Callable[[], object]  # a fresh translator instance under the same principal
    tenant: YancClient
    switches: list[str]  # the view's switches a tenant may write flows on
    flow: Callable[[int], tuple[Match, list]]  # the i-th distinct flow that translates

    def hardware(self) -> int:
        return sum(len(switch.table) for switch in self.ctl.net.switches.values())

    def master_flows(self) -> set[tuple[str, str]]:
        master = self.ctl.client()
        return {(switch, name) for switch in master.switches() for name in master.flows(switch)}

    def status(self, switch: str, flow: str) -> str:
        return self.tenant.sc.read_text(self.tenant.flow_path(switch, flow) + "/state.status")


@pytest.fixture(params=["slicer", "virtualizer"])
def rig(request) -> Rig:
    ctl = YancController(build_linear(3)).start()
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ctl.run(1.5)
    if request.param == "slicer":
        return Rig(
            ctl,
            lambda: Slicer(ctl.host.process(name="slicerd"), ctl.sim, view="v", switches=["sw1", "sw2"], headerspace=SSH),
            ctl.client().in_view("v"),
            ["sw1", "sw2"],
            lambda i: (Match(tp_dst=22, tp_src=1000 + i), [Output(1)]),
        )
    return Rig(
        ctl,
        lambda: BigSwitchVirtualizer(ctl.host.process(name="virtd"), ctl.sim, view="v", port_map={1: ("sw1", 2), 2: ("sw3", 2)}),
        ctl.client().in_view("v"),
        ["big"],
        lambda i: (Match(in_port=1, dl_vlan=i), [Output(2)]),
    )


def test_retired_view_flows_drop_their_watch(rig):
    """Regression: both views watched every new tenant flow directory and
    never let go (3 rounds of create-10/delete-10 took the slicer from 6
    watch contexts to 36) — the leak the driver was cured of earlier."""
    proc = rig.make().start()
    ctl, sc = rig.ctl, rig.ctl.host.root_sc
    ctl.run(0.2)
    baseline_flows, baseline_hw = rig.master_flows(), rig.hardware()

    def footprint():
        status = sc.read_text(f"/proc/{proc.pid}/status")
        return len(proc._watch_ctx), len(proc.ino._watches), next(line for line in status.splitlines() if line.startswith("Watches:"))

    idle = footprint()
    names = [(rig.switches[i % len(rig.switches)], f"f{i}") for i in range(10)]
    for _round in range(3):
        for i, (switch, name) in enumerate(names):
            rig.tenant.create_flow(switch, name, *rig.flow(i), priority=9)
        ctl.run(0.5)
        assert rig.hardware() > baseline_hw
        assert footprint()[0] == idle[0] + len(names)
        for switch, name in names:
            rig.tenant.delete_flow(switch, name)
        ctl.run(0.5)
        assert footprint() == idle
        assert rig.master_flows() == baseline_flows and rig.hardware() == baseline_hw
    switch, name = names[0]
    rig.tenant.create_flow(switch, name, *rig.flow(77), priority=9)  # the same name again still reaches hardware
    ctl.run(0.5)
    assert rig.status(switch, name).startswith("installed")
    assert rig.hardware() > baseline_hw


@pytest.mark.parametrize("restart", ["fresh-instance", "supervisor"])
def test_restarted_view_translator_adopts(rig, restart):
    """Regression: a slicer or virtualizer started over a view that already
    held committed flows watched them and never read them, so what a
    tenant committed while it was down never reached hardware."""
    ctl, switch = rig.ctl, rig.switches[0]
    proc = rig.make().start()
    ctl.run(0.2)
    rig.tenant.create_flow(switch, "old", *rig.flow(1), priority=9)
    ctl.run(0.5)
    assert rig.status(switch, "old").startswith("installed")
    with_old = rig.hardware()
    if restart == "fresh-instance":
        proc.stop()
    else:
        ctl.host.procs.supervise(proc, ON_CRASH)
        proc._crash(RuntimeError("injected fault"))  # what the fault-containment boundary does with a raising handler
    # while it is down: one new commit, and a recommit of the old flow with a changed priority
    rig.tenant.create_flow(switch, "new", *rig.flow(2), priority=9)
    rig.tenant.sc.write_text(rig.tenant.flow_path(switch, "old") + "/priority", "11")
    rig.tenant.commit_flow(switch, "old")
    if restart == "fresh-instance":
        ctl.run(0.5)
        assert rig.hardware() == with_old  # nobody is translating
        proc = rig.make().start()
    ctl.run(1.0)
    assert proc.running and proc.restarts == (0 if restart == "fresh-instance" else 1)
    assert rig.status(switch, "old").startswith("installed") and rig.status(switch, "new").startswith("installed")
    assert rig.hardware() > with_old
    priorities = {entry.priority for sw in ctl.net.switches.values() for entry in sw.table.entries() if entry.priority in (9, 11)}
    assert priorities == {9, 11}  # "old" was re-asserted at its recommitted priority, "new" at its own
    assert proc.flows_rejected == 0
