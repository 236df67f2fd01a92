"""The application base classes (event loop, subscriptions)."""

import pytest

from repro.apps.base import PacketInApp, YancApp
from repro.dataplane import Match, build_linear
from repro.runtime import YancController
from repro.vfs.notify import EventMask
from repro.views import Slicer
from repro.yancfs.client import PacketInEvent


class CollectingApp(PacketInApp):
    app_name = "collector"

    def __init__(self, sc, sim, **kwargs):
        super().__init__(sc, sim, **kwargs)
        self.packets: list[PacketInEvent] = []
        self.switches_added: list[str] = []
        self.switches_removed: list[str] = []

    def handle_packet_in(self, event):
        self.packets.append(event)

    def on_switch_added(self, switch):
        self.switches_added.append(switch)

    def on_switch_removed(self, switch):
        self.switches_removed.append(switch)


@pytest.fixture
def rig():
    ctl = YancController(build_linear(2)).start()
    app = CollectingApp(ctl.host.process(), ctl.sim).start()
    ctl.run(0.1)
    return ctl, app


def test_subscribes_existing_switches(rig):
    ctl, app = rig
    assert sorted(app.switches_added) == ["sw1", "sw2"]
    sc = ctl.host.root_sc
    assert "collector" in sc.listdir("/net/switches/sw1/events")


def test_receives_punts(rig):
    ctl, app = rig
    ctl.net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    ctl.run(0.3)
    assert len(app.packets) == 1
    assert app.packets[0].switch == "sw1"


def test_one_packet_in_wakes_each_subscribers_reader_once(rig):
    """Regression: the maildir publish fires IN_CREATE(.pi_N) and then
    IN_MOVED_TO(pi_N), and both made every subscriber drain its buffer."""
    ctl, app = rig
    view = Slicer(ctl.host.process(name="slicerd"), ctl.sim, view="v", switches=["sw1"], headerspace=Match(tp_dst=22)).start()
    ctl.run(0.1)

    def getdents() -> list[int]:
        return [proc.sc.meter.counters.get("syscall.getdents") for proc in (app, view)]

    before = getdents()
    ctl.net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    ctl.run(0.3)
    assert [after - count for after, count in zip(getdents(), before)] == [1, 1]
    assert len(app.packets) == 1
    assert ctl.host.root_sc.listdir(view.yc.events_path("sw1", view.app_name)) == []  # the view drained (and filtered) it too


def test_a_directly_created_event_still_wakes_the_reader(rig):
    """IN_CREATE stays in the buffer mask for writers that do not rename into place."""
    ctl, app = rig
    sc, path = ctl.host.root_sc, app.yc.events_path("sw1", app.app_name) + "/pi_900"
    sc.mkdir(path)
    for field, text in (("in_port", "1"), ("reason", "no_match"), ("buffer_id", "0"), ("total_len", "1"), ("data", "x")):
        sc.write_text(f"{path}/{field}", text)
    ctl.run(0.1)
    assert [(pkt.seq, pkt.data) for pkt in app.packets] == [(900, b"x")]


def test_subscribes_late_switches(rig):
    ctl, app = rig
    late = ctl.net.add_switch("late")
    ctl.drivers[0].attach_switch(late)
    ctl.run(0.3)
    assert "sw3" in app.switches_added
    assert "collector" in ctl.host.root_sc.listdir("/net/switches/sw3/events")


def test_notices_switch_removal(rig):
    ctl, app = rig
    ctl.drivers[0].detach_switch(2)
    ctl.host.root_sc.rmdir("/net/switches/sw2")
    ctl.run(0.2)
    assert app.switches_removed == ["sw2"]


def test_stop_is_quiescent(rig):
    ctl, app = rig
    app.stop()
    ctl.net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    ctl.run(0.3)
    assert app.packets == []
    assert not app.running


def test_watch_on_missing_path_returns_false(rig):
    ctl, app = rig
    assert app.watch("/does/not/exist", EventMask.IN_CREATE, ("ctx",)) is False
    assert app.watch("/net/switches", EventMask.IN_CREATE, ("ctx",)) is True


def test_periodic_task_stops_with_app(rig):
    ctl, _app = rig
    ticks = []
    worker = YancApp(ctl.host.process(), ctl.sim, name="ticker")
    worker.start()
    worker.every(0.1, lambda: ticks.append(ctl.sim.now))
    ctl.run(0.35)
    worker.stop()
    count = len(ticks)
    ctl.run(1.0)
    assert len(ticks) == count


def test_name_override():
    ctl = YancController(build_linear(1)).start()
    app = CollectingApp(ctl.host.process(), ctl.sim, name="custom").start()
    ctl.run(0.1)
    assert app.app_name == "custom"
    assert "custom" in ctl.host.root_sc.listdir("/net/switches/sw1/events")
