"""An inotify queue that overflows loses no work (§3.4, §3.5).

A process that falls behind gets one ``IN_Q_OVERFLOW`` record in place of
the events its queue had no room for.  Each consumer answers it by
re-reading what those events would have announced: the driver reconciles
its ``flows/`` directories and takes its whole spool, a packet-in app
drains every buffer.  A committed flow still reaches hardware and a
spooled packet still goes out; the recovery is counted in
``/proc/counters``.
"""

from __future__ import annotations

from repro.apps.base import PacketInApp
from repro.dataplane import Match, Output, build_linear
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, MacAddress
from repro.runtime import YancController

#: Queue room for a handful of events: any burst below overflows it.
SMALL_QUEUE = 8
BURST = 20


def _recoveries(ctl: YancController) -> int:
    for line in ctl.host.root_sc.read_text("/proc/counters").splitlines():
        name, _, value = line.partition(" ")
        if name == "proc.overflow_recoveries":
            return int(value)
    return 0


def test_every_flow_of_a_batch_that_overflowed_the_driver_reaches_hardware():
    ctl = YancController(build_linear(2)).start()
    ctl.drivers[0].ino.max_queued_events = SMALL_QUEUE
    entries = [(f"f{index}", Match(dl_type=0x800, tp_dst=1000 + index, nw_proto=17), [Output(2)]) for index in range(BURST)]
    assert ctl.client().create_flows_batched("sw1", entries) == BURST
    ctl.run(2.5)
    assert len(ctl.net.switches["sw1"].table) == BURST
    assert _recoveries(ctl) >= 1


def test_a_flow_adopted_after_an_overflow_is_followed_to_its_next_commit():
    ctl = YancController(build_linear(2)).start()
    ctl.drivers[0].ino.max_queued_events = SMALL_QUEUE
    yc = ctl.client()
    yc.create_flows_batched("sw1", [(f"f{index}", Match(dl_type=0x800, tp_dst=1000 + index, nw_proto=17), [Output(2)]) for index in range(BURST)])
    ctl.run(0.5)
    ctl.drivers[0].ino.max_queued_events = 1024
    ctl.host.root_sc.write_text(f"{yc.flow_path('sw1', f'f{BURST - 1}')}/priority", "7")
    yc.commit_flow("sw1", f"f{BURST - 1}")
    ctl.run(0.5)
    assert 7 in {entry.priority for entry in ctl.net.switches["sw1"].table.entries()}


def test_every_packet_out_spooled_past_an_overflow_goes_out():
    ctl = YancController(build_linear(2)).start()
    ctl.drivers[0].ino.max_queued_events = SMALL_QUEUE
    yc, h1 = ctl.client(), ctl.net.hosts["h1"]
    raw = Ethernet(dst=h1.mac, src=MacAddress(0x42), eth_type=ETH_TYPE_IPV4, payload=b"x" * 30).pack()
    for _ in range(BURST):
        yc.packet_out("sw1", [2], raw, tag="burst")
    ctl.run(0.5)
    assert ctl.host.root_sc.listdir("/net/switches/sw1/packet_out") == []
    assert h1.rx_frames == BURST
    assert _recoveries(ctl) >= 1


class _Collector(PacketInApp):
    app_name = "collector"

    def __init__(self, proc, sim):
        super().__init__(proc, sim)
        self.seqs: list[int] = []

    def handle_packet_in(self, event):
        self.seqs.append(event.seq)


def test_every_packet_in_published_past_an_overflow_is_handled():
    ctl = YancController(build_linear(2)).start()
    app = _Collector(ctl.host.process(), ctl.sim).start()
    ctl.run(0.1)
    app.ino.max_queued_events = SMALL_QUEUE
    writer = ctl.client(name="writer")
    for seq in range(BURST):
        writer.write_packet_in("sw1", app.app_name, 100 + seq, in_port=1, reason="action", buffer_id=0, total_len=1, data=b"x")
    ctl.run(0.1)
    assert app.seqs == [100 + seq for seq in range(BURST)]
    assert ctl.host.root_sc.listdir(app.yc.events_path("sw1", app.app_name)) == []
    assert _recoveries(ctl) == 1
