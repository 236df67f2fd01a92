"""One counter round for every translator: write what moved, in one submission.

The driver's stats replies, a device's flows and ports, a view's tenant
flows and a middlebox's state all mirror into ``counters/`` files through
:func:`~repro.yancfs.translate.mirror_counters`.  A round that moves
nothing writes nothing (for the device: no RPC to the master); a round
that moves k values is one ``io_uring_enter`` carrying k ``open → write →
close`` chains, 3k ring entries, seen through the ``uring_submit`` trace
point.
"""

from __future__ import annotations

import pytest

from repro.dataplane import FLOOD, Match, Output, build_linear
from repro.dataplane.host import HostSim
from repro.dataplane.link import Link
from repro.distfs import DeviceRuntime, FileServer
from repro.middlebox import MiddleboxDriver, NatMiddlebox
from repro.netpkt import MacAddress, ip
from repro.perf import tracepoints
from repro.runtime import ControllerHost, YancController
from repro.sim import Simulator
from repro.views import Slicer
from repro.yancfs import YancClient
from repro.yancfs.translate import mirror_counters

SSH = Match(dl_type=0x800, nw_proto=6, tp_dst=22)


class _Crossings:
    """A trace-point subscriber: the ring entries of each crossing of the rings it is given."""

    def __init__(self, *rings) -> None:
        self.rings, self.done = rings, []

    def on_uring_submit_exit(self, ring, result, exc) -> None:
        if any(ring is mine for mine in self.rings):
            self.done.append([(cqe.op, cqe.ok) for cqe in result])


def _spent(sc, round_) -> tuple[dict[str, int], list[list[tuple[str, bool]]]]:
    """``round_``'s syscalls and ring entries on ``sc``, and its crossings of ``sc``'s ring."""
    crossings = _Crossings(sc.ring)
    counters = sc.meter.counters
    before = counters.snapshot()
    tracepoints.subscribe(crossings)
    try:
        round_()
    finally:
        tracepoints.unsubscribe(crossings)
    return {name: count for name, count in counters.snapshot().delta(before).items() if name.startswith(("syscall.", "uring."))}, crossings.done


def _one_crossing_of(k: int) -> list[list[tuple[str, bool]]]:
    return [[("open", True), ("write", True), ("close", True)] * k]


# -- the routine -------------------------------------------------------------------------


def test_a_round_writes_what_moved_and_forgets_what_failed(yanc_sc):
    yc = YancClient(yanc_sc)
    yc.create_switch("sw1")
    yc.create_flow("sw1", "f", Match(dl_vlan=1), [Output(1)])
    counters = f"{yc.flow_path('sw1', 'f')}/counters"
    written, gone = {}, {}
    rows = lambda values, lost: [(counters, written, values), ("/net/switches/sw1/flows/lost/counters", gone, lost)]  # noqa: E731
    spent, done = _spent(yanc_sc, lambda: mirror_counters(yanc_sc.ring, rows({"packet_count": 3, "byte_count": 180}, {"packet_count": 1})))
    assert spent["syscall.io_uring_enter"] == 1 and spent["uring.sqe"] == 9
    assert done == [[("open", True), ("write", True), ("close", True)] * 2 + [("open", False), ("write", False), ("close", False)]]
    assert yc.flow_counters("sw1", "f") == {"packet_count": 3, "byte_count": 180}
    assert written == {"packet_count": 3, "byte_count": 180} and gone == {}  # a directory that is gone: nothing created, nothing remembered
    assert not yanc_sc.exists("/net/switches/sw1/flows/lost")
    spent, done = _spent(yanc_sc, lambda: mirror_counters(yanc_sc.ring, rows({"packet_count": 3, "byte_count": 180}, {})))
    assert spent == {} and done == []
    spent, done = _spent(yanc_sc, lambda: mirror_counters(yanc_sc.ring, rows({"packet_count": 4, "byte_count": 180}, {})))
    assert spent["syscall.io_uring_enter"] == 1 and done == _one_crossing_of(1)
    assert yc.flow_counters("sw1", "f") == {"packet_count": 4, "byte_count": 180}


# -- a self-controlled device (§7.1) --------------------------------------------------------


@pytest.fixture
def device():
    net = build_linear(1)
    master = ControllerHost(net.sim)
    server = FileServer(master.root_sc.spawn(), "/net")
    dev = DeviceRuntime(net.switches["sw1"], master, server=server, poll_interval=0.1).start()
    master.client().create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    net.run(0.5)
    assert "f" in dev._installed
    return net, master, dev


def test_a_devices_round_that_moves_nothing_costs_no_rpc_and_k_moved_values_cross_once(device):
    net, master, dev = device
    calls = dev.channel.calls
    spent, done = _spent(dev.sc, dev._publish_counters)
    assert spent == {} and done == [] and dev.channel.calls == calls
    dev._installed["f"].packet_count += 2
    dev._installed["f"].byte_count += 120
    net.switches["sw1"].ports[1].rx_packets += 2
    spent, done = _spent(dev.sc, dev._publish_counters)
    assert spent["syscall.io_uring_enter"] == 1 and spent["uring.sqe"] == 9 and done == _one_crossing_of(3)
    yc = master.client()
    assert yc.flow_counters("sw1", "f") == {"packet_count": 2, "byte_count": 120}
    assert yc.port_counters("sw1", 1)["rx_packets"] == 2


def test_a_device_mirrors_its_ports_counters():
    net = build_linear(2)
    master = ControllerHost(net.sim)
    server = FileServer(master.root_sc.spawn(), "/net")
    for switch in net.switches.values():
        DeviceRuntime(switch, master, server=server, poll_interval=0.1).start()
    yc = master.client()
    for switch in yc.switches():
        yc.create_flow(switch, "flood", Match(), [Output(FLOOD)], priority=1)
    net.run(0.5)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    h1.ping(h2.ip)
    net.run(1.0)
    for name, switch in net.switches.items():
        for port_no, port in switch.ports.items():
            assert yc.port_counters(name, port_no) == port.counters()
    assert any(port.rx_packets for port in net.switches["sw1"].ports.values())


# -- a view (§4.2) ---------------------------------------------------------------------------


def test_a_slicers_round_writes_only_the_tenant_counters_that_moved():
    ctl = YancController(build_linear(2)).start()
    ctl.run(1.0)
    slicer = Slicer(ctl.host.process(), ctl.sim, view="ssh", switches=["sw1", "sw2"], headerspace=SSH).start()
    tenant = ctl.client().in_view("ssh")
    tenant.create_flow("sw1", "f", Match(tp_dst=22), [Output(1)], priority=10)
    tenant.create_flow("sw2", "g", Match(tp_dst=22), [Output(1)], priority=10)
    ctl.run(1.5)
    assert len(slicer._installed) == 2
    spent, done = _spent(slicer.sc, slicer.sync_counters)
    assert spent["syscall.io_uring_enter"] == 1 and spent["uring.sqe"] == 2  # it reads both master counters in one crossing
    assert done == [[("readdirplus", True), ("readdirplus", True)]]  # and writes none
    ctl.host.root_sc.write_text("/net/switches/sw1/flows/v_ssh_f/counters/packet_count", "77")
    spent, done = _spent(slicer.sc, slicer.sync_counters)
    assert spent["syscall.io_uring_enter"] == 2 and spent["uring.sqe"] == 2 + 3  # the reads, then the one moved value
    assert done == [[("readdirplus", True), ("readdirplus", True)]] + _one_crossing_of(1)
    assert tenant.flow_counters("sw1", "f")["packet_count"] == 77
    tenant.delete_flow("sw1", "f")
    ctl.run(0.5)
    assert ("sw1", "f") not in slicer._counters  # retired with its flow


# -- a middlebox (§7.2) ----------------------------------------------------------------------


@pytest.fixture
def natnet():
    sim = Simulator()
    host = ControllerHost(sim)
    client = HostSim("client", MacAddress(0x01), ip("192.168.1.10"), sim)
    server = HostSim("server", MacAddress(0x02), ip("8.8.8.8"), sim)
    nat = NatMiddlebox("nat1", "203.0.113.1", sim)
    for a, b in ((client, nat.inside), (nat.outside, server)):
        a.link = b.link = Link(sim, a, b)
    client.arp_table[server.ip] = server.mac
    driver = MiddleboxDriver(host.root_sc.spawn(), sim)
    driver.attach(nat)
    client.send_udp(server.ip, 5555, 53, b"q")
    sim.run_for(1.5)
    return sim, host, nat, driver


def test_a_middleboxs_round_writes_what_moved_and_an_entry_moved_away_fails_its_own_chain(natnet):
    sim, host, nat, driver = natnet
    (entry,) = nat.entries()
    state = "/net/middleboxes/nat1/state"
    assert host.root_sc.read_text(f"{state}/{entry.conn_id}/packets") == str(entry.packets)
    spent, done = _spent(driver.sc, driver._sync_counters)
    assert spent == {} and done == []
    nat.dropped += 1
    entry.packets += 1
    spent, done = _spent(driver.sc, driver._sync_counters)
    assert spent["syscall.io_uring_enter"] == 1 and spent["uring.sqe"] == 6 and done == _one_crossing_of(2)
    assert host.root_sc.read_text("/net/middleboxes/nat1/counters/dropped") == str(nat.dropped)
    assert host.root_sc.read_text(f"{state}/{entry.conn_id}/packets") == str(entry.packets)
    host.root_sc.mkdir("/net/middleboxes/parked")
    host.root_sc.rename(f"{state}/{entry.conn_id}", f"/net/middleboxes/parked/{entry.conn_id}")  # the driver has not seen the event yet
    entry.packets += 1
    nat.translated += 1
    spent, done = _spent(driver.sc, driver._sync_counters)
    assert done == [[("open", True), ("write", True), ("close", True), ("open", False), ("write", False), ("close", False)]]
    assert not host.root_sc.exists(f"{state}/{entry.conn_id}")  # nothing created
    assert driver._counters[nat.name, entry.conn_id] == {}  # forgotten, so a later round retries
    sim.run_for(0.1)
    assert nat.entries() == []  # the move out reached the device


def test_a_middlebox_driver_does_not_re_read_an_entry_for_its_own_counter_write(natnet):
    """``packets`` is the round's write, not a file an entry needs: its close event wakes the driver but reads nothing."""
    sim, _host, nat, driver = natnet
    (entry,) = nat.entries()
    entry.packets += 1
    _spent(driver.sc, driver._sync_counters)
    spent, _done = _spent(driver.sc, lambda: sim.run_for(0.1))
    assert spent.get("syscall.epoll_wait", 0) >= 1  # the round's close event woke it
    assert spent.get("syscall.readdirplus", 0) == 0
