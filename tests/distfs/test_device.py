"""Device-local control over the distributed FS (§7.1)."""

import pytest

from repro.dataplane import FLOOD, Match, Output, build_linear
from repro.distfs import DeviceRuntime, FileServer
from repro.runtime import ControllerHost


@pytest.fixture
def devnet():
    net = build_linear(2)
    master = ControllerHost(net.sim)
    server = FileServer(master.root_sc.spawn(), "/net")
    devices = [DeviceRuntime(sw, master, server=server, poll_interval=0.1).start() for sw in net.switches.values()]
    net.run(0.3)
    return net, master, devices


def test_devices_self_register(devnet):
    _net, master, _devices = devnet
    yc = master.client()
    assert yc.switches() == ["sw1", "sw2"]
    assert yc.ports("sw1") == ["port_1", "port_2"]
    assert yc.switch_dpid("sw1") == 1


def test_flow_file_reaches_hardware_without_openflow(devnet):
    net, master, devices = devnet
    yc = master.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    net.run(0.5)
    assert len(net.switches["sw1"].table) == 1
    assert devices[0].flows_applied == 1
    assert master.vfs.counters.get("openflow.tx") == 0  # truly no OpenFlow


def test_end_to_end_traffic(devnet):
    net, master, _devices = devnet
    yc = master.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    net.run(0.5)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    seq = h1.ping(h2.ip)
    net.run(1.0)
    assert h1.reachable(seq)


def test_flow_delete_propagates(devnet):
    net, master, _devices = devnet
    yc = master.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    net.run(0.5)
    yc.delete_flow("sw1", "f")
    net.run(0.5)
    assert len(net.switches["sw1"].table) == 0


def test_recommit_updates_entry(devnet):
    net, master, _devices = devnet
    yc = master.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    net.run(0.5)
    master.root_sc.write_text("/net/switches/sw1/flows/f/priority", "9")
    yc.commit_flow("sw1", "f")
    net.run(0.5)
    assert net.switches["sw1"].table.entries()[0].priority == 9


def test_counters_written_back(devnet):
    net, master, _devices = devnet
    yc = master.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    net.run(0.5)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    h1.ping(h2.ip)
    net.run(1.0)
    assert yc.flow_counters("sw1", "flood")["packet_count"] > 0


def test_port_down_file_honoured(devnet):
    net, master, _devices = devnet
    yc = master.client()
    yc.set_port_down("sw1", 1, True)
    net.run(0.5)
    assert not net.switches["sw1"].ports[1].admin_up


def test_packet_ins_published_into_buffers(devnet):
    net, master, devices = devnet
    yc = master.client()
    yc.subscribe_events("sw1", "app")
    net.run(0.2)
    net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    net.run(0.3)
    events = yc.read_events("sw1", "app")
    assert len(events) == 1
    assert devices[0].events_published == 1


def test_idle_timeout_retires_tree_entry(devnet):
    net, master, _devices = devnet
    yc = master.client()
    yc.create_flow("sw1", "brief", Match(dl_type=0x800), [Output(2)], priority=5, idle_timeout=0.3)
    net.switches["sw1"].start_expiry(0.2)
    net.run(2.0)
    assert yc.flows("sw1") == []
    assert len(net.switches["sw1"].table) == 0


def test_a_hard_timeout_removes_the_flow_dir_and_touches_the_table_no_more(devnet):
    """The switch retired the entry itself: the device removes the directory, and the removal it then polls retires nothing."""
    net, master, devices = devnet
    yc = master.client()
    switch = net.switches["sw1"]
    yc.create_flow("sw1", "brief", Match(dl_type=0x800), [Output(2)], priority=5, hard_timeout=0.3)
    net.run(0.2)
    assert len(switch.table) == 1
    applied, removed = devices[0].flows_applied, []
    switch.table.remove_entry = removed.append
    switch.start_expiry(0.2)
    net.run(2.0)
    assert yc.flows("sw1") == [] and len(switch.table) == 0
    assert removed == [] and devices[0].flows_applied == applied


def test_a_flow_re_created_under_a_timed_out_name_before_the_next_poll_is_installed(devnet):
    """The device forgets a name it retired itself: a new flow under it, at version 1 again, still reaches the table."""
    net, master, devices = devnet
    yc = master.client()
    switch, device = net.switches["sw1"], devices[0]
    yc.create_flow("sw1", "brief", Match(dl_type=0x800), [Output(2)], priority=5, hard_timeout=0.3)
    net.run(0.2)
    retire = device.flow_removed

    def retire_then_re_create(*args):
        retire(*args)
        yc.create_flow("sw1", "brief", Match(dl_type=0x806), [Output(1)], priority=5)

    device.flow_removed = retire_then_re_create
    switch.start_expiry(0.2)
    net.run(1.0)
    assert yc.flows("sw1") == ["brief"]
    assert [entry.match for entry in switch.table.entries()] == [Match(dl_type=0x806)]


def test_stop_ceases_reconciliation(devnet):
    net, master, devices = devnet
    devices[0].stop()
    yc = master.client()
    yc.create_flow("sw1", "late", Match(dl_type=0x800), [Output(2)], priority=5)
    net.run(0.5)
    assert len(net.switches["sw1"].table) == 0
