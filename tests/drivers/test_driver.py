"""The OpenFlow driver: FS <-> switch synchronization."""

import pytest

from repro.dataplane import FLOOD, Match, Output, build_linear
from repro.drivers import OF10_VERSION, OF13_VERSION
from repro.runtime import YancController
from repro.vfs import EventMask
from repro.vfs.notify import IN_ALL_EVENTS


@pytest.fixture
def ctl():
    return YancController(build_linear(2)).start()


def test_switch_dirs_created_on_attach(ctl):
    yc = ctl.client()
    assert yc.switches() == ["sw1", "sw2"]
    assert yc.switch_dpid("sw1") == 1


def test_ports_mirrored_with_attributes(ctl):
    yc = ctl.client()
    assert yc.ports("sw1") == ["port_1", "port_2"]
    sc = ctl.host.root_sc
    assert sc.read_text("/net/switches/sw1/ports/port_1/name").strip() == "sw1-eth1"
    assert sc.read_text("/net/switches/sw1/ports/port_1/config.port_status").strip() == "up"


def test_committed_flow_reaches_switch(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=7)
    ctl.run(0.2)
    entries = ctl.net.switches["sw1"].table.entries()
    assert len(entries) == 1
    assert entries[0].priority == 7


def test_uncommitted_flow_stays_off_hardware(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], commit=False)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 0
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1


def test_same_version_not_resent(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    sent_before = ctl.drivers[0].flow_mods_sent
    # touch an attribute without committing
    ctl.host.root_sc.write_text("/net/switches/sw1/flows/f/priority", "9")
    ctl.run(0.2)
    assert ctl.drivers[0].flow_mods_sent == sent_before
    # ... until the commit lands, at which point the update goes out
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    assert ctl.drivers[0].flow_mods_sent > sent_before
    assert ctl.net.switches["sw1"].table.entries()[0].priority == 9


def test_recommit_after_edit_replaces_entry(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=5)
    ctl.run(0.2)
    ctl.host.root_sc.write_text("/net/switches/sw1/flows/f/priority", "9")
    yc.commit_flow("sw1", "f")
    ctl.run(0.2)
    entries = ctl.net.switches["sw1"].table.entries()
    assert len(entries) == 1
    assert entries[0].priority == 9


def test_flow_dir_delete_removes_hardware_entry(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    yc.delete_flow("sw1", "f")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 0


def test_idle_timeout_removes_fs_dir(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], idle_timeout=1.0)
    ctl.run(0.3)
    assert yc.flows("sw1") == ["f"]
    ctl.run(3.0)  # expiry sweep fires flow-removed; driver prunes the dir
    assert yc.flows("sw1") == []
    assert len(ctl.net.switches["sw1"].table) == 0


def test_port_down_file_drives_port_mod(ctl):
    yc = ctl.client()
    yc.set_port_down("sw1", 1, True)
    ctl.run(0.2)
    assert not ctl.net.switches["sw1"].ports[1].admin_up
    yc.set_port_down("sw1", 1, False)
    ctl.run(0.2)
    assert ctl.net.switches["sw1"].ports[1].admin_up


def test_counters_sync_into_fs(ctl):
    yc = ctl.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    ctl.run(0.2)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.ping(h2.ip)
    ctl.run(2.5)  # traffic + stats poll
    counters = yc.flow_counters("sw1", "flood")
    assert counters["packet_count"] > 0
    port_counters = yc.port_counters("sw1", 1)
    assert port_counters["tx_packets"] > 0


# -- the stats sweep writes what moved, and probes nothing ---------------------------------


def _ring_crossings(ctl) -> int:
    return ctl.drivers[0].sc.meter.counters.get("syscall.io_uring_enter")


def _watch(ctl, path: str):
    """An inotify instance on ``path`` and a drain that returns ``(mask, name)`` pairs."""
    sc = ctl.host.root_sc
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, path, IN_ALL_EVENTS)
    return lambda: [(event.mask, event.name) for event in sc.inotify_read(ino)]


@pytest.fixture
def swept(ctl):
    """Flood flows on both switches, one ping, and sweeps enough for every counter to be in the tree."""
    yc = ctl.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    ctl.run(0.2)
    ctl.net.hosts["h1"].ping(ctl.net.hosts["h2"].ip)
    ctl.run(2.5)
    assert yc.flow_counters("sw1", "flood")["packet_count"] > 0
    return ctl


def test_a_sweep_with_nothing_new_crosses_nothing_and_wakes_nobody(swept):
    events = _watch(swept, "/net/switches/sw1/flows/flood/counters")
    probes = swept.drivers[0].sc.meter.counters.get("syscall.access")
    before = _ring_crossings(swept)
    swept.run(3.0)  # three polls of two switches, no traffic
    assert _ring_crossings(swept) == before
    assert swept.drivers[0].sc.meter.counters.get("syscall.access") == probes  # the write chain's ENOENT is the probe
    assert events() == []


def test_a_counter_that_moved_is_written(swept):
    yc = swept.client()
    seen = yc.flow_counters("sw1", "flood")["packet_count"]
    events = _watch(swept, "/net/switches/sw1/flows/flood/counters")
    before = _ring_crossings(swept)
    swept.net.hosts["h1"].ping(swept.net.hosts["h2"].ip)
    swept.run(1.5)
    entry = swept.net.switches["sw1"].table.entries()[0]
    assert yc.flow_counters("sw1", "flood") == {"packet_count": entry.packet_count, "byte_count": entry.byte_count}
    assert entry.packet_count > seen
    assert {name for mask, name in events() if mask & EventMask.IN_MODIFY} == {"packet_count", "byte_count"}
    assert _ring_crossings(swept) > before


def test_a_flow_recreated_under_its_old_name_has_its_counters_written_again(swept):
    yc = swept.client()
    yc.create_flow("sw1", "idle", Match(dl_type=0x88B5), [Output(2)], priority=9)  # never hit: its counters stay 0
    swept.run(1.5)
    quiet = _ring_crossings(swept)
    swept.run(1.0)
    assert _ring_crossings(swept) == quiet
    yc.delete_flow("sw1", "idle")
    swept.run(0.1)
    yc.create_flow("sw1", "idle", Match(dl_type=0x88B5), [Output(2)], priority=9)
    swept.run(0.1)
    events = _watch(swept, "/net/switches/sw1/flows/idle/counters")
    swept.run(1.0)
    # The same values as before the removal, and still written: what the
    # driver remembered about the old directory went with it.
    assert {name for mask, name in events() if mask & EventMask.IN_CLOSE_WRITE} == {"packet_count", "byte_count"}
    assert _ring_crossings(swept) == quiet + 1


def test_a_vanished_counters_directory_creates_nothing_and_poisons_no_neighbour(ctl):
    yc, sc = ctl.client(), ctl.host.root_sc
    yc.create_flow("sw1", "gone", Match(dl_type=0x800), [Output(2)], priority=5)
    yc.create_flow("sw1", "kept", Match(dl_type=0x806), [Output(2)], priority=5)
    ctl.run(0.2)
    sc.rmdir("/net/switches/sw1/flows/gone/counters")
    events = _watch(ctl, "/net/switches/sw1/flows/kept/counters")
    ctl.run(1.0)  # the first sweep
    assert "counters" not in sc.listdir("/net/switches/sw1/flows/gone")
    assert {name for mask, name in events() if mask & EventMask.IN_CLOSE_WRITE} == {"packet_count", "byte_count"}
    assert len(ctl.net.switches["sw1"].table) == 2 and ctl.drivers[0].crashes == 0
    before = _ring_crossings(ctl)
    ctl.run(1.0)  # only the failed writes are tried again
    assert _ring_crossings(ctl) == before + 1
    assert events() == [] and "counters" not in sc.listdir("/net/switches/sw1/flows/gone")


def test_packet_out_spool_consumed(ctl):
    yc = ctl.client()
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, MacAddress
    raw = Ethernet(dst=ctl.net.hosts["h1"].mac, src=MacAddress(0x42), eth_type=ETH_TYPE_IPV4, payload=b"x" * 30).pack()
    yc.packet_out("sw1", [2], raw, tag="test")
    ctl.run(0.2)
    sc = ctl.host.root_sc
    assert sc.listdir("/net/switches/sw1/packet_out") == []
    assert ctl.net.hosts["h1"].rx_frames == 1


def test_unroutable_spool_entry_discarded(ctl):
    sc = ctl.host.root_sc
    sc.write_bytes("/net/switches/sw1/packet_out/nonsense.tag.1", b"data")
    ctl.run(0.2)
    assert sc.listdir("/net/switches/sw1/packet_out") == []


def test_packet_in_fans_out_to_all_buffers(ctl):
    yc = ctl.client()
    yc.subscribe_events("sw1", "alpha")
    yc.subscribe_events("sw1", "beta")
    ctl.run(0.1)
    ctl.net.hosts["h1"].send_udp("10.0.0.99", 1, 2, b"miss")
    ctl.run(0.2)
    assert len(yc.read_events("sw1", "alpha")) == 1
    assert len(yc.read_events("sw1", "beta")) == 1


def test_event_buffer_backpressure(ctl):
    from repro.drivers import MAX_PENDING_EVENTS

    yc = ctl.client()
    yc.subscribe_events("sw1", "slow")
    ctl.run(0.1)
    host = ctl.net.hosts["h1"]
    for index in range(MAX_PENDING_EVENTS + 20):
        host.send_udp("10.0.0.99", 1, index % 65536, bytes([index % 256]))
    ctl.run(2.0)
    binding = ctl.drivers[0].bindings[1]
    pending = len(ctl.host.root_sc.listdir("/net/switches/sw1/events/slow"))
    assert pending <= MAX_PENDING_EVENTS
    assert binding.dropped_events > 0
    # "who is dropping events" is answerable from the shell
    assert f"events.dropped.{ctl.drivers[0].proc_name} {binding.dropped_events}\n" in ctl.host.root_sc.read_text("/proc/counters")


@pytest.mark.parametrize("feeder", ["slicer", "virtualizer", "device"])
def test_event_buffer_backpressure_behind_every_translator(feeder):
    """The one §3.5 bound, one level up and across the remote mount: a
    tenant app that never drains keeps exactly MAX_PENDING_EVENTS events
    (the slicer's tenant buffer used to grow without bound, the device
    dropped without counting), a draining neighbour loses nothing, and the
    loss is visible per process in /proc/counters."""
    from repro.distfs import DeviceRuntime, FileServer
    from repro.drivers import MAX_PENDING_EVENTS
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Tcp
    from repro.netpkt.packet import build_frame
    from repro.runtime import ControllerHost
    from repro.views import BigSwitchVirtualizer, Slicer

    if feeder == "device":
        net = build_linear(2)
        host = ControllerHost(net.sim)
        server = FileServer(host.root_sc.spawn(), "/net")
        translator, _other = [DeviceRuntime(sw, host, server=server, poll_interval=0.1).start() for sw in net.switches.values()]
        buffers, switch = host.client(), "sw1"
    else:
        ctl = YancController(build_linear(3)).start()
        net, host = ctl.net, ctl.host
        if feeder == "slicer":
            ssh = Match(dl_type=0x800, nw_proto=6, tp_dst=22)
            translator = Slicer(host.process(), ctl.sim, view="v", switches=["sw1"], headerspace=ssh).start()
            switch = "sw1"
        else:
            translator = BigSwitchVirtualizer(host.process(), ctl.sim, view="v", port_map={1: ("sw1", 2), 2: ("sw3", 2)}).start()
            switch = "big"
        buffers = ctl.client().in_view("v")
    net.run(0.3)
    buffers.subscribe_events(switch, "slow")
    buffers.subscribe_events(switch, "fast")
    net.run(0.3)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    total, drained = MAX_PENDING_EVENTS + 60, 0
    for start in range(0, total, 50):
        for index in range(start, min(start + 50, total)):
            h1.send_raw(
                build_frame(
                    Ethernet(dst=h2.mac, src=h1.mac, eth_type=ETH_TYPE_IPV4),
                    IPv4(src=h1.ip, dst=h2.ip, proto=6),
                    Tcp(src_port=1000 + index, dst_port=22),
                )
            )
        net.run(0.5)
        drained += len(buffers.read_events(switch, "fast"))
    assert drained == total
    assert len(host.root_sc.listdir(buffers.events_path(switch, "slow"))) == MAX_PENDING_EVENTS
    assert translator.events_dropped == 60
    assert f"events.dropped.{translator.proc_name} 60\n" in host.root_sc.read_text("/proc/counters")


def test_live_upgrade_of10_to_of13(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "keep", Match(dl_type=0x800), [Output(2)], priority=4)
    ctl.run(0.2)
    of13 = ctl.add_driver(version=OF13_VERSION)
    sw1 = ctl.net.switches["sw1"]
    ctl.drivers[0].detach_switch(sw1.dpid)
    of13.attach_switch(sw1)
    ctl.run(0.2)
    binding = of13.bindings[sw1.dpid]
    assert binding.version == OF13_VERSION
    assert binding.fs_name == "sw1"  # adopted, not recreated
    assert len(sw1.table) == 1  # re-asserted from the tree
    # new commits flow through the new driver
    yc.create_flow("sw1", "after", Match(dl_type=0x806), [Output(2)], priority=4)
    ctl.run(0.2)
    assert len(sw1.table) == 2


def test_switch_rename_followed_by_driver(ctl):
    yc = ctl.client()
    sc = ctl.host.root_sc
    sc.rename("/net/switches/sw1", "/net/switches/leftmost")
    ctl.run(0.2)
    yc.create_flow("leftmost", "f", Match(dl_type=0x800), [Output(2)], priority=3)
    ctl.run(0.2)
    assert len(ctl.net.switches["sw1"].table) == 1
    assert ctl.drivers[0].bindings[1].fs_name == "leftmost"


def test_detach_leaves_fs_state(ctl):
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)])
    ctl.run(0.2)
    ctl.drivers[0].detach_switch(1)
    assert yc.flows("sw1") == ["f"]  # tree survives the session


def test_driver_stop_detaches_all(ctl):
    ctl.drivers[0].stop()
    assert ctl.drivers[0].bindings == {}


def test_invalid_version_rejected():
    from repro.drivers import OpenFlowDriver
    from repro.sim import Simulator
    from repro.vfs import Syscalls, VirtualFileSystem

    vfs = VirtualFileSystem()
    with pytest.raises(ValueError):
        OpenFlowDriver(Syscalls(vfs), Simulator(), version=0x02)


@pytest.mark.parametrize("transport", ["file", "ring", "libyanc"])
def test_retired_flows_drop_their_watch(transport):
    """Regression: the driver watched every new flow directory and never
    let go — each deleted flow pinned a dead FlowNode, a watch context and
    an Inotify watch (five rounds of 20 left 0 flows and 100 watches)."""
    from repro.libyanc import LibYanc

    ctl = YancController(build_linear(1)).start()
    driver, yc, sc = ctl.drivers[0], ctl.client(), ctl.host.root_sc
    lib = LibYanc(ctl.host.fs)
    entries = [(f"f{i}", Match(dl_vlan=i), [Output(1)]) for i in range(20)]

    def footprint():
        status = sc.read_text(f"/proc/{driver.pid}/status")
        return len(driver._watch_ctx), len(driver.ino._watches), next(line for line in status.splitlines() if line.startswith("Watches:"))

    idle = footprint()
    for _round in range(5):
        if transport == "file":
            for name, match, actions in entries:
                yc.create_flow("sw1", name, match, actions)
        elif transport == "ring":
            assert yc.create_flows_batched("sw1", entries) == 20
        else:
            for name, match, actions in entries:
                lib.stage_flow("sw1", name, match, actions)
            lib.flush()
        ctl.run(0.2)
        assert len(ctl.net.switches["sw1"].table) == 20
        assert footprint()[0] == idle[0] + 20
        for name, _match, _actions in entries:
            lib.delete_flow("sw1", name) if transport == "libyanc" else yc.delete_flow("sw1", name)
        ctl.run(0.2)
        assert len(ctl.net.switches["sw1"].table) == 0
        assert footprint() == idle
    yc.create_flow("sw1", "f0", Match(dl_vlan=7), [Output(1)])  # the same name again still reaches hardware
    ctl.run(0.2)
    assert [entry.match for entry in ctl.net.switches["sw1"].table.entries()] == [Match(dl_vlan=7)]
