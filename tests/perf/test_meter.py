"""SyscallMeter semantics, pause nesting, and the measured §8.1 remedies.

The "before/after" tests at the bottom pin the syscall savings of the
yancperf-guided fixes (scandir batching in the shell toolbox, EAFP peer
relinking) with live :class:`~repro.perf.meter.SyscallMeter` counts, so a
regression back to the storm shape fails loudly.
"""

import pytest

from repro import Simulator, YancController, build_linear
from repro.apps import RouterDaemon, TopologyDaemon
from repro.apps.router import NO_BUFFER
from repro.dataplane import Match, Output
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Udp
from repro.netpkt.packet import build_frame
from repro.perf import CostModel, PerfCounters, SyscallMeter
from repro.proc import Process, ProcessTable
from repro.shell import Shell
from repro.vfs.errors import FileNotFound
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import PacketInEvent, YancClient


# -- SyscallMeter ------------------------------------------------------------


def test_enter_counts_name_total_and_ctxsw():
    meter = SyscallMeter()
    meter.enter("stat")
    meter.enter("stat")
    meter.enter("open")
    assert meter.counters.get("syscall.stat") == 2
    assert meter.counters.get("syscall.open") == 1
    assert meter.syscalls == 3
    assert meter.context_switches == 3 * meter.model.ctxsw_per_syscall


def test_enter_bills_payload_bytes():
    meter = SyscallMeter()
    meter.enter("read", nbytes=100)
    meter.enter("read")  # no payload, no bytes billed
    assert meter.counters.get("bytes.copied") == 100


def test_shared_memory_model_bills_no_context_switches():
    meter = SyscallMeter(model=CostModel(name="shm", ctxsw_per_syscall=0))
    meter.enter("read")
    assert meter.syscalls == 1
    assert meter.context_switches == 0


def test_pause_suspends_metering():
    meter = SyscallMeter()
    meter.enter("stat")
    with meter.pause():
        meter.enter("stat")
        meter.enter("open")
    meter.enter("stat")
    assert meter.syscalls == 2
    assert meter.counters.get("syscall.open") == 0


def test_pause_nests_and_resumes_only_at_outer_exit():
    meter = SyscallMeter()
    with meter.pause():
        with meter.pause():
            meter.enter("stat")
        meter.enter("stat")  # inner exited, outer still active
    meter.enter("stat")
    assert meter.syscalls == 1


def test_reset_zeroes_everything():
    meter = SyscallMeter()
    meter.enter("stat", nbytes=10)
    meter.reset()
    assert meter.syscalls == 0
    assert meter.counters.names() == []


# -- the facade bills one enter() per syscall --------------------------------


def test_facade_bills_one_syscall_per_call(sc: Syscalls):
    sc.mkdir("/d")
    assert sc.meter.counters.get("syscall.mkdir") == 1
    before = sc.meter.syscalls
    sc.write_text("/d/f", "x")  # open + write + close
    assert sc.meter.syscalls - before == 3
    before = sc.meter.syscalls
    sc.scandir("/d")
    assert sc.meter.syscalls - before == 1
    assert sc.meter.counters.get("syscall.scandir") == 1


def test_scandir_replaces_listdir_plus_lstat(sc: Syscalls):
    sc.mkdir("/d")
    for name in "abcd":
        sc.write_text(f"/d/{name}", name)

    before = sc.meter.syscalls
    names = sc.listdir("/d")
    stats = {name: sc.lstat(f"/d/{name}") for name in names}
    storm = sc.meter.syscalls - before

    before = sc.meter.syscalls
    batched = dict(sc.scandir("/d"))
    assert sc.meter.syscalls - before == 1
    assert storm == 1 + len(names)

    assert set(batched) == set(stats)
    for name, st in stats.items():
        assert batched[name].ino == st.ino
        assert batched[name].ftype is st.ftype


def test_readdirplus_replaces_listdir_plus_open_read_close(sc: Syscalls):
    sc.mkdir("/d")
    for name in "abcd":
        sc.write_text(f"/d/{name}", name * 3)
    sc.mkdir("/d/sub")

    before = sc.meter.syscalls
    contents = {name: sc.read_bytes(f"/d/{name}") for name in sc.listdir("/d") if name != "sub"}
    storm = sc.meter.syscalls - before

    before, copied = sc.meter.syscalls, sc.meter.counters.get("bytes.copied")
    batched = sc.readdirplus("/d")
    assert sc.meter.syscalls - before == 1
    assert sc.meter.counters.get("syscall.readdirplus") == 1
    assert sc.meter.counters.get("bytes.copied") - copied == 12  # the payload is billed, as read(2) bills it
    assert storm == 1 + 3 * len(contents)
    assert batched == [*contents.items(), ("sub", None)]

    with pytest.raises(FileNotFound):
        sc.readdirplus("/missing")
    assert sc.meter.counters.get("syscall.readdirplus") == 2  # a refused crossing is still a crossing


def test_object_readers_cost_one_crossing_per_object(yc: YancClient):
    """The read pipeline's pins: a flow, a counters directory and a packet-in are one syscall each."""
    meter = yc.sc.meter
    yc.create_switch("s1")
    yc.create_flow("s1", "f", Match(in_port=1, dl_type=0x800, tp_dst=80, nw_proto=6), [Output(2), Output(3)], priority=9, idle_timeout=5)
    yc.subscribe_events("s1", "app")
    events = 4
    for seq in range(events):
        yc.write_packet_in("s1", "app", seq, in_port=1, reason="no_match", buffer_id=0, total_len=1, data=b"x")

    def cost(call, *args, **kwargs) -> int:
        before = meter.syscalls
        call(*args, **kwargs)
        return meter.syscalls - before

    assert cost(yc.read_flow, "s1", "f") == 1
    assert cost(yc.flow_counters, "s1", "f") == 1
    assert cost(yc.read_events, "s1", "app", consume=False) == 1 + events  # getdents, then a read per event
    assert cost(yc.read_events, "s1", "app") == 1 + 2 * events  # ... and an rmdir per event
    assert cost(yc.read_events, "s1", "app") == 1


def test_a_control_loop_step_is_one_ring_submission():
    """The write pipeline's pins on the live loop: a routed path and a beacon round cross once, over a ring set up once per process."""
    net = build_linear(3)
    ctl = YancController(net).start()
    topod = TopologyDaemon(ctl.host.process(meter=SyscallMeter()), ctl.sim).start()
    router = RouterDaemon(ctl.host.process(meter=SyscallMeter()), ctl.sim, record_hosts=False).start()
    ctl.run(1.0)
    assert router.topology() == ctl.expected_topology()

    def cost(process, step) -> dict[str, int]:
        before = process.sc.meter.counters.snapshot()
        step()
        return {name[len("syscall.") :]: count for name, count in process.sc.meter.counters.snapshot().delta(before).items() if name.startswith("syscall.")}

    def packet_in(src_port: int) -> PacketInEvent:
        raw = build_frame(Ethernet(dst=h3.mac, src=h1.mac, eth_type=ETH_TYPE_IPV4), IPv4(h1.ip, h3.ip, 17), Udp(src_port, 9, payload=b"x"))
        return PacketInEvent(switch="sw1", seq=src_port, in_port=net.host_ports()["h1"][1], reason="no_match", buffer_id=NO_BUFFER, total_len=len(raw), data=raw)

    h1, h3 = net.hosts["h1"], net.hosts["h3"]
    router.host_locations[h3.mac] = net.host_ports()["h3"]
    packet_out = {"open": 1, "write": 1, "close": 1}
    # Three hops, three flow directories of a dozen files each: one crossing, then the packet release.
    assert cost(router, lambda: router.handle_packet_in(packet_in(1))) == {"io_uring_setup": 1, "io_uring_enter": 1, **packet_out, "total": 5}
    assert cost(router, lambda: router.handle_packet_in(packet_in(2))) == {"io_uring_enter": 1, **packet_out, "total": 4}
    assert router.paths_installed == 2 and all(len(ctl.client().flows(switch)) == 3 for switch in ("sw1", "sw2", "sw3"))  # 2 paths + lldp_punt

    ports = sum(len(switch.ports) for switch in net.switches.values())
    sent = topod.beacons_sent
    # One getdents for the switch list (the ports are cached), one crossing for the round.
    assert cost(topod, topod.send_beacons) == {"getdents": 1, "io_uring_enter": 1, "total": 2}
    assert topod.beacons_sent - sent == ports == 7
    assert topod.sc.meter.counters.get("syscall.io_uring_setup") == 1  # the rounds before this one used the same ring
    topod._ring = topod.sc.io_uring_setup(entries=8)  # room for two beacons: a round is one crossing per full ring
    assert cost(topod, topod.send_beacons)["io_uring_enter"] == -(-ports // (8 // 3)) == 4
    assert topod.beacons_sent - sent == 2 * ports


# -- dcache counters publish as deltas ---------------------------------------


def test_dcache_publish_reports_hits_as_deltas(sc: Syscalls):
    sc.makedirs("/net/switches/sw1")
    sc.stat("/net/switches/sw1")
    sc.stat("/net/switches/sw1")  # second look-up is served by the memo

    counters = PerfCounters()
    sc.ns.dcache.publish(counters)
    hits = counters.get("dcache.path_hits")
    assert hits > 0

    # No new activity: a second publish adds nothing (delta, not absolute).
    sc.ns.dcache.publish(counters)
    assert counters.get("dcache.path_hits") == hits


# -- the epoll-dispatch counter ----------------------------------------------


class _Recorder(Process):
    proc_name = "recorder"

    def __init__(self, proc, sim, path):
        super().__init__(proc, sim)
        self.seen = []

    def on_start(self):
        self.watch("/spool", EventMask.IN_CREATE, ("dir",))

    def on_event(self, ctx, event):
        self.seen.append(event.name)


def test_dispatch_counter_counts_epoll_wakeups():
    sim = Simulator()
    vfs = VirtualFileSystem(clock=lambda: sim.now)
    sc = Syscalls(vfs)
    table = ProcessTable(sc, sim)
    sc.mkdir("/spool")
    app = _Recorder(table.spawn(), sim, "/spool").start()

    assert table.counters.get("proc.dispatches") == 0
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    assert app.seen == ["one"]
    dispatches = table.counters.get("proc.dispatches")
    assert dispatches >= 1

    sc.write_bytes("/spool/two", b"x")
    sim.run()
    assert table.counters.get("proc.dispatches") > dispatches


# -- before/after: the yancperf-guided fixes, measured -----------------------


def test_ls_long_syscalls_no_longer_scale_with_entries(sc: Syscalls):
    sc.mkdir("/d")
    entries = 6
    for index in range(entries):
        sc.write_text(f"/d/f{index}", "x")
    shell = Shell(sc)

    before = sc.meter.syscalls
    out = shell.run("ls -l /d")
    used = sc.meter.syscalls - before

    assert len(out.splitlines()) == entries
    # Fixed shape: stat(dir) + one scandir.  The old readdir-then-stat
    # storm paid stat + listdir + one lstat per entry.
    assert used == 2
    assert used < 2 + entries


def test_rm_recursive_drops_the_per_entry_lstat(sc: Syscalls):
    sc.mkdir("/d")
    entries = 5
    for index in range(entries):
        sc.write_text(f"/d/f{index}", "x")
    shell = Shell(sc)

    before = sc.meter.syscalls
    shell.run("rm -r /d")
    used = sc.meter.syscalls - before

    assert not sc.exists("/d")
    # lstat(root) + scandir + N unlink + rmdir; the old shape added one
    # lstat per entry on top (2*N + 3 total).
    assert used == entries + 3
    assert used < 2 * entries + 3


def test_set_peer_relinks_in_two_syscalls():
    ctl = YancController(build_linear(2, hosts_per_switch=1)).start()
    yc = YancClient(ctl.host.root_sc.spawn(meter=SyscallMeter()))
    meter = yc.sc.meter

    before = meter.syscalls
    yc.set_peer("sw1", 2, "sw2", 1)  # the link exists: unlink + symlink
    assert meter.syscalls - before == 2

    yc.sc.unlink(f"{yc.port_path('sw1', 2)}/peer")
    before = meter.syscalls
    yc.set_peer("sw1", 2, "sw2", 1)  # absent: failed unlink + symlink
    assert meter.syscalls - before == 2
    assert yc.peer_of("sw1", 2) == yc.port_path("sw2", 1)
