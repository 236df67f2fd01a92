"""A work ratchet: the interpreter calls behind one fan-out and one flow write.

``syscalls_per_op`` cannot see what a crossing does; these counts can.
Each operation runs on a fresh :class:`~repro.runtime.ControllerHost`
(after one warm-up of the same shape) under ``sys.setprofile``, counting
Python-level calls.  The bounds are 1.1x the counts measured when a ring
entry stopped re-walking its object's path, re-entering the notify hub for
unwatched inodes and reading the clock through three frames (1304 and
941 calls); the code before that read 1755 and 1405, so a regression of
that size fails here before the end-to-end benchmark sees it.  The ring
entries are pinned exactly: an object's chain is its per-syscall steps
plus the directory's ``open(O_DIRECTORY)`` and ``close``.

A beacon fanned out to the topology daemon, the router and arpd, each
buffer carrying its app's declaration, is one object, not three: the
probe is a listing and a ``getxattr`` per buffer, and only topod's
buffer admits LLDP.  Its bound is 1.1x the 634 calls it made when the
declarations came in; before them the fan-out wrote all three objects
in 60 ring entries and 1,408 calls.

The same beacon as one of 16 that reach the buffers at one instant (an
LLDP round, as the driver's flush hands it over) costs 441 calls per
packet-in (``BURST_CALLS``, bound 1.1x): the probe and both submissions
are paid once per burst.  The 3-app fan-out above is the burst path with
one packet-in; the bound it had when a direct write of the three objects
was measured (1304) still holds with the probe included (1,426 calls).

A datagram across five switches over installed flows is the hardware
path: after one warm-up each switch answers it from its exact-match cache,
so ``signature_key_of`` (one call per wildcard shape probed) never runs
and the flow key is hashed once, when the first switch parses the frame.
Its bound is 1.1x the 171 calls it made when the cache came in
(``FORWARD_CALLS``); classifying at every hop made 226, 15 of them
``signature_key_of``.

The operator's ``find /net/switches -name packet_count`` over a leaf-spine
fabric holding 50 flows per switch reads each tree level in one ring
submission: the operand's ``stat`` and five ``io_uring_enter`` where the
per-directory walk made one ``scandir`` crossing per directory (686).  Its
bound is 1.1x the 26,747 calls it made when the levels and the tuple
``Stat`` came in (``FIND_CALLS``); the per-directory walk made 39,791,
four per entry of them a generator resume and ``fnmatch``'s frames.

A stats round is one instant: every switch's flow and port replies land
together and the driver writes the counters that moved in one submission,
one ``open → write → close`` chain per file.  N switches' replies are one
``io_uring_enter``; a round wider than the ring splits by its room (a
crossing carries the whole chains that fit), and a round that moves
nothing crosses nothing.

Trace-point subscribers (the runtime tools a tier-1 axis installs) are
set aside while counting: the ratchet prices the program, not its
observers.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import ceil

import pytest

from repro.apps import ArpResponder, RouterDaemon, TopologyDaemon
from repro.dataplane import LOCAL, FlowEntry, Match, Network, Output, build_clos, build_linear
from repro.netpkt.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, ETH_TYPE_LLDP
from repro.perf import tracepoints
from repro.runtime import ControllerHost, YancController
from repro.shell import Shell
from repro.vfs.cred import ROOT
from repro.yancfs.client import YancClient, flow_spec_files, packet_in_files, write_objects_batched
from repro.yancfs.translate import fan_out_packet_ins

_APPS = ["a", "b", "c"]
_MATCH = Match(in_port=1, dl_type=0x0800, nw_proto=6, tp_src=1, tp_dst=80, dl_vlan=2)


@contextmanager
def _unobserved():
    """No trace-point subscriber for the duration (each is put back after)."""
    held = list(tracepoints.subscribers)
    for subscriber in held:
        tracepoints.unsubscribe(subscriber)
    try:
        yield
    finally:
        for subscriber in held:
            tracepoints.subscribe(subscriber)


def _calls(operation, by_name: dict[str, int] | None = None) -> int:
    """Python-level calls ``operation()`` makes, its own included (and per
    function name into ``by_name``, when given)."""
    calls = 0

    def profile(frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1
            if by_name is not None:
                name = frame.f_code.co_name
                by_name[name] = by_name.get(name, 0) + 1

    with _unobserved():
        sys.setprofile(profile)
        try:
            operation()
        finally:
            sys.setprofile(None)
    return calls


@pytest.fixture
def yc() -> YancClient:
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    for app in _APPS:
        yc.subscribe_events("s1", app)
    return yc


def _fan_out(yc: YancClient, seq: int) -> int:
    return fan_out_packet_ins(yc.sc, yc, [("s1", seq, _APPS, packet_in_files(1, "no_match", seq, 4, b"ping"))])[0]


def _flow(yc: YancClient, name: str) -> int:
    files = flow_spec_files(_MATCH, [Output(1), Output(2)], priority=5, idle_timeout=1, hard_timeout=2)
    assert len(files) + 1 == 12  # the spec files and the version
    return write_objects_batched(yc.sc, [(yc.flow_path("s1", name), files, "version")])


@pytest.mark.parametrize(
    "operation, objects, per_object, probes, bound",
    [
        (_fan_out, 3, 1 + 3 * 5 + 1, 2, 1.1 * 1304),  # a listing and a getxattr per buffer; mkdir, five files, rename
        (_flow, 1, 1 + 3 * 12, 0, 1.1 * 941),  # mkdir, eleven spec files and the version
    ],
    ids=["packet_in_fan_out_to_3_apps", "flow_of_12_files"],
)
def test_the_work_behind_an_object_write_stays_ratcheted(yc, operation, objects, per_object, probes, bound):
    assert operation(yc, 0) == objects  # warm-up: the ring, the memo, the first paths
    sqe = yc.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: operation(yc, 1))
    assert yc.sc.meter.counters.get("uring.sqe") - sqe == objects * (probes + per_object + 2)
    assert calls <= bound, f"{calls} Python calls, bound {bound:.0f}"


_BEACON = TopologyDaemon._beacon("s2", 3)


@pytest.fixture
def declared() -> YancClient:
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    for app in (TopologyDaemon, RouterDaemon, ArpResponder):
        yc.subscribe_events("s1", app.app_name, app.dl_types)
    return yc


def _beacon_fan_out(yc: YancClient, seq: int) -> int:
    return fan_out_packet_ins(yc.sc, yc, [("s1", seq, None, packet_in_files(1, "action", 0, len(_BEACON), _BEACON))])[0]


def test_a_beacon_fan_out_writes_only_the_buffer_that_declared_lldp(declared):
    assert _beacon_fan_out(declared, 0) == 1  # warm-up
    sqe = declared.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: _beacon_fan_out(declared, 1))
    assert declared.sc.meter.counters.get("uring.sqe") - sqe == 3 * 2 + (1 + 3 * 5 + 1) + 2 == 25
    assert declared.sc.listdir(declared.events_path("s1", "topod")) == ["pi_0", "pi_1"]
    assert declared.sc.listdir(declared.events_path("s1", "router")) == declared.sc.listdir(declared.events_path("s1", "arpd")) == []
    assert calls <= 1.1 * 634, f"{calls} Python calls, bound {1.1 * 634:.0f}"


#: Python calls per packet-in when 16 beacons reach the declared buffers as one burst (the driver's flush of an LLDP round)
BURST_CALLS = 441


def test_a_burst_of_beacons_costs_less_per_packet_in_than_a_single_beacon(declared):
    """One probe of the three buffers and one publish of the 16 objects topod's buffer admits: the probe and the submissions are paid once per burst."""
    assert _beacon_fan_out(declared, 0) == 1  # warm-up
    sqe = declared.sc.meter.counters.get("uring.sqe")
    burst = lambda: fan_out_packet_ins(declared.sc, declared, [("s1", 100 + k, None, packet_in_files(1 + k % 4, "action", 0, len(_BEACON), _BEACON)) for k in range(16)])  # noqa: E731
    calls = _calls(burst)
    assert declared.sc.meter.counters.get("uring.sqe") - sqe == 3 * 2 + 16 * ((1 + 3 * 5 + 1) + 2)
    assert len(declared.sc.listdir(declared.events_path("s1", "topod"))) == 1 + 16
    assert calls / 16 <= 1.1 * BURST_CALLS < 634, f"{calls / 16:.1f} Python calls per packet-in, bound {1.1 * BURST_CALLS:.0f}"


FORWARD_CALLS = 171


def _entry(match: Match, port: int, priority: int) -> FlowEntry:
    return FlowEntry(match=match, actions=[Output(port)], priority=priority)


def _five_switch_path():
    """h1 - s1 - s2 - s3 - s4 - s5 - h2, every hop forwarding on installed flows.

    Each table holds the three shapes a reactive router's table holds on a
    fat tree: the LLDP punt above, the exact UDP 12-tuple of the datagram,
    and an L2 host-pair entry (here for ARP) at the same priority, so the
    classifier probes all three shapes per hop.
    """
    net = Network()
    switches = [net.add_switch() for _ in range(5)]
    toward = [net.link_switches(a, b) for a, b in zip(switches, switches[1:])]
    h1, h2 = net.add_host(), net.add_host()
    first, last = net.attach_host(h1, switches[0]), net.attach_host(h2, switches[-1])
    egress = [right.port_no for right, _left in toward] + [last.port_no]
    ingress = [first.port_no] + [left.port_no for _right, left in toward]
    pair = dict(dl_src=h1.mac, dl_dst=h2.mac)
    udp = dict(pair, dl_type=ETH_TYPE_IPV4, nw_src=f"{h1.ip}/32", nw_dst=f"{h2.ip}/32", nw_proto=17, nw_tos=0, tp_src=4000, tp_dst=5000)
    for switch, out_port, in_port in zip(switches, egress, ingress):
        switch.table.install(_entry(Match(dl_type=ETH_TYPE_LLDP), 0xFFFD, 0xFFFF))
        switch.table.install(_entry(Match(in_port=in_port, **udp), out_port, 0x8000))
        switch.table.install(_entry(Match(in_port=in_port, dl_type=ETH_TYPE_ARP, **pair), out_port, 0x8000))
    h1.arp_table[h2.ip] = h2.mac
    return net, h1, h2


def test_a_forwarded_datagram_is_answered_from_the_exact_match_cache():
    net, h1, h2 = _five_switch_path()

    def datagram() -> None:
        h1.send_udp(h2.ip, 4000, 5000, b"x" * 64)
        net.sim.run_for(0.01)

    datagram()  # warm-up: each switch classifies once and caches the winner
    assert len(h2.udp_received) == 1
    by_name: dict[str, int] = {}
    calls = _calls(datagram, by_name)
    assert len(h2.udp_received) == 2
    assert [s.table.lookup_count for s in net.switches.values()] == [2] * 5
    assert by_name.get("signature_key_of", 0) == 0
    assert by_name.get("parse_frame") == 1
    assert calls <= 1.1 * FORWARD_CALLS, f"{calls} Python calls, bound {1.1 * FORWARD_CALLS:.0f}"


FIND_CALLS = 26747


def test_the_operators_find_crosses_once_per_tree_level():
    ctl = YancController(build_clos(2, 4)).start()
    pusher = ctl.client(name="pusher")
    specs = [(f"m{j}", Match(dl_type=ETH_TYPE_IPV4, nw_dst=f"10.1.{j}.0/24"), [Output(LOCAL)]) for j in range(50)]
    for name in sorted(ctl.net.switches):
        assert pusher.create_flows_batched(ctl.fs_name_of(name), specs, priority=100) == len(specs)
    ctl.run(1.0)
    shell = Shell(ctl.host.process(cred=ROOT, name="operator").sc)
    command = "find /net/switches -name packet_count"
    found = shell.run(command)  # warm-up: the ring, the memo
    assert len(found.splitlines()) == 50 * len(ctl.net.switches)
    counters = shell.sc.meter.counters
    before = counters.snapshot()
    calls = _calls(lambda: shell.run(command))
    crossed = {name: count for name, count in counters.snapshot().delta(before).items() if name.startswith("syscall.")}
    assert crossed == {"syscall.total": 6, "syscall.stat": 1, "syscall.io_uring_enter": 5}
    assert calls <= 1.1 * FIND_CALLS, f"{calls} Python calls, bound {1.1 * FIND_CALLS:.0f}"


def _swept_fabric(network: Network) -> tuple[YancController, int]:
    """``network`` under a started controller, three flows per switch, run to just before the first stats round;
    also the counter files that round writes (every one: the sessions are new)."""
    ctl = YancController(network).start()
    pusher = ctl.client(name="pusher")
    specs = [(f"m{j}", Match(dl_type=ETH_TYPE_IPV4, nw_dst=f"10.1.{j}.0/24"), [Output(LOCAL)]) for j in range(3)]
    for name in sorted(network.switches):
        assert pusher.create_flows_batched(ctl.fs_name_of(name), specs, priority=100) == len(specs)
    ctl.run(0.9)
    files = sum(5 * len(binding.switch.ports) + 2 * len(binding.flows) for binding in ctl.drivers[0].bindings.values())
    return ctl, files


def _round(ctl: YancController) -> dict[str, int]:
    """The driver's crossings and ring entries over the stats round at 1.0 s (every reply lands at 1.001 s)."""
    counters = ctl.drivers[0].sc.meter.counters
    before = counters.snapshot()
    ctl.run(0.2)
    return {name: count for name, count in counters.snapshot().delta(before).items() if name.startswith(("syscall.", "uring."))}


@pytest.mark.parametrize("network", [lambda: build_linear(1), lambda: build_linear(4), lambda: build_clos(2, 4)], ids=["1_switch", "4_switches", "clos_6_switches"])
def test_one_instants_stats_replies_cross_once_and_a_round_that_moves_nothing_crosses_nothing(network):
    ctl, files = _swept_fabric(network())
    assert _round(ctl) == {"syscall.io_uring_enter": 1, "syscall.total": 1, "uring.sqe": 3 * files, "uring.open": files, "uring.write": files, "uring.close": files}
    ctl.run(0.8)
    assert _round(ctl) == {}  # every switch's flow and port replies arrive, and nothing moved


class _Crossings:
    """A trace-point subscriber: the ``(op, ok)`` completions of each crossing of one ring."""

    def __init__(self, ring) -> None:
        self.ring, self.done = ring, []

    def on_uring_submit_exit(self, ring, result, exc) -> None:
        if ring is self.ring:
            self.done.append([(cqe.op, cqe.ok) for cqe in result])


def test_a_round_wider_than_the_ring_splits_by_its_room_and_keeps_every_chain_whole():
    ctl, files = _swept_fabric(build_linear(4))
    driver = ctl.drivers[0]
    crossings = _Crossings(driver.sc.io_uring_setup(entries=16))  # room for five files' chains per crossing
    driver.sc._ring = crossings.ring
    tracepoints.subscribe(crossings)
    try:
        spent = _round(ctl)
    finally:
        tracepoints.unsubscribe(crossings)
    assert spent["syscall.io_uring_enter"] == len(crossings.done) == ceil(3 * files / 15) and files == 74
    assert all(done == [("open", True), ("write", True), ("close", True)] * (len(done) // 3) for done in crossings.done)
    assert sum(map(len, crossings.done)) == spent["uring.sqe"] == 3 * files
