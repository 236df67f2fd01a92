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

Trace-point subscribers (the runtime tools a tier-1 axis installs) are
set aside while counting: the ratchet prices the program, not its
observers.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.apps import ArpResponder, RouterDaemon, TopologyDaemon
from repro.dataplane import LOCAL, FlowEntry, Match, Network, Output, build_clos
from repro.netpkt.ethernet import ETH_TYPE_ARP, ETH_TYPE_IPV4, ETH_TYPE_LLDP
from repro.perf import tracepoints
from repro.runtime import ControllerHost, YancController
from repro.shell import Shell
from repro.vfs.cred import ROOT
from repro.yancfs.client import YancClient, flow_spec_files, write_objects_batched
from repro.yancfs.translate import fan_out_packet_in

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
    return yc.write_packet_in_batched("s1", _APPS, seq, in_port=1, reason="no_match", buffer_id=seq, total_len=4, data=b"ping")


def _flow(yc: YancClient, name: str) -> int:
    files = flow_spec_files(_MATCH, [Output(1), Output(2)], priority=5, idle_timeout=1, hard_timeout=2)
    assert len(files) + 1 == 12  # the spec files and the version
    return write_objects_batched(yc.sc, [(yc.flow_path("s1", name), files, "version")])


@pytest.mark.parametrize(
    "operation, objects, per_object, bound",
    [
        (_fan_out, 3, 1 + 3 * 5 + 1, 1.1 * 1304),  # mkdir, five files, rename
        (_flow, 1, 1 + 3 * 12, 1.1 * 941),  # mkdir, eleven spec files and the version
    ],
    ids=["packet_in_fan_out_to_3_apps", "flow_of_12_files"],
)
def test_the_work_behind_an_object_write_stays_ratcheted(yc, operation, objects, per_object, bound):
    assert operation(yc, 0) == objects  # warm-up: the ring, the memo, the first paths
    sqe = yc.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: operation(yc, 1))
    assert yc.sc.meter.counters.get("uring.sqe") - sqe == objects * (per_object + 2)
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
    published, _dropped = fan_out_packet_in(yc.sc, yc, "s1", seq, in_port=1, reason="action", total_len=len(_BEACON), data=_BEACON)
    return published


def test_a_beacon_fan_out_writes_only_the_buffer_that_declared_lldp(declared):
    assert _beacon_fan_out(declared, 0) == 1  # warm-up
    sqe = declared.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: _beacon_fan_out(declared, 1))
    assert declared.sc.meter.counters.get("uring.sqe") - sqe == 3 * 2 + (1 + 3 * 5 + 1) + 2 == 25
    assert declared.sc.listdir(declared.events_path("s1", "topod")) == ["pi_0", "pi_1"]
    assert declared.sc.listdir(declared.events_path("s1", "router")) == declared.sc.listdir(declared.events_path("s1", "arpd")) == []
    assert calls <= 1.1 * 634, f"{calls} Python calls, bound {1.1 * 634:.0f}"


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
