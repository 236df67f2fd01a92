"""The topology daemon and the reactive router."""

from types import SimpleNamespace

import pytest
from flow_strategies import IPS, MACS
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import RouterDaemon, TopologyDaemon, read_topology
from repro.apps.router import NO_BUFFER
from repro.apps.topology import LINK_TTL, peer_port
from repro.dataplane import Match, Output, build_linear, build_ring, build_tree
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Udp
from repro.netpkt.packet import build_frame, parse_frame
from repro.perf import SyscallMeter
from repro.runtime import YancController
from repro.vfs.errors import FileExists
from repro.vfs.notify import IN_ALL_EVENTS
from repro.yancfs.client import PacketInEvent, read_object


def _stack(net, *, router=True):
    ctl = YancController(net).start()
    topod = TopologyDaemon(ctl.host.process(), ctl.sim).start()
    rd = RouterDaemon(ctl.host.process(), ctl.sim).start() if router else None
    return ctl, topod, rd


def test_discovery_matches_ground_truth_linear():
    ctl, topod, _ = _stack(build_linear(4), router=False)
    ctl.run(2.0)
    assert read_topology(ctl.client()) == ctl.expected_topology()
    assert topod.beacons_received > 0


def test_discovery_matches_ground_truth_tree():
    ctl, _, _ = _stack(build_tree(3, 2), router=False)
    ctl.run(2.0)
    assert read_topology(ctl.client()) == ctl.expected_topology()


def test_discovery_symmetric_links():
    ctl, _, _ = _stack(build_ring(4), router=False)
    ctl.run(2.0)
    adjacency = read_topology(ctl.client())
    for src, dst in adjacency.items():
        assert adjacency[dst] == src


def test_stale_links_pruned_after_port_down():
    ctl, topod, _ = _stack(build_linear(2), router=False)
    ctl.run(2.0)
    truth = ctl.expected_topology()
    assert read_topology(ctl.client()) == truth
    # cut the inter-switch link
    link = [l for l in ctl.net.links if hasattr(l.a, "switch") and hasattr(l.b, "switch")][0]
    link.set_up(False)
    ctl.run(3 * LINK_TTL + 1.0)
    assert read_topology(ctl.client()) == {}


def test_lldp_punt_flow_has_top_priority():
    ctl, _, _ = _stack(build_linear(2), router=False)
    ctl.run(1.0)
    yc = ctl.client()
    spec = yc.read_flow("sw1", "lldp_punt")
    assert spec.priority == 0xFFFF


def test_router_ping_linear():
    ctl, _, router = _stack(build_linear(3))
    ctl.run(2.0)
    h1, h3 = ctl.net.hosts["h1"], ctl.net.hosts["h3"]
    seq = h1.ping(h3.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    assert router.paths_installed >= 1


def test_router_ping_ring_no_storm():
    ctl, _, router = _stack(build_ring(5))
    ctl.run(2.0)
    h1, h3 = ctl.net.hosts["h1"], ctl.net.hosts["h3"]
    seq = h1.ping(h3.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    # spanning-tree flooding: each broadcast visits each switch at most once
    assert router.floods <= 4 * len(ctl.net.switches)


def test_router_installs_exact_match_flows():
    ctl, _, _ = _stack(build_linear(2))
    ctl.run(2.0)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    seq = h1.ping(h2.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    yc = ctl.client()
    route_flows = [f for f in yc.flows("sw1") if f.startswith("rt-")]
    assert route_flows
    spec = yc.read_flow("sw1", route_flows[0])
    assert spec.match.dl_src is not None and spec.match.dl_dst is not None
    assert spec.match.in_port is not None
    assert spec.idle_timeout > 0


def test_router_learns_edge_hosts_only():
    ctl, _, router = _stack(build_linear(3))
    ctl.run(2.0)
    h1, h3 = ctl.net.hosts["h1"], ctl.net.hosts["h3"]
    seq = h1.ping(h3.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    locations = {str(mac): loc for mac, loc in router.host_locations.items()}
    assert locations[str(h1.mac)] == ("sw1", 2)
    assert locations[str(h3.mac)] == ("sw3", 2)


def test_router_records_hosts_in_tree():
    ctl, _, _ = _stack(build_linear(2))
    ctl.run(2.0)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.ping(h2.ip)
    ctl.run(3.0)
    yc = ctl.client()
    hosts = yc.hosts()
    assert str(h1.mac) in hosts
    attached = ctl.host.root_sc.read_text(f"/net/hosts/{h1.mac}/attached_to")
    assert attached.startswith("sw1:")


def test_second_ping_uses_installed_path_without_new_punt():
    ctl, _, router = _stack(build_linear(2))
    ctl.run(2.0)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    seq = h1.ping(h2.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    paths_before = router.paths_installed
    seq2 = h1.ping(h2.ip)
    ctl.run(1.0)
    assert h1.reachable(seq2)
    assert router.paths_installed == paths_before  # flow already in hardware


# -- the peer symlinks are the one record of the topology --------------------------------


def test_discovery_publishes_parseable_add_deltas():
    """A discovered link is published once, as its ``peer`` symlink: each parses to its port, and nothing else is written."""
    ctl, _, _ = _stack(build_linear(3), router=False)
    ctl.run(2.0)
    sc, yc = ctl.host.root_sc, ctl.client()
    links = {(switch, int(port.split("_")[1])): peer_port(yc.peer_of(switch, port)) for switch in yc.switches() for port in yc.ports(switch)}
    assert {src: dst for src, dst in links.items() if dst is not None} == ctl.expected_topology()
    assert not sc.exists("/var/run/topology")


def test_router_builds_topology_from_deltas_alone():
    """The router starts before discovery: its one walk sees an empty tree,
    and the entire adjacency arrives as ``peer`` events, one ``readlink`` each."""
    ctl, _, router = _stack(build_linear(3))
    ctl.run(2.0)
    assert router.topology() == ctl.expected_topology()
    assert router.full_topology_reads == 1
    assert router.peer_changes >= len(ctl.expected_topology())


def test_router_steady_state_routes_with_zero_topology_syscalls():
    """Acceptance: routing a packet re-reads no topology in steady state.

    The router gets its own SyscallMeter; after a warm-up window that
    exercises every switch, a fresh host pair is routed end-to-end with
    zero listdir/readlink syscalls and no new full-topology walk.
    """
    net = build_linear(3)
    ctl = YancController(net).start()
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    meter = SyscallMeter()
    router = RouterDaemon(ctl.host.process(meter=meter), ctl.sim).start()
    ctl.run(2.0)
    h1, h2, h3 = (ctl.net.hosts[n] for n in ("h1", "h2", "h3"))
    seq = h1.ping(h3.ip)
    ctl.run(3.0)
    assert h1.reachable(seq)
    assert router.full_topology_reads == 1  # the startup walk, never again

    listdir_before = meter.counters.get("syscall.listdir")
    readlink_before = meter.counters.get("syscall.readlink")
    seq2 = h3.ping(h2.ip)  # a fresh pair: flood, learn, install a new path
    ctl.run(3.0)
    assert h3.reachable(seq2)
    assert router.full_topology_reads == 1
    assert meter.counters.get("syscall.listdir") == listdir_before
    assert meter.counters.get("syscall.readlink") == readlink_before


def test_link_cut_propagates_via_remove_deltas():
    ctl, topod, router = _stack(build_linear(2))
    ctl.run(2.0)
    assert router.topology() == ctl.expected_topology()
    link = [l for l in ctl.net.links if hasattr(l.a, "switch") and hasattr(l.b, "switch")][0]
    link.set_up(False)
    ctl.run(3 * LINK_TTL + 1.0)
    assert router.topology() == {}
    assert router.full_topology_reads == 1  # the cut arrived as peer deletes
    assert router.peer_changes == 2 * len(ctl.expected_topology())


def _recoveries(ctl) -> int:
    counters = dict(line.split(" ") for line in ctl.host.root_sc.read_text("/proc/counters").splitlines())
    return int(counters.get("proc.overflow_recoveries", 0))


def test_a_router_whose_queue_overflowed_still_holds_every_link():
    """Regression: a router that lost ``peer`` events to an overflow re-walks the symlinks (it used to keep 1 of 4 links)."""
    ctl, _, router = _stack(build_linear(3))
    router.ino.max_queued_events = 2
    ctl.run(3.0)
    assert _recoveries(ctl) >= 1
    assert router.topology() == ctl.expected_topology()
    assert router.full_topology_reads >= 2  # the start, and the overflow


def test_paths_routed_to_a_host_learned_where_a_link_is_found_are_retired():
    """A router that routes before discovery learns each host at the far end of the inter-switch link; once the link is known, those hosts and the paths routed to them go, or the paths would loop."""
    ctl = YancController(build_linear(2)).start()
    router = RouterDaemon(ctl.host.process(), ctl.sim).start()
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    assert h1.reachable(_ping(ctl, h1, h2))
    yc = ctl.client()
    assert router.host_locations[h1.mac] == ("sw2", 1) and [f for f in yc.flows("sw2") if f.startswith("rt-")]
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ctl.run(1.0)
    assert router.topology() == ctl.expected_topology()
    assert router.host_locations == {}
    assert [f for switch in yc.switches() for f in yc.flows(switch) if f.startswith("rt-")] == []
    assert h1.reachable(_ping(ctl, h1, h2))


def _ping(ctl, src, dst) -> int:
    seq = src.ping(dst.ip)
    ctl.run(1.0)
    return seq


def _switch_links(net):
    return [link for link in net.links if hasattr(link.a, "switch") and hasattr(link.b, "switch")]


@settings(max_examples=12, deadline=None)
@given(
    builder=st.sampled_from([lambda: build_linear(3), lambda: build_ring(3)]),
    steps=st.lists(st.tuples(st.integers(min_value=0, max_value=2), st.booleans(), st.sampled_from([0.3, 1.0, 2.5]), st.booleans()), max_size=6),
    overflow=st.sampled_from([None, "router", "topod"]),
)
def test_the_router_follows_the_peer_symlinks_through_flaps_and_overflows(builder, steps, overflow):
    """After any run of link cuts and repairs, with either daemon's queue overflowing, the router's adjacency is the tree's and the wire's, and no host stays learned at an inter-switch port."""
    ctl, topod, router = _stack(builder())
    if overflow is not None:
        (router if overflow == "router" else topod).ino.max_queued_events = 2
    links, hosts = _switch_links(ctl.net), list(ctl.net.hosts.values())
    for index, up, dwell, ping in steps:
        links[index % len(links)].set_up(up)
        if ping:
            hosts[0].ping(hosts[-1].ip)
        ctl.run(dwell)
    for link in links:
        link.set_up(True)
    ctl.run(3 * LINK_TTL)
    assert router.topology() == read_topology(ctl.client()) == ctl.expected_topology()
    assert not [location for location in router.host_locations.values() if location in router.topology()]


def test_app_stop_ceases_processing():
    ctl, topod, router = _stack(build_linear(2))
    ctl.run(1.0)
    router.stop()
    before = router.paths_installed + router.floods
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.ping(h2.ip)
    ctl.run(2.0)
    assert router.paths_installed + router.floods == before
    topod.stop()


# -- the batched path install: the per-syscall spelling is the reference ------------------------


class PerSyscallRouter(RouterDaemon):
    """The path written as it was before the ring: one ``create_flow`` per hop, a system call per step."""

    def _route(self, event, frame, location):
        dst_switch, dst_port = location
        path = self.shortest_path(event.switch, dst_switch)
        graph = self._graph()
        key = frame.key
        self._flow_seq += 1
        in_port = event.in_port
        for index, switch in enumerate(path):
            out_port = graph[switch][path[index + 1]] if index + 1 < len(path) else dst_port
            try:
                self.yc.create_flow(
                    switch, f"rt-{key.dl_src}-{key.dl_dst}-{self._flow_seq}", Match.exact(key, in_port=in_port), [Output(out_port)], idle_timeout=self.flow_idle_timeout
                )
            except FileExists:
                pass
            if index + 1 < len(path):
                in_port = self._topology[(switch, out_port)][1]
        self.paths_installed += 1
        self.yc.packet_out(event.switch, [graph[path[0]][path[1]] if len(path) > 1 else dst_port], event.data, in_port=event.in_port, tag=self.app_name)


def _route_one(router_cls, hops: int, raw: bytes, existing: int | None):
    """Route ``raw`` from sw1's first host to sw<hops>'s last on a fresh chain; what that left behind."""
    net = build_linear(hops, hosts_per_switch=2)
    ctl = YancController(net).start()
    topod = TopologyDaemon(ctl.host.process(), ctl.sim).start()
    router = router_cls(ctl.host.process(), ctl.sim).start()
    ctl.run(1.0)
    assert router.topology() == ctl.expected_topology()
    topod.stop()
    ctl.run(0.1)  # the last beacons drain: the only frame from here on is the released one
    sc, yc, frame = ctl.host.root_sc, ctl.client(), parse_frame(raw)
    src, dst = net.hosts["h1"], net.hosts[f"h{2 * hops}"]
    router.host_locations[frame.eth.dst] = net.host_ports()[dst.name]
    flow = f"rt-{frame.eth.src}-{frame.eth.dst}-1"
    switches = [f"sw{n}" for n in range(1, hops + 1)]
    if existing is not None:
        sc.mkdir(yc.flow_path(switches[existing], flow))  # somebody else's, uncommitted
    delivered = dst.rx_frames
    ino = sc.inotify_init()
    watched = {sc.inotify_add_watch(ino, f"{yc.switch_path(switch)}/flows", IN_ALL_EVENTS): switch for switch in switches}
    router.handle_packet_in(
        PacketInEvent(switch="sw1", seq=1, in_port=net.host_ports()[src.name][1], reason="no_match", buffer_id=NO_BUFFER, total_len=len(raw), data=raw)
    )
    events = [(watched[event.wd], int(event.mask), event.name) for event in sc.inotify_read(ino)]
    directories = {switch: list(read_object(sc, yc.flow_path(switch, flow)).items()) for switch in switches}
    ctl.run(0.3)
    tables = {switch: [(entry.match, entry.priority, tuple(entry.actions), entry.idle_timeout) for entry in net.switches[switch].table.entries()] for switch in switches}
    released = dst.rx_frames - delivered
    return SimpleNamespace(left=(events, directories, tables, released, router.paths_installed), directories=directories, released=released)


_FRAMES = st.builds(
    lambda macs, ips, sport, dport, payload: build_frame(Ethernet(dst=macs[1], src=macs[0], eth_type=ETH_TYPE_IPV4), IPv4(ips[0], ips[1], 17), Udp(sport, dport, payload=payload)),
    st.permutations(MACS),
    st.permutations(IPS),
    st.integers(min_value=1, max_value=65535),
    st.integers(min_value=1, max_value=65535),
    st.binary(max_size=32),
)


@settings(max_examples=12, deadline=None)
@given(hops=st.integers(min_value=1, max_value=3), raw=_FRAMES, existing=st.one_of(st.none(), st.integers(min_value=0, max_value=2)))
def test_a_batched_path_leaves_what_create_flow_per_hop_left(hops, raw, existing):
    existing = None if existing is None or existing >= hops else existing
    batched = _route_one(RouterDaemon, hops, raw, existing)
    # The same flows/ events per switch, the same files with the same bytes
    # in the same order, the same hardware entries, the same released packet.
    assert batched.left == _route_one(PerSyscallRouter, hops, raw, existing).left
    for index, files in enumerate(batched.directories.values()):
        if index == existing:
            assert files == [("version", b"0")]  # skipped, as FileExists skipped it: the others still commit
        else:
            assert dict(files)["version"] == b"1" and len(files) > 10  # a hop is committed iff its spec files are there
    assert batched.released == 1
