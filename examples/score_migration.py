#!/usr/bin/env python3
"""S-CORE-style VM migration driven entirely from /net (paper §8).

The paper's S-CORE port runs "a distributed VM migration scheme that
reduces communication cost" on yanc: traffic volumes come from port
counters in the file system, placement comes from the hosts/ directory,
and the "migration" is a host MAC moving to a different edge switch.

This example builds a spine-leaf Clos, aims a hotspot traffic matrix at
one VM that starts far from its talkers, scores every candidate edge
switch as

    cost(edge) = sum over talkers of  bytes(talker) * hops(talker, edge)

with bytes measured from each talker's edge-port counters over a live
window, then migrates the hot VM to the argmin edge and shows the
measured communication cost collapsing.

Run:  python examples/score_migration.py
"""

from repro import YancController, build_clos
from repro.apps import ArpResponder, RouterDaemon, TopologyDaemon
from repro.dataplane.traffic import TrafficMatrix, TrafficReplay


def host_edge_ports(ctl, net):
    """host name -> (switch, port) straight from /net/hosts (§3.4).

    The router records hosts under their MAC; map back to sim names.
    """
    mac_names = {str(host.mac): name for name, host in net.hosts.items()}
    yc = ctl.client()
    out = {}
    for entry in yc.hosts():
        name = mac_names.get(entry)
        if name is None:
            continue
        attached = ctl.host.process().read_text(f"/net/hosts/{entry}/attached_to").strip()
        switch, _, port = attached.partition(":")
        out[name] = (switch, int(port))
    return out


def measured_bytes(ctl, locations):
    """host name -> rx+tx bytes at its edge port, from port counters."""
    yc = ctl.client()
    out = {}
    for host, (switch, port) in locations.items():
        counters = yc.port_counters(switch, port)
        out[host] = counters.get("rx_bytes", 0) + counters.get("tx_bytes", 0)
    return out


def migration_cost(router, volumes, talker_locations, candidate_edge):
    """S-CORE cost of placing the hot VM on ``candidate_edge``."""
    cost = 0
    for talker, (switch, _port) in talker_locations.items():
        path = router.shortest_path(switch, candidate_edge)
        hops = len(path) - 1 if path else 10
        cost += volumes.get(talker, 0) * hops
    return cost


def migrate_host(net, host, dst_switch):
    """Move a host's MAC to a new port on another edge switch.

    The old access port disappears (the driver rmdirs its directory, the
    daemons' port caches invalidate via their watches), a fresh port
    appears on the destination switch, and the host re-announces itself
    with its next transmission.
    """
    old_link = host.link
    old_port = old_link.peer_of(host)
    old_link.set_up(False)
    old_port.link = None
    host.link = None
    net.links.remove(old_link)
    old_port.switch.remove_port(old_port.port_no)
    return net.attach_host(host, dst_switch)


def main() -> None:
    net = build_clos(2, 4, hosts_per_leaf=2)  # 2 spines, 4 leaves, 8 hosts
    ctl = YancController(net).start()

    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    router = RouterDaemon(ctl.host.process(), ctl.sim, flow_idle_timeout=0.5).start()
    ArpResponder(ctl.host.process(), ctl.sim).start()

    print("discovering topology ...")
    ctl.run(2.0)
    assert router.topology() == ctl.expected_topology(), "discovery incomplete"

    # The hot VM lives on leaf1; its talkers all sit on leaf3 and leaf4.
    # /net names switches sw<dpid>; keep a map back to the sim names.
    fs_name = {name: ctl.fs_name_of(name) for name in net.switches}
    sim_name = {v: k for k, v in fs_name.items()}
    hot = net.hosts["h1"]
    mapping = net.host_ports()
    talkers = [name for name, (sw, _p) in mapping.items() if sw in ("leaf3", "leaf4")]
    print(f"hot VM {hot.name} on {mapping[hot.name][0]}; talkers {talkers} across the spine")

    # Warmup: one ping per talker so every host is learned into /net/hosts
    # before the measurement window opens.
    for name in talkers:
        net.hosts[name].ping(hot.ip)
    ctl.run(1.5)

    matrix = TrafficMatrix.hotspot(
        talkers + [hot.name], hot.name, num_flows=12, hot_fraction=1.0, packets_per_flow=6, seed=3
    )
    replay = TrafficReplay(net, matrix)

    locations = host_edge_ports(ctl, net)
    before = measured_bytes(ctl, locations)
    stats = replay.run(3.0)
    after = measured_bytes(ctl, locations)
    print(f"window 1: {stats.packets_delivered}/{stats.packets_offered} packets delivered")

    volumes = {h: after[h] - before[h] for h in talkers}
    talker_locations = {h: locations[h] for h in talkers}
    edges = [fs_name[name] for name in net.switches if name.startswith("leaf")]
    costs = {edge: migration_cost(router, volumes, talker_locations, edge) for edge in edges}
    current = fs_name[mapping[hot.name][0]]
    target = min(costs, key=costs.get)
    for edge in sorted(costs):
        marker = " <- current" if edge == current else (" <- target" if edge == target else "")
        print(f"  cost({edge}) = {costs[edge]} ({sim_name[edge]}){marker}")
    assert costs[target] < costs[current], "migration should be profitable"

    print(f"migrating {hot.name}: {sim_name[current]} -> {sim_name[target]}")
    migrate_host(net, hot, net.switches[sim_name[target]])
    ctl.run(1.0)  # old flows idle out, discovery sees the new port
    hot.ping(net.hosts[talkers[0]].ip)  # re-announce from the new location
    ctl.run(1.0)

    matrix2 = TrafficMatrix.hotspot(
        talkers + [hot.name], hot.name, num_flows=12, hot_fraction=1.0, packets_per_flow=6, seed=5
    )
    stats2 = TrafficReplay(net, matrix2).run(3.0)
    print(f"window 2: {stats2.packets_delivered}/{stats2.packets_offered} packets delivered")
    assert stats2.delivery_ratio > 0.9, "traffic must still flow after migration"

    locations2 = host_edge_ports(ctl, net)
    cost_before = migration_cost(router, volumes, talker_locations, current)
    cost_after = migration_cost(router, volumes, {h: locations2[h] for h in talkers}, locations2[hot.name][0])
    print(f"communication cost: {cost_before} -> {cost_after} "
          f"({100 * (1 - cost_after / cost_before):.0f}% lower)")
    assert cost_after < cost_before

    print(f"router: {router.paths_installed} paths, {router.full_topology_reads} full topology walks, "
          f"{router.peer_changes} peer changes followed")


if __name__ == "__main__":
    main()
