"""Topology builders for tests, examples, and benchmarks."""

from __future__ import annotations

from repro.dataplane.network import Network
from repro.sim import Simulator


def build_linear(num_switches: int, *, hosts_per_switch: int = 1, sim: Simulator | None = None) -> Network:
    """A chain: sw1 - sw2 - ... - swN, each with local hosts."""
    if num_switches < 1:
        raise ValueError("need at least one switch")
    net = Network(sim)
    switches = [net.add_switch() for _ in range(num_switches)]
    for left, right in zip(switches, switches[1:]):
        net.link_switches(left, right)
    for switch in switches:
        for _ in range(hosts_per_switch):
            net.attach_host(net.add_host(), switch)
    return net


def build_ring(num_switches: int, *, hosts_per_switch: int = 1, sim: Simulator | None = None) -> Network:
    """A cycle of switches (exercises loop handling in discovery/routing)."""
    if num_switches < 3:
        raise ValueError("a ring needs at least three switches")
    net = Network(sim)
    switches = [net.add_switch() for _ in range(num_switches)]
    for index, switch in enumerate(switches):
        net.link_switches(switch, switches[(index + 1) % num_switches])
    for switch in switches:
        for _ in range(hosts_per_switch):
            net.attach_host(net.add_host(), switch)
    return net


def build_tree(depth: int, fanout: int, *, sim: Simulator | None = None) -> Network:
    """A complete tree of switches with hosts on the leaves."""
    if depth < 1 or fanout < 1:
        raise ValueError("depth and fanout must be >= 1")
    net = Network(sim)
    root = net.add_switch()
    frontier = [root]
    for _ in range(depth - 1):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                child = net.add_switch()
                net.link_switches(parent, child)
                next_frontier.append(child)
        frontier = next_frontier
    for leaf in frontier:
        net.attach_host(net.add_host(), leaf)
    return net


def build_fat_tree(k: int = 4, *, sim: Simulator | None = None) -> Network:
    """A k-ary fat tree (k even): (k/2)^2 cores, k pods, (k/2)^2*k hosts...

    Scaled-down standard datacenter topology: each pod has k/2 aggregation
    and k/2 edge switches; each edge switch hosts k/2 hosts.
    """
    if k < 2 or k % 2:
        raise ValueError("fat tree parameter k must be even and >= 2")
    net = Network(sim)
    half = k // 2
    cores = [net.add_switch(f"core{i + 1}") for i in range(half * half)]
    for pod in range(k):
        aggs = [net.add_switch(f"p{pod}a{i + 1}") for i in range(half)]
        edges = [net.add_switch(f"p{pod}e{i + 1}") for i in range(half)]
        for agg in aggs:
            for edge in edges:
                net.link_switches(agg, edge)
        for agg_index, agg in enumerate(aggs):
            for core_index in range(half):
                net.link_switches(agg, cores[agg_index * half + core_index])
        for edge in edges:
            for _ in range(half):
                net.attach_host(net.add_host(), edge)
    return net


def build_clos(
    num_spines: int = 2,
    num_leaves: int = 4,
    *,
    hosts_per_leaf: int = 2,
    sim: Simulator | None = None,
) -> Network:
    """A two-tier spine-leaf Clos: every leaf uplinks to every spine.

    The standard modern datacenter fabric — all leaf pairs are exactly
    two hops apart and the spine tier spreads load across
    ``num_spines`` equal-cost paths.  Switches are named ``spine<i>``
    and ``leaf<i>``; hosts hang off the leaves.
    """
    if num_spines < 1 or num_leaves < 1:
        raise ValueError("need at least one spine and one leaf")
    net = Network(sim)
    spines = [net.add_switch(f"spine{i + 1}") for i in range(num_spines)]
    for leaf_index in range(num_leaves):
        leaf = net.add_switch(f"leaf{leaf_index + 1}")
        for spine in spines:
            net.link_switches(leaf, spine)
        for _ in range(hosts_per_leaf):
            net.attach_host(net.add_host(), leaf)
    return net


def build_campus(
    num_buildings: int = 3,
    floors_per_building: int = 2,
    *,
    hosts_per_floor: int = 2,
    sim: Simulator | None = None,
) -> Network:
    """A three-tier campus: core pair, per-building distribution, access.

    Two core switches (linked to each other) each connect to every
    building's distribution switch; each floor's access switch dual-homes
    to its building's distribution and hosts the floor's machines.
    Names: ``core1``/``core2``, ``b<i>d``, ``b<i>f<j>``.
    """
    if num_buildings < 1 or floors_per_building < 1:
        raise ValueError("need at least one building and one floor")
    net = Network(sim)
    core_a = net.add_switch("core1")
    core_b = net.add_switch("core2")
    net.link_switches(core_a, core_b)
    for b in range(num_buildings):
        dist = net.add_switch(f"b{b + 1}d")
        net.link_switches(dist, core_a)
        net.link_switches(dist, core_b)
        for f in range(floors_per_building):
            access = net.add_switch(f"b{b + 1}f{f + 1}")
            net.link_switches(access, dist)
            for _ in range(hosts_per_floor):
                net.attach_host(net.add_host(), access)
    return net
