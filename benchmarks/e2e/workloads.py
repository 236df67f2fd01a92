"""The four closed-loop workloads of the end-to-end benchmark.

Each workload is one class.  Constructing it *is* the set-up (topology,
controller, apps, discovery, pre-installed state, warm caches); ``op(i)``
issues the i-th operation, steps the simulator until the operation is
verifiably complete, checks its result and returns True/False;
``idle()`` is the simulated think time between operations; ``finish()``
runs the end-of-run checks and returns a list of error strings.

The program under test receives only generated packets and flow specs:
every random choice is drawn from ``random.Random(seed)`` here, and the
hop mix of the chosen host pairs is held fixed (see ``_pair_classes``)
so that two seeds give the same *amount* of work and differ only in
*which* hosts, ports and addresses do it.
"""

from __future__ import annotations

import math
import random
import re
import time
from ipaddress import IPv4Address, IPv4Network

from repro import Match, Output, YancController, build_campus, build_clos, build_fat_tree
from repro.apps import AccountingDaemon, ArpResponder, RouterDaemon, TopologyDaemon
from repro.dataplane.actions import LOCAL
from repro.drivers import OF13_VERSION
from repro.libyanc import LibYanc
from repro.netpkt.addr import MacAddress
from repro.netpkt.ethernet import ETH_TYPE_IPV4
from repro.shell import Shell
from repro.vfs.cred import ROOT

#: An operation that needs more simulated time than this has failed.
OP_SIM_TIMEOUT = 1.0

#: The OF1.0 FlowStatsReply encoder overflows its 16-bit length at ~680
#: entries (see README "known limits"); every workload stays below this.
MAX_TABLE_ENTRIES = 600


class Workload:
    """Common machinery: the controller, stepping, and table-size guard."""

    name = ""
    why = ""
    #: Operations in the deterministic prefix (full size, --quick size).
    det_ops = (0, 0)
    #: Simulated seconds of think time between operations.
    think = 0.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.ctl: YancController
        self.table_entries_max = 0
        self.sim_done = 0.0
        self.build()
        self.note_tables()

    def build(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> bool:
        raise NotImplementedError

    def idle(self) -> None:
        if self.think:
            self.ctl.sim.run_for(self.think)

    def finish(self) -> list[str]:
        errors = []
        if self.table_entries_max >= MAX_TABLE_ENTRIES:
            errors.append(f"a flow table reached {self.table_entries_max} entries (limit {MAX_TABLE_ENTRIES})")
        crashed = [p.proc_name for p in self.ctl.host.procs.processes() if p.crashes]
        if crashed:
            errors.append(f"processes crashed: {crashed}")
        return errors

    # -- helpers -------------------------------------------------------------------

    def step_until(self, done) -> bool:
        """Step the simulator until ``done()``; False on time-out."""
        sim = self.ctl.sim
        deadline = sim.now + OP_SIM_TIMEOUT
        while not done():
            if sim.now > deadline or not sim.step():
                return False
        self.sim_done = sim.now
        return True

    def align(self, phase: float = 0.25) -> None:
        """Idle until simulated time is ``phase`` past a whole second.

        Stats polls, LLDP beacons and expiry sweeps are periodic in
        simulated time; starting every timed region at the same phase
        puts the same periodic work inside the deterministic prefix
        whatever the seed.
        """
        sim = self.ctl.sim
        target = math.floor(sim.now) + phase
        sim.run_until(target if target > sim.now else target + 1.0)

    def note_tables(self) -> None:
        """Track the largest hardware table seen (the table-size guard)."""
        largest = max(len(sw.table) for sw in self.ctl.net.switches.values())
        if largest > self.table_entries_max:
            self.table_entries_max = largest

    def apps(self) -> dict[str, object]:
        """App objects whose public counters the per-layer report reads."""
        return {}


# -- fat tree: reactive set-up and steady forwarding ------------------------------------


def _pair_classes(net) -> dict[int, list[tuple]]:
    """Ordered host pairs of a k=4 fat tree by switches on the shortest path.

    1 switch (same edge): 16 pairs; 3 (same pod): 32; 5 (across the core):
    192.  Workloads draw a fixed number from each class, in the fabric's
    own 1:2:12 proportion, so the mean path length does not depend on
    the seed.
    """
    where = {name: switch for name, (switch, _port) in net.host_ports().items()}
    classes: dict[int, list[tuple]] = {1: [], 3: [], 5: []}
    hosts = list(net.hosts.values())
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            a, b = where[src.name], where[dst.name]
            if a == b:
                hops = 1
            elif re.match(r"p\d+", a).group() == re.match(r"p\d+", b).group():
                hops = 3
            else:
                hops = 5
            classes[hops].append((src, dst))
    return classes


class _FatTree(Workload):
    """build_fat_tree(4) + OF1.0 driver + topology, router and ARP daemons."""

    flow_idle_timeout = 0.0
    #: Seconds per link; None keeps the builder's 100 microseconds.
    link_latency: float | None = None

    def build(self) -> None:
        net = build_fat_tree(4)
        if self.link_latency is not None:
            for link in net.links:
                link.latency = self.link_latency
        self.ctl = ctl = YancController(net).start()
        host = ctl.host
        self.topod = TopologyDaemon(host.process(name="topod"), ctl.sim).start()
        self.router = RouterDaemon(
            host.process(name="router"), ctl.sim, flow_idle_timeout=self.flow_idle_timeout
        ).start()
        self.arpd = ArpResponder(host.process(name="arpd"), ctl.sim).start()
        truth = ctl.expected_topology()
        while self.router.topology() != truth:
            if ctl.sim.now > 10.0:
                raise RuntimeError("topology discovery did not converge")
            ctl.run(0.1)
        hosts = list(net.hosts.values())
        # Static ARP (``arp -s``): the timed operations are then exactly
        # one new UDP flow each, not a first-contact ARP exchange plus a
        # flow — which would make early operations dearer than late ones.
        for a in hosts:
            for b in hosts:
                if a is not b:
                    a.arp_table[b.ip] = b.mac
        # Teach the router every host's location: one flooded datagram
        # from the first host, then one routed datagram from each other.
        first = hosts[0]
        if not self.deliver(first, hosts[1], 3999, 3999, b"learn"):
            raise RuntimeError("learning flood was not delivered")
        for other in hosts[1:]:
            if not self.deliver(other, first, 3999, 3999, b"learn"):
                raise RuntimeError(f"learning datagram from {other.name} was not delivered")
        if len(self.router.host_locations) != len(hosts):
            raise RuntimeError("router did not learn every host")
        self.classes = _pair_classes(net)

    def apps(self) -> dict[str, object]:
        return {"router": self.router}

    def deliver(self, src, dst, src_port: int, dst_port: int, payload: bytes) -> bool:
        """Send one datagram and step until ``dst`` has it; verify it."""
        inbox = dst.udp_received
        del inbox[:]
        del dst.received[:]  # HostSim keeps every frame; bound the memory
        src.send_udp(dst.ip, src_port, dst_port, payload)
        if not self.step_until(lambda: inbox):
            return False
        from_ip, datagram = inbox[0]
        return (
            len(inbox) == 1
            and from_ip == src.ip
            and datagram.src_port == src_port
            and datagram.dst_port == dst_port
            and datagram.payload == payload
        )

    def draw_pairs(self, same_edge: int, same_pod: int, cross: int) -> list[tuple]:
        pairs = (
            self.rng.sample(self.classes[1], same_edge)
            + self.rng.sample(self.classes[3], same_pod)
            + self.rng.sample(self.classes[5], cross)
        )
        self.rng.shuffle(pairs)
        return pairs


class ReactiveFatTree(_FatTree):
    name = "reactive_fattree"
    why = (
        "the paper's section 8.1 path end to end: a table miss becomes OpenFlow bytes, files, "
        "inotify wake-ups, a routed path and flow-mods; every controller layer works, the dataplane barely"
    )
    det_ops = (120, 30)
    think = 0.02  # 50 new flows per simulated second keeps every table < 100 entries
    flow_idle_timeout = 2.0

    WARMUP = 10

    def build(self) -> None:
        super().build()
        self.payload = bytes(self.rng.randrange(256) for _ in range(64))
        self.pairs = self.draw_pairs(1, 1, self.WARMUP - 2)
        for index in range(-self.WARMUP, 0):
            if not self.op(index):
                raise RuntimeError("warm-up flow was not delivered")
            self.idle()
        self.pairs = []
        self.align()

    def op(self, index: int) -> bool:
        """One new UDP flow: first datagram from a host to another, set up reactively."""
        while len(self.pairs) <= index:
            # Blocks of 120 with 8 + 16 + 96 pairs by path class: the
            # deterministic prefix is exactly one block.
            self.pairs += self.draw_pairs(8, 16, 96)
        src, dst = self.pairs[index]
        # A port never used before makes the exact-match key, and so the flow, new.
        return self.deliver(src, dst, 4000, 10000 + index % 50000, self.payload)


class ForwardFatTree(_FatTree):
    name = "forward_fattree"
    why = (
        "the hardware path: datagrams over already-installed flows touch only dataplane, netpkt and sim; "
        "a vfs or yancfs change must show no change here, a megaflow cache shows only here"
    )
    det_ops = (18000, 6000)  # 600 rounds of the 30 flows: one simulated second
    flow_idle_timeout = 3600.0
    # A datagram crosses up to six links.  At the builder's 100 us a wall
    # second would span more than a simulated second, and the controller's
    # periodic duties (LLDP, stats polls) would be half of this workload;
    # at 10 us they are the few per cent a mostly idle controller costs.
    link_latency = 1e-5

    SIZES = (64, 512, 1400)

    def build(self) -> None:
        super().build()
        self.flows = self.draw_pairs(2, 4, 24)
        self.payloads = [bytes(self.rng.randrange(256) for _ in range(size)) for size in self.SIZES]
        for index in range(len(self.flows)):
            if not self.op(index):
                raise RuntimeError("flow was not installed reactively")
        self.align()
        self.paths_after_setup = self.router.paths_installed

    def op(self, index: int) -> bool:
        """One datagram across 1, 3 or 5 switches over an installed flow."""
        slot = index % len(self.flows)
        src, dst = self.flows[slot]
        payload = self.payloads[(index + index // len(self.flows)) % len(self.payloads)]
        return self.deliver(src, dst, 4000, 5000 + slot, payload)

    def finish(self) -> list[str]:
        errors = super().finish()
        if self.router.paths_installed != self.paths_after_setup:
            errors.append("timed datagrams left the installed flows (router installed new paths)")
        return errors


# -- campus: bulk install and delete through all three submission mechanisms ----------------


class BulkCampus(Workload):
    name = "bulk_campus"
    why = (
        "the same yancfs and vfs layers used for bulk writes and deletes through the file path, the ring "
        "and the libyanc fastpath, with the OF1.3 codec and FlowTable.install; no packet-ins, so apps stay idle"
    )
    det_ops = (66, 11)
    think = 0.02  # lets stats polls and expiry sweeps take their natural share

    BATCH = 32
    LIVE = 44  # batches kept installed: 4 per switch, 128 flows per table
    MECHANISMS = ("file", "ring", "fastpath")

    def build(self) -> None:
        net = build_campus(3, 2, hosts_per_floor=2)
        self.ctl = ctl = YancController(net)
        ctl.add_driver(version=OF13_VERSION)
        ctl.start()
        self.pusher = ctl.client(name="pusher")
        # Flows staged through libyanc are root-owned, and only a flow's
        # owner, its driver or root may retire it: deletes go through an
        # administrator's client.
        self.admin = ctl.client(cred=ROOT, name="admin")
        self.lib = LibYanc(ctl.host.fs)
        self.switch_order = sorted(net.switches)
        self.rng.shuffle(self.switch_order)
        self.address_base = self.rng.randrange(1 << 24)
        self.live: list[tuple[str, list[str]]] = []
        self.install_s: dict[str, list[float]] = {m: [] for m in self.MECHANISMS}
        for index in range(-self.LIVE, 0):
            if not self.op(index):
                raise RuntimeError("set-up batch was not installed")
            self.idle()
        for samples in self.install_s.values():
            del samples[:]
        self.align()

    def _specs(self, index: int, switch) -> list[tuple[str, Match, list]]:
        ports = sorted(switch.ports)
        specs = []
        for j in range(self.BATCH):
            serial = (index + self.LIVE) * self.BATCH + j
            address = IPv4Address((10 << 24) | ((self.address_base + serial) & 0xFFFFFF))
            match = Match(dl_type=ETH_TYPE_IPV4, nw_dst=IPv4Network(f"{address}/32"))
            specs.append((f"b{index + self.LIVE}-{j}", match, [Output(self.rng.choice(ports))]))
        return specs

    def op(self, index: int) -> bool:
        """Install one 32-flow batch, await it in hardware, retire the oldest batch."""
        switch_name = self.switch_order[index % len(self.switch_order)]
        switch = self.ctl.net.switches[switch_name]
        fs_name = self.ctl.fs_name_of(switch_name)
        mechanism = self.MECHANISMS[index % len(self.MECHANISMS)]
        specs = self._specs(index, switch)
        table = switch.table
        want = len(table) + self.BATCH
        started = time.perf_counter()
        if mechanism == "file":
            for name, match, actions in specs:
                self.pusher.create_flow(fs_name, name, match, actions, priority=100)
        elif mechanism == "ring":
            if self.pusher.create_flows_batched(fs_name, specs, priority=100) != self.BATCH:
                return False
        else:
            for name, match, actions in specs:
                self.lib.stage_flow(fs_name, name, match, actions, priority=100)
            self.lib.flush()
        if not self.step_until(lambda: len(table) >= want):
            return False
        self.install_s[mechanism].append(time.perf_counter() - started)
        ok = self._in_hardware(table, specs)
        self.live.append((switch_name, [name for name, _m, _a in specs]))
        if len(self.live) > self.LIVE:
            ok = self._retire(*self.live.pop(0)) and ok
        return ok

    @staticmethod
    def _in_hardware(table, specs) -> bool:
        """The hardware entries equal the written specs: match, priority, action."""
        installed = {entry.match: entry for entry in table.entries()}
        for _name, match, actions in specs:
            entry = installed.get(match)
            if entry is None or entry.priority != 100 or list(entry.actions) != actions:
                return False
        return True

    def _retire(self, switch_name: str, names: list[str]) -> bool:
        table = self.ctl.net.switches[switch_name].table
        fs_name = self.ctl.fs_name_of(switch_name)
        want = len(table) - len(names)
        for name in names:
            self.admin.delete_flow(fs_name, name)
        return self.step_until(lambda: len(table) <= want)

    def finish(self) -> list[str]:
        errors = super().finish()
        self.ctl.run(0.01)
        for switch_name, switch in self.ctl.net.switches.items():
            in_fs = len(self.admin.flows(self.ctl.fs_name_of(switch_name)))
            if in_fs != len(switch.table):
                errors.append(f"{switch_name}: {in_fs} flows in the file system, {len(switch.table)} in hardware")
        return errors


# -- Clos: read-heavy management ticks -------------------------------------------------------


class MonitorClos(Workload):
    name = "monitor_clos"
    why = (
        "the same vfs used read-heavy (listdir, scandir, read_text, dcache) beside small counter writes: "
        "a change that speeds flow writes at the cost of reads, invalidations or notify fan-out shows only here"
    )
    det_ops = (30, 5)

    FLOWS_PER_SWITCH = 50
    DATAGRAMS_PER_TICK = 8

    def build(self) -> None:
        net = build_clos(2, 4, hosts_per_leaf=2)
        self.ctl = ctl = YancController(net).start()
        host = ctl.host
        self.topod = TopologyDaemon(host.process(name="topod"), ctl.sim).start()
        self.acctd = AccountingDaemon(host.process(name="acctd"), ctl.sim, interval=1.0).start()
        pusher = ctl.client(name="pusher")
        # Every switch holds the same prefixes; the action consumes the
        # packet (output:local), so test traffic moves the leaf counters
        # and goes no further.
        second_octet = self.rng.randrange(16, 240)
        self.prefixes = [IPv4Network(f"10.{second_octet}.{j}.0/24") for j in range(self.FLOWS_PER_SWITCH)]
        specs = [
            (f"m{j}", Match(dl_type=ETH_TYPE_IPV4, nw_dst=prefix), [Output(LOCAL)])
            for j, prefix in enumerate(self.prefixes)
        ]
        for switch_name in sorted(net.switches):
            if pusher.create_flows_batched(ctl.fs_name_of(switch_name), specs, priority=100) != len(specs):
                raise RuntimeError("set-up flows were not created")
        sink = MacAddress(0x0A_FF_00_00_00_01)
        self.hosts = list(net.hosts.values())
        for sender in self.hosts:
            for prefix in self.prefixes:
                sender.arp_table[prefix.network_address + 1] = sink
        where = net.host_ports()
        self.leaf_of = {h.name: where[h.name][0] for h in self.hosts}
        self.sent: dict[tuple[str, int], int] = {}
        self.shell = Shell(host.process(cred=ROOT, name="operator").sc)
        self.sw1 = next(sw for name, sw in net.switches.items() if ctl.fs_name_of(name) == "sw1")
        ctl.run(1.0 - ctl.sim.now % 1.0 + 0.5)  # flows land; ticks then start mid-way between polls
        expected = self.FLOWS_PER_SWITCH + 1  # + the topology daemon's LLDP punt
        if any(len(sw.table) != expected for sw in net.switches.values()):
            raise RuntimeError("set-up flows did not reach hardware")
        if not self.op(-1):
            raise RuntimeError("warm-up tick failed")

    def apps(self) -> dict[str, object]:
        return {"acctd": self.acctd}

    def op(self, index: int) -> bool:
        """One management tick: a simulated second of polling, then an operator looks."""
        ctl = self.ctl
        for _ in range(self.DATAGRAMS_PER_TICK):
            sender = self.rng.choice(self.hosts)
            slot = self.rng.randrange(len(self.prefixes))
            size = self.rng.choice((64, 512, 1400))
            sender.send_udp(self.prefixes[slot].network_address + 1, 4000, 4000, b"\0" * size)
            key = (self.leaf_of[sender.name], slot)
            self.sent[key] = self.sent.get(key, 0) + 1
        ctl.sim.run_for(1.0)
        self.sim_done = ctl.sim.now
        shell = self.shell
        listing = shell.run("ls -l /net/switches/sw1/flows")
        found = shell.run("find /net/switches -name packet_count")
        counters = shell.run("cat /proc/counters")
        # Sample one counter file a datagram has moved; compare it with the
        # switch's own counter (no traffic since the last poll).
        (leaf, slot), sent = self.rng.choice(sorted(self.sent.items()))
        sampled = shell.run(f"cat /net/switches/{ctl.fs_name_of(leaf)}/flows/m{slot}/counters/packet_count")
        entry = self._entry(leaf, slot)
        in_hardware = sum(len(sw.table) for sw in ctl.net.switches.values())
        return (
            entry is not None
            and int(sampled.strip() or "-1") == entry.packet_count == sent
            and len(found.splitlines()) == in_hardware
            and len(listing.splitlines()) == len(self.sw1.table)
            and "proc.dispatches" in counters
        )

    def _entry(self, leaf: str, slot: int):
        for entry in self.ctl.net.switches[leaf].table.entries():
            if entry.match.nw_dst == self.prefixes[slot]:
                return entry
        return None


WORKLOADS = {cls.name: cls for cls in (ReactiveFatTree, ForwardFatTree, BulkCampus, MonitorClos)}
