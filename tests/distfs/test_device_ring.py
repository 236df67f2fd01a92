"""A device over a remote mount takes the same ring as a local translator (§7.1, §8.1).

The per-syscall packet-in fan-out and poll round a device used to run
are kept here as the reference.  Through the ring, over a strict or a
cached mount, a fan-out and a poll round issue the same RPCs, leave the
same buffer entries and hand over the same commits and removals — in
fewer system calls.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataplane import Match, Output, build_linear
from repro.dataplane.switch import NO_BUFFER, PacketInReason
from repro.distfs import DeviceRuntime, FileServer
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Udp
from repro.netpkt.packet import build_frame
from repro.runtime import ControllerHost
from repro.vfs import O_CREAT, O_DIRECTORY, O_TRUNC, O_WRONLY, FileNotFound, FsError
from repro.yancfs.client import DL_TYPE_XATTR, dl_type_filter, read_object
from repro.yancfs.translate import MAX_PENDING_EVENTS, FlowFollower

_PACKET = {"in_port": 1, "reason": "no_match", "buffer_id": NO_BUFFER, "total_len": 4, "data": b"ping"}


def _fan_out_per_syscall(device: DeviceRuntime, seq: int) -> tuple[int, int]:
    """The reference: list ``events/``, then per buffer a probe, its declaration and a maildir publish, a system call per step."""
    yc, switch = device.yc, device.fs_name
    published = dropped = 0
    try:
        eth_type = Ethernet.unpack(_PACKET["data"]).eth_type
    except ValueError:
        eth_type = None  # matches no declaration
    try:
        apps = yc.sc.listdir(f"{yc.switch_path(switch)}/events")
    except FsError:
        apps = []
    for app in apps:
        try:
            pending = len(yc.sc.listdir(yc.events_path(switch, app)))
        except FsError:
            continue
        try:
            rule = dl_type_filter(yc.sc.getxattr(yc.events_path(switch, app), DL_TYPE_XATTR))
        except FsError:
            rule = None
        if rule is not None and (eth_type is None or rule[0] == (eth_type in rule[1])):
            continue
        if pending >= MAX_PENDING_EVENTS:
            dropped += 1
            continue
        try:
            yc.write_packet_in(switch, app, seq, **_PACKET)
            published += 1
        except FsError:
            continue
    if dropped:
        device._count(f"events.dropped.{device.proc_name}", dropped)
    return published, dropped


def _poll_per_syscall(follower: FlowFollower) -> None:
    """The reference: the same reconciliation, a ``read_flow`` per flow."""
    for _follower, name, step in follower._reconcile("sync"):
        if step == "forget":
            follower._forget(name)
            continue
        try:
            spec = follower.yc.read_flow(follower.switch, name)
        except FsError:
            spec = None
        follower._hand_over(name, spec)


class _World:
    """One master, one device over a remote mount, every RPC the device sends recorded."""

    def __init__(self, consistency: str) -> None:
        self.net = net = build_linear(1)
        self.master = ControllerHost(net.sim)
        self.device = DeviceRuntime(net.switches["sw1"], self.master, server=FileServer(self.master.root_sc.spawn(), "/net"), consistency=consistency)
        self.device.on_start()  # registered in the tree; no periodic poll: the test drives every round
        self.rpcs: list[tuple] = []
        handler = self.device.channel.handler
        self.device.channel.handler = lambda op, args, cred: self.rpcs.append((op, args)) or handler(op, args, cred)
        self.log: list[tuple] = []
        self.follower = FlowFollower(self.device, self.device.yc, "sw1", lambda name, spec: self.log.append(("commit", name, spec.version)), lambda name: self.log.append(("remove", name)))
        self.yc = self.master.client()

    def punt(self, data: bytes) -> None:
        """The switch punts ``data`` at port 1; the device publishes it as a burst of one (the flush its run loop would schedule)."""
        self.device.packet_in(self.device.switch, 1, PacketInReason.NO_MATCH, 0, data, len(data))
        self.device._packet_ins.flush()

    def step(self, action) -> tuple[Counter, int]:
        """Run ``action``: the RPCs it sent (as a multiset) and the device's system calls."""
        rpcs, syscalls = len(self.rpcs), self.device.sc.meter.syscalls
        action()
        return Counter(self.rpcs[rpcs:]), self.device.sc.meter.syscalls - syscalls

    def buffers(self) -> dict[str, dict[str, dict[str, bytes]]]:
        base = self.yc.events_path("sw1", "")
        return {app: {name: read_object(self.yc.sc, f"{base}{app}/{name}") for name in sorted(self.yc.sc.listdir(f"{base}{app}"))} for app in self.yc.sc.listdir(base)}


#: The ring writes a buffer entry's files under a descriptor of the
#: directory its chain made, so a strict mount (a look-up is an RPC) no
#: longer revalidates the entry's ancestors for each of its files: per
#: fan-out these ``readdir`` RPCs fall by this much (23 → 15 and 9 → 5
#: with no runtime tool installed, each side's count including the look-ups
#: of one ``getxattr`` per buffer; yancrace's own look-ups add the same
#: to both sides); every mutating RPC is the reference's.
_DIRFD_SAVES = {
    "strict": Counter(
        {("readdir", (path,)): 20 - 12 for path in ("", "switches", "switches/sw1", "switches/sw1/events")}
        | {("readdir", (f"switches/sw1/events/{app}",)): 9 - 5 for app in ("a", "b")}
    ),
    "cached": Counter(),
}


@pytest.mark.parametrize("consistency", ["strict", "cached"])
def test_a_fan_out_over_a_remote_mount_sends_the_reference_rpcs_in_fewer_syscalls(consistency):
    ring, reference = _World(consistency), _World(consistency)
    for world in (ring, reference):
        for app in ("a", "b", "full"):
            world.yc.sc.mkdir(world.yc.events_path("sw1", app))
        for seq in range(MAX_PENDING_EVENTS):  # a slow consumer: its buffer is at the bound
            world.yc.sc.mkdir(f"{world.yc.events_path('sw1', 'full')}/pi_x{seq}")
    for seq in (1, 2):
        rpcs, syscalls = ring.step(lambda: ring.punt(b"ping"))
        reference_rpcs, reference_syscalls = reference.step(lambda: _fan_out_per_syscall(reference.device, seq))
        assert rpcs + _DIRFD_SAVES[consistency] == reference_rpcs and syscalls < reference_syscalls
    assert (ring.device.events_published, ring.device.events_dropped) == (4, 2)
    assert ring.buffers() == reference.buffers()
    assert ring.master.vfs.counters.get("events.dropped.dev-sw1") == reference.master.vfs.counters.get("events.dropped.dev-sw1") == 2


def test_a_declaration_withholds_a_frame_and_its_rpcs_over_a_strict_mount():
    """A buffer declaring LLDP alone gets no IPv4 packet-in, and the publish it is spared is RPCs the mount never sends."""
    declared, plain = _World("strict"), _World("strict")
    for world in (declared, plain):
        world.yc.subscribe_events("sw1", "topod", "0x88cc" if world is declared else None)
        world.yc.subscribe_events("sw1", "router")
    frame = build_frame(Ethernet(dst="02:00:00:00:00:02", src="02:00:00:00:00:01", eth_type=ETH_TYPE_IPV4), IPv4("10.0.0.1", "10.0.0.2", 17), Udp(1, 9, payload=b"x"))
    totals = {}
    for world in (declared, plain):
        rpcs, _syscalls = world.step(lambda: world.punt(frame))
        totals[world] = sum(rpcs.values())
        assert [files["data"] for files in world.buffers()["router"].values()] == [frame]
    assert declared.buffers()["topod"] == {} and len(plain.buffers()["topod"]) == 1
    assert totals[declared] < totals[plain]
    assert (declared.device.events_published, declared.device.events_dropped) == (1, 0)
    assert declared.master.vfs.counters.get("events.filtered.dev-sw1") == 1 and plain.master.vfs.counters.get("events.filtered.dev-sw1") == 0


@pytest.mark.parametrize("consistency", ["strict", "cached"])
def test_a_poll_round_over_a_remote_mount_sends_the_reference_rpcs_in_fewer_syscalls(consistency):
    ring, reference = _World(consistency), _World(consistency)

    def round_on_both(change) -> None:
        for world in (ring, reference):
            change(world.yc)
            world.net.run(1.0)  # past a cached mount's TTL: the round sees the change
        rpcs, syscalls = ring.step(ring.follower.poll)
        reference_rpcs, reference_syscalls = reference.step(lambda: _poll_per_syscall(reference.follower))
        assert rpcs == reference_rpcs and syscalls < reference_syscalls
        assert ring.log == reference.log and ring.follower.versions == reference.follower.versions

    def first(yc) -> None:
        for index in range(4):
            yc.create_flow("sw1", f"f{index}", Match(in_port=index + 1), [Output(1)], priority=5)
        yc.create_flow("sw1", "staged", Match(in_port=9), [Output(1)], commit=False)

    def second(yc) -> None:
        yc.commit_flow("sw1", "f0")
        yc.delete_flow("sw1", "f1")
        yc.commit_flow("sw1", "staged")
        yc.create_flow("sw1", "f4", Match(in_port=5), [Output(2)])

    round_on_both(first)
    round_on_both(second)
    assert ring.log == [("commit", f"f{index}", 1) for index in range(4)] + [("remove", "f1"), ("commit", "f0", 2), ("commit", "f4", 1), ("commit", "staged", 1)]


def test_a_dirfd_whose_directory_the_server_removed_creates_nothing():
    """Strict mount: the create under the descriptor asks the server, which has no such directory any more."""
    world = _World("strict")
    base = world.yc.events_path("sw1", "a")
    world.yc.sc.mkdir(base)
    sc = world.device.sc
    fd = sc.open(base, O_DIRECTORY)
    world.yc.sc.rmdir(base)  # on the master: the server's tree

    def create() -> None:
        with pytest.raises(FileNotFound):
            sc.open("in_port", O_WRONLY | O_CREAT | O_TRUNC, dir_fd=fd)

    rpcs, _syscalls = world.step(create)
    assert set(rpcs) == {("readdir", ("switches/sw1/events/a",))}  # a look-up, and nothing published
    sc.close(fd)
    assert world.yc.sc.listdir(world.yc.events_path("sw1", "")) == []
