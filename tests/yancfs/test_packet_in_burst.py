"""A burst of packet-ins ends where handing them over one at a time would (§3.5).

The reference is :func:`~repro.yancfs.translate.fan_out_packet_ins` given
one-element bursts in arrival order: the fan-out a driver made per
packet-in before the packet-ins of one simulated instant were queued.
Over random bursts — 1–40 packet-ins over 1–4 switches; 0–3 apps, each
declaring an ethertype or not; buffers filled to within a few entries of
:data:`~repro.yancfs.translate.MAX_PENDING_EVENTS`; a buffer removed
before the flush; a publisher that keeps a subscriber list or lists
``events/`` — both sides leave the same objects (names and file bytes),
announce them in the same per-buffer ``IN_MOVED_TO`` order, count the
same filtered and dropped events and give each packet-in the same drop
count (what a driver adds to its binding's ``dropped_events``).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import TopologyDaemon
from repro.netpkt import ETH_TYPE_ARP, ETH_TYPE_IPV4, IPPROTO_UDP, Arp, Ethernet, IPv4, MacAddress, Udp, ip
from repro.netpkt.packet import build_frame
from repro.runtime import ControllerHost
from repro.vfs import EventMask
from repro.vfs.cred import ROOT
from repro.yancfs.client import DL_TYPE_XATTR, YancClient, packet_in_files, read_object
from repro.yancfs.translate import MAX_PENDING_EVENTS, fan_out_packet_ins, packet_in_queue

_A, _B = MacAddress("02:00:00:00:00:01"), MacAddress("02:00:00:00:00:02")
_FRAMES = [
    TopologyDaemon._beacon("s9", 3),
    build_frame(Ethernet(dst=_B, src=_A, eth_type=ETH_TYPE_IPV4), IPv4(ip("10.0.0.1"), ip("10.0.0.2"), IPPROTO_UDP), Udp(1, 9, payload=b"x")),
    build_frame(Ethernet(dst=_B, src=_A, eth_type=ETH_TYPE_ARP), Arp.request(_A, ip("10.0.0.1"), ip("10.0.0.2"))),
    b"\x01\x02",  # a header that does not decode
]
_DECLARATIONS = [None, b"0x88cc", b"!0x88cc", b"0x0806", b"junk"]
#: entries a buffer holds before the burst: none, or within a few of the bound
_FILLS = st.sampled_from([0, MAX_PENDING_EVENTS - 3, MAX_PENDING_EVENTS - 2, MAX_PENDING_EVENTS - 1, MAX_PENDING_EVENTS])


@st.composite
def _scenes(draw):
    switches = draw(st.integers(1, 4))
    apps = draw(st.lists(st.sampled_from(_DECLARATIONS), max_size=3))
    fills = {(s, a): draw(_FILLS) for s in range(switches) for a in range(len(apps))}
    removed = draw(st.none() | st.sampled_from(sorted(fills))) if fills else None
    arrivals = draw(st.lists(st.tuples(st.integers(0, switches - 1), st.integers(0, len(_FRAMES) - 1), st.integers(1, 8)), min_size=1, max_size=40))
    return switches, apps, fills, removed, arrivals, draw(st.booleans())


def _world(switches: int, apps: list, fills: dict, removed: tuple | None) -> tuple[YancClient, object, dict]:
    """The buffers, filled and declared, one removed; an inotify instance watching the rest for ``IN_MOVED_TO``."""
    yc = ControllerHost().client(cred=ROOT)
    for s in range(switches):
        yc.create_switch(f"s{s}")
        for a, declaration in enumerate(apps):
            path = yc.subscribe_events(f"s{s}", f"app{a}")
            if declaration is not None:
                yc.sc.setxattr(path, DL_TYPE_XATTR, declaration)
            batch = yc.sc.ring.batch()
            for n in range(fills[s, a]):
                batch.prep("mkdir", f"{path}/pi_x{n}")
            batch.submit()
    if removed is not None:
        path = yc.events_path(f"s{removed[0]}", f"app{removed[1]}")
        for name in yc.sc.listdir(path):
            yc.sc.rmdir(f"{path}/{name}")
        yc.sc.rmdir(path)
    ino = yc.sc.inotify_init()
    wds = {yc.sc.inotify_add_watch(ino, yc.events_path(f"s{s}", f"app{a}"), EventMask.IN_MOVED_TO): (s, a) for s, a in fills if (s, a) != removed}
    return yc, ino, wds


def _burst(apps: list, arrivals: list, listed: bool) -> list:
    """``(switch, seq, apps, fields)`` per arrival, each switch numbering its own; a kept subscriber list still names a removed buffer."""
    seqs: Counter = Counter()
    burst = []
    for s, frame, in_port in arrivals:
        seqs[s] += 1
        data = _FRAMES[frame]
        burst.append((f"s{s}", seqs[s], None if listed else [f"app{a}" for a in range(len(apps))], packet_in_files(in_port, "action", 0, len(data), data)))
    return burst


def _outcome(yc: YancClient, ino, wds: dict) -> tuple:
    """Every published object (names and bytes), each buffer's ``IN_MOVED_TO`` names in order, the process's counters."""
    objects = {}
    for s, a in wds.values():
        path = yc.events_path(f"s{s}", f"app{a}")
        objects[s, a] = {name: read_object(yc.sc, f"{path}/{name}") for name in yc.sc.listdir(path) if not name.startswith("pi_x")}
    moved: dict = {key: [] for key in wds.values()}
    for event in yc.sc.inotify_read(ino):
        moved[wds[event.wd]].append(event.name)
    counters = yc.sc.vfs.counters
    return objects, moved, counters.get(f"events.filtered.{yc.sc.proc_name}"), counters.get(f"events.dropped.{yc.sc.proc_name}")


@settings(max_examples=25, deadline=None)
@given(_scenes())
def test_a_burst_ends_where_one_packet_in_at_a_time_would(scene):
    switches, apps, fills, removed, arrivals, listed = scene
    burst_world, reference_world = _world(switches, apps, fills, removed), _world(switches, apps, fills, removed)
    burst = _burst(apps, arrivals, listed)

    published, dropped = fan_out_packet_ins(burst_world[0].sc, burst_world[0], burst)
    reference_published, reference_dropped = 0, []
    for packet_in in burst:
        one, lost = fan_out_packet_ins(reference_world[0].sc, reference_world[0], [packet_in])
        reference_published, reference_dropped = reference_published + one, reference_dropped + lost

    assert (published, dropped) == (reference_published, reference_dropped)
    assert len(dropped) == len(burst)
    assert _outcome(*burst_world) == _outcome(*reference_world)


def test_what_a_dead_process_queued_is_dropped_and_the_next_instant_flushes_again():
    """A process that stops between a packet-in and its flush publishes nothing of it, and once running again its next packet-in is flushed (the queue is not left waiting on a flush that never ran)."""
    host = ControllerHost()
    admin = host.client(cred=ROOT)
    admin.create_switch("s0")
    admin.subscribe_events("s0", "app")
    feeder = host.process(cred=ROOT, name="feeder").start()
    flushed = []
    queue = packet_in_queue(feeder, YancClient(feeder), lambda owners, published, dropped: flushed.append((owners, published)))
    queue.put("lost", "s0", 1, ["app"], packet_in_files(1, "action", 0, 4, b"ping"))
    feeder.stop()
    host.sim.run_for(0.1)  # the flush finds its process gone
    feeder.start()
    queue.put("kept", "s0", 2, ["app"], packet_in_files(1, "action", 0, 4, b"pong"))
    host.sim.run_for(0)
    assert flushed == [(["kept"], 1)]
    assert admin.sc.listdir(admin.events_path("s0", "app")) == ["pi_2"]
