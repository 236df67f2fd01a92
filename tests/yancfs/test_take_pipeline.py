"""The consumer side of §3.5: a wakeup's run of buffer or spool events is one ring take, and parity is the contract.

A packet-in app takes every entry a run of buffer events announces in
one submission and removes the complete ones in a second; the driver
takes a run of ``packet_out`` entries as one linked ``open → read →
close → unlink`` chain each, all in one submission.  What each did
before — drain the whole buffer on every event, and take one spool
entry per event, a system call per step — stays here as the reference:
over random interleavings of writers and wakeups both must hand the
same packet-ins to ``handle_packet_in`` in the same order, put the same
messages on the wire, and leave the same entries behind.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import PacketInApp
from repro.dataplane import build_linear
from repro.drivers import OpenFlowDriver
from repro.netpkt import ETH_TYPE_IPV4, Ethernet, MacAddress
from repro.proc import ProcessTable
from repro.runtime import YancController
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import PacketInEvent, YancClient, mount_yancfs, packet_out_name, parse_packet_out_name
from repro.yancfs.translate import PacketOut, spooled

from test_read_pipeline import loop_read

_FIELDS = ("in_port", "reason", "buffer_id", "total_len", "data")


# -- the references: the consumers as they were, a system call per step -------------------


def loop_drain_events(yc: YancClient, switch: str, app: str) -> list[PacketInEvent]:
    """The whole buffer, oldest first: a ``listdir``, the fields of each entry file by file, an ``rmdir`` per event taken."""
    base = yc.events_path(switch, app)
    events = []
    for entry in sorted(yc.sc.listdir(base), key=lambda name: int(name.rsplit("_", 1)[-1])):
        if entry.startswith("."):
            continue  # maildir temp: still being assembled
        fields = loop_read(yc.sc, f"{base}/{entry}")
        try:
            event = PacketInEvent(
                switch=switch,
                seq=int(entry.rsplit("_", 1)[-1]),
                in_port=int(fields["in_port"]),
                reason=fields["reason"].decode().strip(),
                buffer_id=int(fields["buffer_id"]),
                total_len=int(fields["total_len"]),
                data=fields["data"],
            )
        except (KeyError, ValueError):
            continue  # a field is missing, or created and not yet written
        events.append(event)
        yc.sc.rmdir(f"{base}/{entry}")
    return events


def loop_take_packet_out(yc: YancClient, switch: str, name: str) -> PacketOut | None:
    """One spool entry: read it, unlink it, parse its name; None when it is gone."""
    path = f"{yc.switch_path(switch)}/packet_out/{name}"
    try:
        data = yc.sc.read_bytes(path)
        yc.sc.unlink(path)
    except FsError:
        return None
    return PacketOut(name, *parse_packet_out_name(name), data)


class _Taker(PacketInApp):
    """Records what reaches ``handle_packet_in``."""

    def __init__(self, proc, sim, *, name):
        super().__init__(proc, sim, name=name)
        self.handled: list[PacketInEvent] = []

    def handle_packet_in(self, event):
        self.handled.append(event)


class _LoopTaker(_Taker):
    """The app as it was: every non-temp buffer event drains the whole buffer, a system call per step."""

    run_kinds = ()

    def on_event(self, ctx, event):
        if ctx[0] != "buffer":
            return super().on_event(ctx, event)
        if event.name and event.name.startswith("."):
            return
        for pkt in loop_drain_events(self.yc, ctx[1], self.app_name):
            self.handle_packet_in(pkt)


class _LoopDriver(OpenFlowDriver):
    """The driver as it was: a spool entry per event, a system call per step."""

    run_kinds = ()

    def on_event(self, ctx, event):
        if ctx[0] != "pktout":
            return super().on_event(ctx, event)
        binding, name = self.bindings.get(ctx[1]), spooled(event)
        out = loop_take_packet_out(self.yc, binding.fs_name, name) if binding is not None and name is not None else None
        if out is not None:
            self._transmit(binding, out)


# -- packet-ins ------------------------------------------------------------------------------

_SWITCHES = ("s1", "s2", "s3")
_PI_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.sampled_from(_SWITCHES), st.just(0)),
        st.tuples(st.just("foreign"), st.sampled_from(_SWITCHES), st.integers(0, len(_FIELDS))),  # a bare mkdir, then that many fields
        st.tuples(st.just("complete"), st.sampled_from(_SWITCHES), st.just(0)),  # the rest of a foreign entry's fields
        st.tuples(st.just("switch"), st.sampled_from(_SWITCHES), st.just(0)),  # a switch appears: both apps subscribe
        st.tuples(st.just("wake"), st.just(""), st.just(0)),
    ),
    max_size=24,
)


def _foreign_fields(seq: int) -> list[tuple[str, bytes]]:
    return list(zip(_FIELDS, (str(seq % 7).encode(), b"no_match", str(seq).encode(), b"3", bytes([seq % 256]) * 3)))


@settings(max_examples=60, deadline=None)
@given(_PI_OPS)
def test_a_run_of_buffer_events_hands_over_what_a_drain_per_event_did(ops):
    sim = Simulator()
    sc = Syscalls(VirtualFileSystem(clock=lambda: sim.now))
    mount_yancfs(sc)
    table = ProcessTable(sc, sim)
    writer = YancClient(sc)
    writer.create_switch("s1")
    apps = (_Taker(table.spawn(), sim, name="batched").start(), _LoopTaker(table.spawn(), sim, name="looped").start())
    partial: dict[str, list[tuple[int, int]]] = {}  # switch -> (seq, fields written) of foreign entries being filled
    for seq, (op, switch, count) in enumerate(ops, start=1):
        buffers = [writer.events_path(switch, app.app_name) for app in apps]
        if op == "wake":
            sim.run_until(sim.now + 0.01)
        elif op == "switch":
            if not sc.exists(writer.switch_path(switch)):
                writer.create_switch(switch)
        elif not all(sc.exists(buffer) for buffer in buffers):
            continue  # not subscribed yet
        elif op == "publish":
            for app in apps:
                writer.write_packet_in(switch, app.app_name, seq, in_port=seq % 7, reason="action", buffer_id=seq, total_len=3, data=b"pub")
        elif op == "foreign":
            for buffer in buffers:
                sc.mkdir(f"{buffer}/pi_{seq}")
                for name, data in _foreign_fields(seq)[:count]:
                    sc.write_bytes(f"{buffer}/pi_{seq}/{name}", data)
            partial.setdefault(switch, []).append((seq, count))
        elif op == "complete" and partial.get(switch):
            entry, count = partial[switch].pop(0)
            for buffer in buffers:
                for name, data in _foreign_fields(entry)[count:]:
                    if sc.exists(f"{buffer}/pi_{entry}"):
                        sc.write_bytes(f"{buffer}/pi_{entry}/{name}", data)
    sim.run_until(sim.now + 0.01)
    batched, looped = apps
    assert batched.handled == looped.handled
    for switch in _SWITCHES:
        if sc.exists(writer.switch_path(switch)):
            left = [sorted(sc.listdir(writer.events_path(switch, app.app_name))) for app in apps]
            assert left[0] == left[1]


# -- packet_out spools ---------------------------------------------------------------------------

_SPOOL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("out"), st.sampled_from(["sw1", "sw2"]), st.sampled_from([[1], [2], ["flood"], [1, 2]])),
        st.tuples(st.just("ring"), st.sampled_from(["sw1", "sw2"]), st.integers(1, 4)),  # one submission writing several entries
        st.tuples(st.just("portless"), st.sampled_from(["sw1", "sw2"]), st.just(None)),  # consumed and discarded
        st.tuples(st.just("rewrite"), st.sampled_from(["sw1", "sw2"]), st.just(None)),  # one name written again before the wake
        st.tuples(st.just("wake"), st.just(""), st.just(None)),
    ),
    max_size=16,
)


def _wire(driver_cls, ops) -> tuple[list[tuple[int, str]], list[list[str]]]:
    """Every message the driver sent after start, per switch, and what was left in each spool."""
    ctl = YancController(build_linear(2))
    ctl.drivers.append(driver_cls(ctl.host.process(name="ofd", role="driver"), ctl.sim))
    ctl.start()
    sent: list[tuple[int, str]] = []
    for binding in ctl.drivers[0].bindings.values():
        def record(msg, binding=binding, send=binding.send):
            send(msg)
            sent.append((binding.switch.dpid, repr(msg)))
        binding.send = record
    yc, batch = ctl.client(name="spooler"), ctl.host.root_sc.io_uring_setup().batch()
    frame = Ethernet(dst=ctl.net.hosts["h1"].mac, src=MacAddress(0x42), eth_type=ETH_TYPE_IPV4, payload=b"spooled").pack()
    for seq, (op, switch, arg) in enumerate(ops, start=1):
        spool = f"{yc.switch_path(switch)}/packet_out"
        if op == "out":
            yc.packet_out(switch, arg, frame + bytes([seq]), tag="app")
        elif op == "ring":
            for index in range(arg):
                batch.prep_write_file(f"{spool}/{packet_out_name([1 + index % 2], 'rng', seq * 10 + index)}", frame)
            batch.submit()
        elif op == "portless":
            yc.sc.write_bytes(f"{spool}/nonsense.tag.{seq}", b"dropped")
        elif op == "rewrite":
            for data in (b"first", frame):
                yc.sc.write_bytes(f"{spool}/p2.again.1", data)
        else:
            ctl.run(0.01)
    ctl.run(0.01)
    return sent, [sorted(yc.sc.listdir(f"{yc.switch_path(switch)}/packet_out")) for switch in ("sw1", "sw2")]


@settings(max_examples=25, deadline=None)
@given(_SPOOL_OPS)
def test_a_run_of_spool_events_puts_on_the_wire_what_an_entry_per_event_did(ops):
    batched, looped = _wire(OpenFlowDriver, ops), _wire(_LoopDriver, ops)
    assert batched == looped
    assert batched[1] == [[], []]  # and every spool ends empty
