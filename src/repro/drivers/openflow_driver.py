"""OpenFlow device drivers: the bridge between yancfs and switches.

A driver (paper section 4.1) is "a thin component which speaks the
programming protocol supported by a collection of switches".  Each
:class:`OpenFlowDriver` instance speaks exactly one protocol version over
per-switch control channels, and interacts with the rest of the system
*only through the file system*:

* committed flow directories (version increments) become flow-mods;
* flow directory removal becomes a strict delete;
* ``config.port_down`` writes become port-mods;
* packet-ins become event directories in every subscribed app buffer;
* flow-removed/port-status messages and periodic stats polls update the
  corresponding files.

Because all driver state that matters lives in the tree, a switch can be
detached from an OpenFlow 1.0 driver and attached to a 1.3 driver live:
the new driver re-reads the committed flows and re-asserts them (paper:
"nodes in such a system can therefore be gradually upgraded, live, to
newer protocols").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.controlchannel import ControlConnection, connect
from repro.dataplane.actions import parse_action
from repro.dataplane.match import Match
from repro.dataplane.switch import SwitchSim
from repro.openflow import messages as m
from repro.openflow.agent import SwitchAgent
from repro.openflow.codec import codec_for, negotiate, peek_version
from repro.openflow.of10 import VERSION as OF10_VERSION
from repro.openflow.of13 import VERSION as OF13_VERSION
from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FsError
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import FlowSpec, YancClient
from repro.yancfs.translate import DIR_MASK, FILE_MASK, SPOOL_MASK, FlowFollower, PacketOut, fan_out_packet_in, follow_flows, spooled, take_packet_out


@dataclass
class SwitchBinding:
    """One driver <-> switch session."""

    driver: "OpenFlowDriver"
    switch: SwitchSim
    conn: ControlConnection
    agent: SwitchAgent
    fs_name: str = ""
    dpid: int = 0
    version: int | None = None
    ready: bool = False
    #: flow directory -> the (match, priority) the driver believes is in hardware for it
    flows: dict[str, tuple[Match, int]] = field(default_factory=dict)
    follower: FlowFollower | None = None
    #: ``("flows", name)`` / ``("ports", name)`` -> counter file -> the value whose write last completed ok;
    #: it dies with the session, so a restarted or live-upgraded driver rewrites everything once
    counters: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)
    event_apps: list[str] = field(default_factory=list)
    _suppressed: set[str] = field(default_factory=set)
    _rx: bytes = b""
    _xid: int = 0
    _event_seq: int = 0
    dropped_events: int = 0
    #: times a header's length fell below the header itself and the buffered bytes were dropped
    framing_errors: int = 0

    # -- wire ------------------------------------------------------------------

    def send(self, msg: m.Message) -> None:
        """Encode and transmit under the session's (or driver's) version."""
        if msg.xid == 0:
            self._xid += 1
            msg.xid = self._xid
        version = self.version if self.version is not None else self.driver.version
        self.conn.send(codec_for(version).encode(msg))

    def on_data(self, data: bytes) -> None:
        """Reassemble and dispatch incoming wire messages.

        A message that does not decode is skipped by its length.  A length
        below the 8-byte header means the framing is lost: the switch gets
        one ``BAD_REQUEST``/``BAD_LEN`` error, the buffered bytes are
        dropped and the loss is counted, and the session reads on from the
        next bytes to arrive.
        """
        self._rx += data
        while len(self._rx) >= 8:
            length = int.from_bytes(self._rx[2:4], "big")
            if length < 8:
                self.framing_errors += 1
                self.driver._count(f"openflow.framing_lost.{self.driver.proc_name}")
                self.send(m.ErrorMsg(err_type=m.OFPET_BAD_REQUEST, err_code=m.OFPBRC_BAD_LEN, data=self._rx[:64]))
                self._rx = b""
                return
            if len(self._rx) < length:
                return
            try:
                msg, self._rx = codec_for(peek_version(self._rx)).decode(self._rx)
            except ValueError:  # a CodecError, or a field outside its enum
                self._rx = self._rx[length:]
                continue
            self.driver.handle_message(self, msg)

    def close(self) -> None:
        """Tear the session down (file-system state is left intact)."""
        self.agent.detach()
        self.conn.close()


class OpenFlowDriver(Process):
    """One driver process for one protocol version.

    The run loop (epoll over the driver's watches), watch bookkeeping,
    periodic tasks, and crash containment are inherited from
    :class:`~repro.proc.process.Process`; a driver is live — running, as
    a process — from construction.
    """

    run_kinds = ("flows", "pktout")

    def __init__(
        self,
        sc: "Syscalls | Process",
        sim: Simulator,
        *,
        version: int = OF10_VERSION,
        name: str = "",
        root: str = "/net",
        channel_latency: float = 5e-4,
        stats_interval: float = 1.0,
    ) -> None:
        if version not in (OF10_VERSION, OF13_VERSION):
            raise ValueError(f"unsupported driver version {version:#x}")
        driver_name = name or f"of{'10' if version == OF10_VERSION else '13'}-driver"
        super().__init__(sc, sim, name=driver_name)
        self.version = version
        self.name = driver_name
        self.yc = YancClient(self.sc, root)
        self.channel_latency = channel_latency
        self.stats_interval = stats_interval
        self.bindings: dict[int, SwitchBinding] = {}
        self._stats_task = None
        self._root_watch_added = False
        self.flow_mods_sent = 0
        self.packet_ins_handled = 0
        self.start()

    # -- lifecycle ---------------------------------------------------------------

    def attach_switch(self, switch: SwitchSim) -> SwitchBinding:
        """Open a session to ``switch`` and (on features) populate the tree."""
        driver_end, agent_end = connect(
            self.sim,
            latency=self.channel_latency,
            counters=self.sc.vfs.counters,
            names=(f"{self.name}->{switch.name}", f"{switch.name}->{self.name}"),
        )
        agent = SwitchAgent(switch, agent_end)
        binding = SwitchBinding(driver=self, switch=switch, conn=driver_end, agent=agent)
        driver_end.on_data = binding.on_data
        agent.start()
        binding.send(m.Hello(version=self.version))
        binding.send(m.FeaturesRequest())
        self.bindings[switch.dpid] = binding
        if self._stats_task is None and self.stats_interval > 0:
            self._stats_task = self.every(self.stats_interval, self._poll_stats)
        return binding

    def detach_switch(self, dpid: int) -> None:
        """Close the session; the switch's subtree stays for the next driver."""
        binding = self.bindings.pop(dpid, None)
        if binding is None:
            return
        binding.close()
        if binding.follower is not None:
            binding.follower.detach()
        for ctx in [ctx for ctx in self._ctx_wds if len(ctx) > 1 and ctx[1] == dpid]:
            self.unwatch(ctx)

    def stop(self) -> None:
        """Detach every switch, stop periodic work, and exit."""
        for dpid in list(self.bindings):
            self.detach_switch(dpid)
        self._stats_task = None
        self._root_watch_added = False
        super().stop()

    # -- event dispatch -----------------------------------------------------------

    def on_run(self, kind: str, run) -> None:
        """A run of ``flows/`` events, or of ``packet_out`` spool events, across every switch, is taken in one submission."""
        if kind == "flows":
            follow_flows(self.ring, run)
            return
        entries = []
        for ctx, event in run:
            binding, name = self.bindings.get(ctx[1]), spooled(event)
            if binding is not None and name is not None:
                entries.append((binding, binding.fs_name, name))
        self._send_packet_outs(entries)

    def on_event(self, ctx: tuple, event) -> None:
        kind = ctx[0]
        if kind == "switches_root":
            self._on_root_event(event)
        elif kind == "port":
            self._on_port_event(ctx[1], ctx[2], event)
        elif kind == "events":
            self._on_events_dir_event(ctx[1], event)

    def on_overflow(self) -> None:
        """Lost notifications: per switch, re-learn the app buffers, reconcile the flows and take the whole spool.

        Port watches need no recovery: the driver adds them itself when it
        creates a port, not on a notification.
        """
        entries = []
        for binding in list(self.bindings.values()):  # yancperf: disable=syscall-in-loop (recovery re-reads each switch, once per overflow)
            if not binding.ready:
                continue
            path = self.yc.switch_path(binding.fs_name)
            try:
                binding.event_apps = self.sc.listdir(f"{path}/events")
                binding.follower.attach()
                entries += [(binding, binding.fs_name, name) for name in self.sc.listdir(f"{path}/packet_out")]
            except FsError:
                continue
        self._send_packet_outs(entries)

    # -- FS -> wire --------------------------------------------------------------------

    def _on_root_event(self, event) -> None:
        if event.mask & EventMask.IN_MOVED_TO and event.name:
            # A switch directory was renamed; adopt the new name.
            for binding in self.bindings.values():
                if binding.ready and not self.sc.exists(self.yc.switch_path(binding.fs_name)):
                    try:
                        if self.yc.switch_dpid(event.name) == binding.dpid:
                            binding.fs_name = binding.follower.switch = event.name
                    except FsError:
                        continue

    def _assert_flow(self, binding: SwitchBinding, flow_name: str, spec: FlowSpec) -> None:
        """A commit: add the flow; a changed match or priority retires the old entry first."""
        installed = binding.flows.get(flow_name)
        if installed is not None and installed != (spec.match, spec.priority):
            self._delete_strict(binding, *installed)
        binding.send(
            m.FlowMod(
                match=spec.match,
                command=m.FlowModCommand.ADD,
                actions=list(spec.actions),
                priority=spec.priority,
                idle_timeout=int(spec.idle_timeout),
                hard_timeout=int(spec.hard_timeout),
                cookie=spec.cookie,
                send_flow_rem=True,
            )
        )
        self.flow_mods_sent += 1
        binding.flows[flow_name] = (spec.match, spec.priority)

    def _retire_flow(self, binding: SwitchBinding, flow_name: str) -> None:
        """The flow directory went: a strict delete, unless the switch retired it first."""
        installed = binding.flows.pop(flow_name, None)
        binding.counters.pop(("flows", flow_name), None)
        if flow_name in binding._suppressed:
            binding._suppressed.discard(flow_name)
        elif installed is not None:
            self._delete_strict(binding, *installed)

    def _delete_strict(self, binding: SwitchBinding, match: Match, priority: int) -> None:
        binding.send(m.FlowMod(match=match, command=m.FlowModCommand.DELETE_STRICT, priority=priority))
        self.flow_mods_sent += 1

    def _on_port_event(self, dpid: int, port_name: str, event) -> None:
        if event.name != "config.port_down" or not event.mask & EventMask.IN_CLOSE_WRITE:
            return
        binding = self.bindings.get(dpid)
        if binding is None:
            return
        try:
            down = self.yc.port_is_down(binding.fs_name, port_name)
            port_no = int(port_name.rsplit("_", 1)[-1])
        except (FsError, ValueError):
            return
        binding.send(m.PortMod(port_no=port_no, down=down))

    def _on_events_dir_event(self, dpid: int, event) -> None:
        binding = self.bindings.get(dpid)
        if binding is None or event.name is None:
            return
        if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
            if event.name not in binding.event_apps:
                binding.event_apps.append(event.name)
        elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
            if event.name in binding.event_apps:
                binding.event_apps.remove(event.name)

    def _send_packet_outs(self, entries: list[tuple[SwitchBinding, str, str]]) -> None:
        """Take ``(binding, switch, name)`` spool entries in one submission and transmit each, in order."""
        if entries:
            for binding, out in take_packet_out(self.yc, entries):
                self._transmit(binding, out)

    def _transmit(self, binding: SwitchBinding, out: PacketOut) -> None:
        """One consumed spool entry on the wire (see PacketOutDir docs); one naming no port is discarded."""
        if not out.ports:
            return
        binding.send(
            m.PacketOut(
                buffer_id=m.NO_BUFFER if out.buffer_id is None else out.buffer_id,
                in_port=out.in_port or 0,
                actions=[parse_action("action.out", str(port)) for port in out.ports],  # same port words as an action.out file
                data=out.data,
            )
        )

    # -- wire -> FS ---------------------------------------------------------------------

    def handle_message(self, binding: SwitchBinding, msg: m.Message) -> None:
        """Dispatch one message arriving from a switch agent."""
        if isinstance(msg, m.Hello):
            binding.version = negotiate(self.version, msg.version)
        elif isinstance(msg, m.FeaturesReply):
            self._on_features(binding, msg)
        elif isinstance(msg, m.PortDescReply):
            for port in msg.ports:
                self._ensure_port(binding, port)
        elif isinstance(msg, m.PacketIn):
            self._on_packet_in(binding, msg)
        elif isinstance(msg, m.FlowRemoved):
            self._on_flow_removed(binding, msg)
        elif isinstance(msg, m.PortStatus):
            self._on_port_status(binding, msg)
        elif isinstance(msg, m.PortStatsReply):
            self._on_port_stats(binding, msg)
        elif isinstance(msg, m.FlowStatsReply):
            self._on_flow_stats(binding, msg)
        elif isinstance(msg, m.EchoRequest):
            binding.send(m.EchoReply(payload=msg.payload, xid=msg.xid))

    def _on_features(self, binding: SwitchBinding, msg: m.FeaturesReply) -> None:
        binding.dpid = msg.dpid
        binding.fs_name = self._find_existing_switch(msg.dpid) or f"sw{msg.dpid}"
        path = self.yc.switch_path(binding.fs_name)
        adopted = self.sc.exists(path)
        if not adopted:
            self.yc.create_switch(binding.fs_name, dpid=msg.dpid)
        self.sc.write_text(f"{path}/num_buffers", str(msg.n_buffers))
        self.sc.write_text(f"{path}/capabilities", f"{msg.capabilities:#x}")
        self.sc.write_text(f"{path}/actions", "output,set_dl,set_nw,set_tp,vlan")
        if not self._root_watch_added:
            self.watch(f"{self.yc.root}/switches", DIR_MASK, ("switches_root",))
            self._root_watch_added = True
        self.watch(f"{path}/events", DIR_MASK, ("events", msg.dpid))
        self.watch(f"{path}/packet_out", SPOOL_MASK, ("pktout", msg.dpid))
        for port in msg.ports:
            self._ensure_port(binding, port)
        if binding.version == OF13_VERSION:
            binding.send(m.PortDescRequest())
        binding.ready = True
        if adopted:
            self._adopt_existing_state(binding)
        # Last, so re-asserted flows go out on a ready session: committed
        # flows already in the tree are adopted (live upgrade, §4.1).
        binding.follower = FlowFollower(self, self.yc, binding.fs_name, partial(self._assert_flow, binding), partial(self._retire_flow, binding))
        binding.follower.attach()

    def _find_existing_switch(self, dpid: int) -> str | None:
        try:
            names = self.yc.switches()
        except FsError:
            return None
        for name in names:
            try:
                if self.yc.switch_dpid(name) == dpid:
                    return name
            except (FsError, ValueError):
                continue
        return None

    def _adopt_existing_state(self, binding: SwitchBinding) -> None:
        """Live upgrade: re-learn app buffers and port watches."""
        try:
            apps = self.sc.listdir(f"{self.yc.switch_path(binding.fs_name)}/events")
        except FsError:
            apps = []
        binding.event_apps = list(apps)
        for port_name in self.yc.ports(binding.fs_name):
            self.watch(
                self.yc.port_path(binding.fs_name, port_name),
                FILE_MASK,
                ("port", binding.dpid, port_name),
            )

    def _ensure_port(self, binding: SwitchBinding, port: m.PortDesc) -> None:
        name = f"port_{port.port_no}"
        path = self.yc.port_path(binding.fs_name, name)
        if not self.sc.exists(path):
            self.yc.create_port(binding.fs_name, port.port_no)
            self.watch(path, FILE_MASK, ("port", binding.dpid, name))
        from repro.netpkt.addr import MacAddress

        self.sc.write_text(f"{path}/hw_addr", str(MacAddress(port.hw_addr)))
        self.sc.write_text(f"{path}/name", port.name)
        self.sc.write_text(f"{path}/config.port_status", "down" if port.link_down else "up")

    def _on_packet_in(self, binding: SwitchBinding, msg: m.PacketIn) -> None:
        """Concurrently feed the packet-in to every subscribed app (§3.5), in two ring crossings."""
        self.packet_ins_handled += 1
        binding._event_seq += 1
        if not binding.event_apps:
            return
        _published, dropped = fan_out_packet_in(
            self,
            self.yc,
            binding.fs_name,
            binding._event_seq,
            in_port=msg.in_port,
            reason="no_match" if msg.reason is m.PacketInReasonWire.NO_MATCH else "action",
            buffer_id=msg.buffer_id,
            total_len=msg.total_len,
            data=msg.data,
            apps=binding.event_apps,
        )
        binding.dropped_events += dropped

    def _on_flow_removed(self, binding: SwitchBinding, msg: m.FlowRemoved) -> None:
        if msg.reason is m.FlowRemovedReasonWire.DELETE:
            return  # we initiated it; the FS is already authoritative
        for name, installed in list(binding.flows.items()):
            if installed == (msg.match, msg.priority):
                binding._suppressed.add(name)
                try:
                    self.yc.delete_flow(binding.fs_name, name)
                except FsError:
                    binding._suppressed.discard(name)
                binding.flows.pop(name, None)
                binding.counters.pop(("flows", name), None)
                return

    def _on_port_status(self, binding: SwitchBinding, msg: m.PortStatus) -> None:
        if not binding.ready:
            return
        name = f"port_{msg.port.port_no}"
        path = self.yc.port_path(binding.fs_name, name)
        if msg.reason is m.PortStatusReason.DELETE:
            binding.counters.pop(("ports", name), None)
            if self.sc.exists(path):
                self.sc.rmdir(path)
            return
        if not self.sc.exists(path):
            self._ensure_port(binding, msg.port)
        self.sc.write_text(f"{path}/config.port_status", "down" if msg.port.link_down else "up")

    def _poll_stats(self) -> None:
        for binding in self.bindings.values():
            if binding.ready:
                binding.send(m.PortStatsRequest())
                binding.send(m.FlowStatsRequest())

    def _on_port_stats(self, binding: SwitchBinding, msg: m.PortStatsReply) -> None:
        sweep = {
            f"port_{entry.port_no}": {
                "rx_packets": entry.rx_packets,
                "tx_packets": entry.tx_packets,
                "rx_bytes": entry.rx_bytes,
                "tx_bytes": entry.tx_bytes,
                "tx_dropped": entry.tx_dropped,
            }
            for entry in msg.entries
        }
        self._write_counters(binding, "ports", sweep)

    def _on_flow_stats(self, binding: SwitchBinding, msg: m.FlowStatsReply) -> None:
        by_key = {installed: name for name, installed in binding.flows.items()}
        sweep = {}
        for entry in msg.entries:
            name = by_key.get((entry.match, entry.priority))
            if name is not None:
                sweep[name] = {"packet_count": entry.packet_count, "byte_count": entry.byte_count}
        self._write_counters(binding, "flows", sweep)

    def _write_counters(self, binding: SwitchBinding, kind: str, sweep: dict[str, dict[str, int]]) -> None:
        """Flush a periodic stats sweep: one crossing for the counters that moved, none when none did.

        No probe: a ``counters/`` that is gone fails its file's ``open``,
        which cancels that file's chain and creates nothing.
        """
        ring = self.ring
        root = f"{self.yc.switch_path(binding.fs_name)}/{kind}"
        for name, values in sweep.items():
            written = binding.counters.setdefault((kind, name), {})
            for counter, value in values.items():
                if written.get(counter) == value:
                    continue
                ring.prep_write_file(f"{root}/{name}/counters/{counter}", str(value).encode(), user_data=(written, counter, value))
        ring.submit()
        for cqe in ring.completions():
            if cqe.op == "close":  # the last link of a file's chain: ok iff the whole write was
                written, counter, value = cqe.user_data
                if cqe.ok:
                    written[counter] = value
                else:
                    written.pop(counter, None)  # retried by the next sweep
