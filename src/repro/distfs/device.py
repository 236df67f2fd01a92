"""Devices running yanc themselves (paper section 7.1).

"These devices can run yanc and participate in a distributed file system
rather than have a bespoke communication protocol ... when an application
on another machine writes to a file representing a flow entry, that will
then show up on the device (since it's a distributed file system), and the
device can read it and push it into the hardware tables."

A :class:`DeviceRuntime` is a switch with a brain: its own VFS, the
master's ``/net`` mounted over the remote FS, and a resident agent that

* polls its own switch directory and pushes committed flows straight into
  the local tables — **no OpenFlow channel exists at all**;
* honours ``config.port_down`` writes;
* publishes packet-ins into the (remote) per-app event buffers and its
  counters back into the tree.

Polling replaces inotify because change notification does not cross the
distributed FS (true of NFS; see the distfs module docs).
"""

from __future__ import annotations

from repro.dataplane.flowtable import FlowEntry, FlowRemovedReason
from repro.dataplane.switch import NO_BUFFER, PacketInReason, PortSim, SwitchSim
from repro.distfs.client import RemoteFs
from repro.distfs.rpc import RpcChannel
from repro.distfs.server import FileServer
from repro.proc.process import Process
from repro.runtime import ControllerHost
from repro.vfs.cred import driver_credentials
from repro.vfs.syscalls import Syscalls
from repro.vfs.errors import FileExists, FsError
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import FlowSpec, YancClient, packet_in_files
from repro.yancfs.schema import FLOW_COUNTERS
from repro.yancfs.translate import FlowFollower, mirror_counters, packet_in_queue


class DeviceRuntime(Process):
    """One self-controlled switch over a remote-mounted /net.

    The device's resident agent is a process *registered on the master's
    process table* — it shows up in the master's ``/proc`` and its
    scheduled polls are charged to its cgroup — but runs against its own
    local VFS with the master's tree remote-mounted at ``/net``.
    """

    def __init__(
        self,
        switch: SwitchSim,
        master: ControllerHost,
        *,
        server: FileServer | None = None,
        poll_interval: float = 0.1,
        rpc_latency: float = 2e-4,
        consistency: str = "strict",
    ) -> None:
        vfs = VirtualFileSystem(clock=master.sim.clock)
        super().__init__(Syscalls(vfs), master.sim, name=f"dev-{switch.name}")
        self.switch = switch
        self.master = master
        self.poll_interval = poll_interval
        self.server = server if server is not None else FileServer(master.process(name="fileserverd", role="driver"), master.mount_point)
        self.vfs = vfs
        # The agent authenticates to the master as a driver: it owns and
        # populates its own switch subtree, nothing else.
        self.channel = RpcChannel(
            self.server.handle,
            latency=rpc_latency,
            counters=self.vfs.counters,
            name=f"dev-{switch.name}",
            cred=driver_credentials(f"dev-{switch.name}"),
        )
        self.fs = RemoteFs(self.channel, consistency=consistency, clock=self.sim.clock)
        self.sc.mkdir("/net")
        self.sc.mount("/net", self.fs, source="master:/net")
        self.yc = YancClient(self.sc)
        self.fs_name = f"sw{switch.dpid}"
        self._follower = FlowFollower(self, self.yc, self.fs_name, self._apply_flow, self._retire_flow)
        self._installed: dict[str, FlowEntry] = {}
        #: ``("flows", name)`` / ``("ports", port_no)`` -> counter file -> the value its last ok write left
        self._counters: dict[tuple[str, object], dict[str, int]] = {}
        self._event_seq = 0
        self._packet_ins = packet_in_queue(self, self.yc, self._account_packet_ins)
        self.flows_applied = 0
        self.events_published = 0
        self.events_dropped = 0
        switch.controller = self
        master.procs.register(self)

    # -- lifecycle ------------------------------------------------------------------

    def on_start(self) -> None:
        """Register in the tree and begin the poll loop."""
        path = self.yc.switch_path(self.fs_name)
        if not self.sc.exists(path):
            try:
                self.yc.create_switch(self.fs_name, dpid=self.switch.dpid)
            except FileExists:
                pass
        for port_no in sorted(self.switch.ports):
            if not self.sc.exists(self.yc.port_path(self.fs_name, port_no)):
                self.yc.create_port(self.fs_name, port_no)
        self.every(self.poll_interval, self.poll, start_delay=0.0)

    def stop(self) -> None:
        """Stop polling (the tree keeps the device's last-known state)."""
        if self.switch.controller is self:
            self.switch.controller = None
        super().stop()

    # -- the poll loop -----------------------------------------------------------------

    def poll(self) -> None:
        """One reconciliation round: flows, port config, counters."""
        try:
            self._follower.poll()
        except FsError:
            return
        self._apply_port_config()
        self._publish_counters()

    def _apply_flow(self, name: str, spec: FlowSpec) -> None:
        """A commit: (re)install the flow straight into the local table."""
        self._retire_flow(name)
        entry = FlowEntry(
            match=spec.match,
            actions=list(spec.actions),
            priority=spec.priority,
            idle_timeout=spec.idle_timeout,
            hard_timeout=spec.hard_timeout,
        )
        self.switch.install_flow(entry)
        self._installed[name] = entry
        self.flows_applied += 1

    def _retire_flow(self, name: str) -> None:
        self._counters.pop(("flows", name), None)
        entry = self._installed.pop(name, None)
        if entry is not None:
            self.switch.table.remove_entry(entry)

    def _apply_port_config(self) -> None:
        for port_no, port in self.switch.ports.items():
            try:
                down = self.yc.port_is_down(self.fs_name, port_no)
            except FsError:
                continue
            if down == port.admin_up:
                port.set_admin_up(not down)

    def _publish_counters(self) -> None:
        """Every installed flow's and every port's counters, as one counter round: no RPC when nothing moved."""
        rows = []
        for name, entry in self._installed.items():
            directory = f"{self.yc.flow_path(self.fs_name, name)}/counters"
            values = {counter: getattr(entry, counter) for counter in FLOW_COUNTERS}
            rows.append((directory, self._counters.setdefault(("flows", name), {}), values))
        for port_no, port in self.switch.ports.items():
            directory = f"{self.yc.port_path(self.fs_name, port_no)}/counters"
            rows.append((directory, self._counters.setdefault(("ports", port_no), {}), port.counters()))
        mirror_counters(self.ring, rows)

    # -- ControllerHooks (the switch talks to its own brain) ----------------------------

    def packet_in(
        self,
        switch: SwitchSim,
        in_port: int,
        reason: PacketInReason,
        buffer_id: int,
        data: bytes,
        total_len: int,
    ) -> None:
        """Queue a punt for this instant's publish into every subscribed app buffer, remotely."""
        self._event_seq += 1
        reason_name = "no_match" if reason is PacketInReason.NO_MATCH else "action"
        # buffer_id stays NO_BUFFER: device-local buffers don't cross the fs
        self._packet_ins.put(None, self.fs_name, self._event_seq, None, packet_in_files(in_port, reason_name, NO_BUFFER, total_len, data))

    def _account_packet_ins(self, _owners: list, published: int, dropped: list[int]) -> None:
        self.events_published += published
        self.events_dropped += sum(dropped)

    def flow_removed(self, switch: SwitchSim, entry: FlowEntry, reason: FlowRemovedReason) -> None:
        """A local timeout: retire the corresponding tree entry and forget its name, so the next poll has nothing to retire."""
        for name, installed in list(self._installed.items()):
            if installed is entry:
                del self._installed[name]
                self._counters.pop(("flows", name), None)
                self._follower.forget(name)  # a flow re-created under the name before the next poll is a new one
                try:
                    self.yc.delete_flow(self.fs_name, name)
                except FsError:
                    pass
                return

    def port_status(self, switch: SwitchSim, port: PortSim, reason: str) -> None:
        """Reflect local port changes into the tree."""
        path = self.yc.port_path(self.fs_name, port.port_no)
        try:
            if reason == "delete":
                self._counters.pop(("ports", port.port_no), None)
                if self.sc.exists(path):
                    self.sc.rmdir(path)
                return
            if not self.sc.exists(path):
                self.yc.create_port(self.fs_name, port.port_no)
            self.sc.write_text(f"{path}/config.port_status", "up" if port.link_up else "down")
        except FsError:
            pass
