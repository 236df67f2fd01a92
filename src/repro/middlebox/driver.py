"""The middlebox driver: device state ⇄ the file system (§7.2).

"For a middlebox with fixed functionality, but exposing its state through
a standardized protocol, a driver can be written to populate and interact
with the file system and take immediate advantage of yanc."

One :class:`MiddleboxDriver` can manage several devices.  For each it
mirrors the connection table under ``/net/middleboxes/<name>/state/`` and
keeps the mapping bidirectional:

* device -> tree: new/removed bindings appear/disappear as state entry
  directories; counters sync periodically;
* tree -> device: a state entry created (``cp``), moved in (``mv``), or
  deleted under any managed middlebox is installed into / removed from
  that device — which is exactly how ``mv`` *migrates a live connection*
  between instances.
"""

from __future__ import annotations

from ipaddress import IPv4Address

from repro.middlebox.device import NatEntry, NatMiddlebox
from repro.netpkt.ipv4 import IPPROTO_TCP, IPPROTO_UDP
from repro.proc.process import Process
from repro.sim import Simulator
from repro.vfs.errors import FileExists, FsError
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.yancfs.client import read_object, write_object

_STATE_MASK = (
    EventMask.IN_CREATE
    | EventMask.IN_DELETE
    | EventMask.IN_MOVED_FROM
    | EventMask.IN_MOVED_TO
)
_ENTRY_MASK = EventMask.IN_CLOSE_WRITE

_PROTO_BY_NAME = {"tcp": IPPROTO_TCP, "udp": IPPROTO_UDP}
_NAME_BY_PROTO = {value: key for key, value in _PROTO_BY_NAME.items()}


class MiddleboxDriver(Process):
    """FS <-> device synchronization for stateful middleboxes.

    Runs as a process: the epoll run loop, watch bookkeeping, periodic
    tasks, and crash containment come from
    :class:`~repro.proc.process.Process`; live from construction.
    """

    def __init__(
        self,
        sc: "Syscalls | Process",
        sim: Simulator,
        *,
        root: str = "/net",
        counter_interval: float = 1.0,
    ) -> None:
        super().__init__(sc, sim, name="mbox-driver")
        self.root = root
        self.counter_interval = counter_interval
        self.devices: dict[str, NatMiddlebox] = {}
        self._counter_task = None
        self.migrations_in = 0
        self.migrations_out = 0
        self.start()

    # -- lifecycle ------------------------------------------------------------------

    def attach(self, device: NatMiddlebox) -> str:
        """Start managing ``device``; returns its tree path."""
        base = f"{self.root}/middleboxes"
        if not self.sc.exists(base):
            self.sc.mkdir(base)
        path = f"{base}/{device.name}"
        if not self.sc.exists(path):
            # Maildir publication, same as create_switch: no observer ever
            # sees a middlebox with blank attributes.
            write_object(self.sc, path, {"type": "nat", "public_ip": str(device.public_ip)}, "rename")
        else:
            self.sc.write_text(f"{path}/type", "nat")
            self.sc.write_text(f"{path}/public_ip", str(device.public_ip))
        self.devices[device.name] = device
        device.on_state_change = lambda kind, entry, name=device.name: self._on_device_change(name, kind, entry)
        self.watch(f"{path}/state", _STATE_MASK, ("state", device.name))
        for entry in device.entries():
            self._write_entry(device.name, entry)
        if self._counter_task is None and self.counter_interval > 0:
            self._counter_task = self.every(self.counter_interval, self._sync_counters)
        return path

    def stop(self) -> None:
        """Stop managing everything (tree state is left in place)."""
        for device in self.devices.values():
            device.on_state_change = None
        self.devices.clear()
        self._counter_task = None
        super().stop()

    # -- event dispatch ---------------------------------------------------------------

    def on_event(self, ctx: tuple, event) -> None:
        if ctx[0] == "state" and event.name is not None:
            mb_name = ctx[1]
            if event.mask & (EventMask.IN_CREATE | EventMask.IN_MOVED_TO):
                if event.mask & EventMask.IN_MOVED_TO:
                    self.migrations_in += 1
                self.watch(self._entry_path(mb_name, event.name), _ENTRY_MASK, ("entry", mb_name, event.name))
                self._sync_entry_to_device(mb_name, event.name)
            elif event.mask & (EventMask.IN_DELETE | EventMask.IN_MOVED_FROM):
                if event.mask & EventMask.IN_MOVED_FROM:
                    self.migrations_out += 1
                self.unwatch(("entry", mb_name, event.name))
                device = self.devices.get(mb_name)
                if device is not None:
                    device.remove_entry(event.name, notify=False)
        elif ctx[0] == "entry":
            self._sync_entry_to_device(ctx[1], ctx[2])

    # -- paths -----------------------------------------------------------------------

    def _mb_path(self, name: str) -> str:
        return f"{self.root}/middleboxes/{name}"

    def _entry_path(self, name: str, conn_id: str) -> str:
        return f"{self._mb_path(name)}/state/{conn_id}"

    # -- device -> tree --------------------------------------------------------------

    def _on_device_change(self, mb_name: str, kind: str, entry: NatEntry) -> None:
        if kind == "add":
            self._write_entry(mb_name, entry)
        elif kind == "remove":
            path = self._entry_path(mb_name, entry.conn_id)
            if self.sc.exists(path):
                self.sc.rmdir(path)
        # "update" (per-packet counters) is flushed periodically instead.

    def _write_entry(self, mb_name: str, entry: NatEntry) -> None:
        path = self._entry_path(mb_name, entry.conn_id)
        try:
            # Deliberately non-atomic: §7.2 state entries are plain files
            # so `cp`/`mv` can migrate them, and every reader (including
            # _sync_entry_to_device below) guards on the required file set
            # and completes via a later close event — a maildir rename here
            # would miscount the IN_MOVED_TO events used to track
            # migrations.
            self.sc.mkdir(path)  # yanccrash: disable=non-atomic-publish
        except FileExists:
            pass
        self.sc.write_text(f"{path}/proto", _NAME_BY_PROTO.get(entry.proto, str(entry.proto)))
        self.sc.write_text(f"{path}/client_ip", str(entry.client_ip))
        self.sc.write_text(f"{path}/client_port", str(entry.client_port))
        self.sc.write_text(f"{path}/public_port", str(entry.public_port))
        self.sc.write_text(f"{path}/packets", str(entry.packets))

    # -- tree -> device --------------------------------------------------------------

    def _sync_entry_to_device(self, mb_name: str, conn_id: str) -> None:
        device = self.devices.get(mb_name)
        if device is None:
            return
        try:
            files = read_object(self.sc, self._entry_path(mb_name, conn_id))
            proto_text = files["proto"].decode().strip()
            entry = NatEntry(
                proto=_PROTO_BY_NAME.get(proto_text, int(proto_text) if proto_text.isdigit() else 0),
                client_ip=IPv4Address(files["client_ip"].decode().strip()),
                client_port=int(files["client_port"]),
                public_port=int(files["public_port"]),
                last_active=self.sim.now,
            )
        except (FsError, KeyError, ValueError):
            return  # gone, malformed, or a cp still in progress: a later close event completes it
        existing = device.lookup_conn(conn_id)
        if existing is not None and existing.public_port == entry.public_port:
            return  # idempotent: the device already holds this binding
        device.install_entry(entry, notify=False)

    # -- counters ----------------------------------------------------------------------

    def _sync_counters(self) -> None:
        for name, device in self.devices.items():
            base = f"{self._mb_path(name)}/counters"
            try:
                self.sc.write_text(f"{base}/translated", str(device.translated))
                self.sc.write_text(f"{base}/dropped", str(device.dropped))
                self.sc.write_text(f"{base}/connections", str(len(device.entries())))
            except FsError:
                continue
            for entry in device.entries():
                packets_path = f"{self._entry_path(name, entry.conn_id)}/packets"
                try:
                    if self.sc.exists(packets_path):
                        self.sc.write_text(packets_path, str(entry.packets))
                except FsError:
                    continue
