"""High-level helpers over the yanc file tree.

Everything here is plain file I/O through a :class:`~repro.vfs.Syscalls`
facade — the helpers exist so applications, drivers, and tests compose the
same ``echo value > file`` sequences without repeating path arithmetic.
Every helper call costs exactly the system calls it issues; nothing
bypasses the file system (that is :mod:`repro.libyanc`'s job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dataplane.actions import Action, parse_action
from repro.dataplane.match import Match
from repro.vfs.errors import FileNotFound
from repro.vfs.path import clean
from repro.vfs.syscalls import O_WRONLY, Syscalls
from repro.yancfs.schema import YancFs

if TYPE_CHECKING:
    from repro.vfs.uring import IoUring


def mount_yancfs(sc: Syscalls, path: str = "/net", *, recover: bool = True) -> YancFs:
    """Create a yanc file system and mount it at ``path`` (default /net).

    Unless ``recover=False``, the mount runs the :func:`~repro.yancfs.recovery.fsck`
    sweep over the freshly mounted tree: stale dot-temps and half-staged
    (version-0) flow directories left by a crashed publisher are removed
    before any reader sees the namespace.  A brand-new mount is empty,
    so on the common path this costs a handful of ``scandir`` calls.
    """
    from repro.yancfs.recovery import fsck

    fs = YancFs(clock=sc.vfs.clock)
    if not sc.exists(path):
        sc.makedirs(path)
    sc.mount(path, fs, source="yanc")
    if recover:
        fsck(sc, path)
    return fs


@dataclass(frozen=True)
class FlowSpec:
    """Everything a committed flow directory describes."""

    match: Match
    actions: tuple[Action, ...]
    priority: int = 0x8000
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    version: int = 0


def flow_spec_files(
    match: Match,
    actions: list[Action],
    *,
    priority: int | None = None,
    idle_timeout: float | None = None,
    hard_timeout: float | None = None,
) -> dict[str, str]:
    """A flow spec as the ``{filename: content}`` its directory holds (§3.2).

    The one serializer every writer shares — the file path, the ring and
    the libyanc fastpath — in the order the files are written: match
    fields, actions (``action.<kind>``, then ``.<n>`` from the second
    on), then the optional attributes.  ``version`` is not a spec file;
    writing it is the commit (§3.4).
    """
    files = dict(match.to_files())
    for index, action in enumerate(actions):
        filename, content = action.to_file()
        if index:
            filename = f"{filename}.{index}"
        files[filename] = content
    if priority is not None:
        files["priority"] = str(priority)
    if idle_timeout is not None:
        files["timeout"] = str(idle_timeout)
    if hard_timeout is not None:
        files["hard_timeout"] = str(hard_timeout)
    return files


def commit_version(sc: Syscalls, flow_path: str) -> int:
    """Increment ``<flow_path>/version`` in place (the §3.4 commit); returns the new version."""
    path = f"{flow_path}/version"
    current = int(sc.read_text(path).strip() or "0")
    # §3.4: versions only grow, so the decimal text never shrinks and
    # a full-width pwrite at offset 0 replaces the value in a single
    # durable op.  The obvious ``write_text`` would open with O_TRUNC,
    # and a crash between the truncating open and the write would
    # leave an empty version — read back as 0, so mount-time recovery
    # would sweep a *committed* flow as torn.
    fd = sc.open(path, O_WRONLY)
    try:
        sc.pwrite(fd, str(current + 1).encode(), 0)
    finally:
        sc.close(fd)
    return current + 1


# -- the write pipeline: one routine per syscall transport (the third, the direct store, is repro.libyanc) --


def _assembly(path: str, files: dict, publish: str | None) -> tuple[str, list[tuple[str, bytes]]]:
    """Where an object is assembled, and the ``(file path, bytes)`` writes that fill it."""
    parent, _, name = path.rpartition("/")
    staged = f"{parent}/.{name}" if publish == "rename" else path
    return staged, [(f"{staged}/{filename}", content if isinstance(content, bytes) else content.encode()) for filename, content in files.items()]


def write_object(sc: Syscalls, path: str, files: dict, publish: str | None) -> None:
    """Write one object — a directory of small files, then one publish step — a system call per step.

    The paper's one write protocol, and the baseline the other transports
    are measured against.  ``publish`` names the step that makes the
    object visible: ``"version"`` commits in place (§3.4; a flow is born
    at version 0), ``"rename"`` assembles under the dot-temp sibling and
    renames it in (§3.5 maildir: watchers see one IN_MOVED_TO, never a
    half-written object), ``None`` leaves it staged.  The first failing
    step raises; a failed maildir object leaves only its invisible
    dot-temp, which the mount-time ``fsck`` sweeps.
    """
    staged, writes = _assembly(path, files, publish)
    sc.mkdir(staged)
    for file_path, data in writes:
        sc.write_bytes(file_path, data)
    if publish == "version":
        commit_version(sc, path)
    elif publish == "rename":
        sc.rename(staged, path)


def chain_len(files: dict, publish: str | None) -> int:
    """Ring entries one object takes: mkdir, three per file (``version`` is one more file), the rename."""
    return 1 + 3 * (len(files) + (publish == "version")) + (publish == "rename")


def write_objects_batched(sc: Syscalls, objects: list[tuple[str, dict, str | None]], ring: "IoUring | None" = None) -> int:
    """Write ``(path, files, publish)`` objects through the ring (§8.1); returns how many completed.

    Each object is one linked chain of :func:`chain_len` entries — the
    same steps :func:`write_object` issues — that never straddles a
    ``submit``: a failed step cancels the rest of *that object* and its
    neighbours still publish.  Without a ``ring`` the batch gets one
    sized for it, so it is one ``io_uring_enter``.  Drains the
    completion queue.
    """
    ring = ring or sc.io_uring_setup(entries=max(256, sum(chain_len(files, publish) for _path, files, publish in objects)))
    for index, (path, files, publish) in enumerate(objects):
        if ring.sq_pending and ring.sq_pending + chain_len(files, publish) > ring.entries:
            ring.submit()
        staged, writes = _assembly(path, files, publish)
        if publish == "version":
            writes.append((f"{path}/version", b"1"))
        # Every entry links to the next but the chain's last: the rename, or else the final write.
        last = len(writes) - (publish != "rename")
        tag = ("obj", index)
        ring.prep("mkdir", staged, link=last >= 0, user_data=tag)
        for position, (file_path, data) in enumerate(writes):
            ring.prep_write_file(file_path, data, link=position < last, user_data=tag)
        if publish == "rename":
            ring.prep("rename", staged, path, user_data=tag)
    ring.submit()
    # A failure cancels the rest of its chain, so an object completed iff
    # the last completion carrying its tag is ok.
    last_ok = {cqe.user_data: cqe.ok for cqe in ring.completions() if cqe.user_data and cqe.user_data[0] == "obj"}
    return sum(last_ok.values())


# -- the read pipeline: the mirror image, one crossing per object --


def read_object(sc: Syscalls, path: str) -> dict[str, bytes]:
    """Read one object back — every regular file directly in its directory — in one system call.

    The one read protocol, as :func:`write_object` is the one write
    protocol: a flow, a counters directory, a packet-in, a recorded host
    and a middlebox state entry are all read through here, by a single
    ``readdirplus`` that keeps each file's permission check, fanotify
    gate and notify events.  Sub-directories (a flow's ``counters/``)
    and symlinks (a port's ``peer``) are not part of the object's
    content; a directory that is gone raises, so a caller sees the whole
    object or an :class:`~repro.vfs.errors.FsError`, never part of one.
    """
    return {name: data for name, data in sc.readdirplus(path) if data is not None}


@dataclass(frozen=True)
class PacketInEvent:
    """One packet-in message read from an event buffer (§3.5)."""

    switch: str
    seq: int
    in_port: int
    reason: str
    buffer_id: int
    total_len: int
    data: bytes


class YancClient:
    """Path helpers + composite operations over one mounted yanc tree."""

    def __init__(self, sc: Syscalls, root: str = "/net") -> None:
        self.sc = sc
        # One canonical spelling so derived paths hit one resolution-memo /
        # meter key instead of fanning out over //-and-dot variants.
        self.root = clean(root.rstrip("/") or "/net")

    # -- paths ----------------------------------------------------------------------

    def switch_path(self, switch: str) -> str:
        """``/net/switches/<switch>``."""
        return f"{self.root}/switches/{switch}"

    def flow_path(self, switch: str, flow: str) -> str:
        """``/net/switches/<switch>/flows/<flow>``."""
        return f"{self.switch_path(switch)}/flows/{flow}"

    def port_path(self, switch: str, port: int | str) -> str:
        """``/net/switches/<switch>/ports/port_<n>``."""
        name = port if isinstance(port, str) else f"port_{port}"
        return f"{self.switch_path(switch)}/ports/{name}"

    def events_path(self, switch: str, app: str) -> str:
        """``/net/switches/<switch>/events/<app>``."""
        return f"{self.switch_path(switch)}/events/{app}"

    def view_path(self, *names: str) -> str:
        """``/net/views/<a>/views/<b>/...`` for nested views."""
        path = self.root
        for name in names:
            path += f"/views/{name}"
        return path

    def in_view(self, *names: str) -> "YancClient":
        """A client rooted inside a (possibly nested) view subtree."""
        return YancClient(self.sc, self.view_path(*names))

    # -- switches -------------------------------------------------------------------

    def switches(self) -> list[str]:
        """All switch names (dot-prefixed maildir temps excluded)."""
        return sorted(n for n in self.sc.listdir(f"{self.root}/switches") if not n.startswith("."))

    def create_switch(self, name: str, *, dpid: int | None = None) -> str:
        """mkdir a switch (driver-side); returns its path.

        Maildir discipline: assemble under a dot-temp name, rename into
        place once the identity files exist — a concurrently scanning
        driver or app never observes a half-created switch.
        """
        path = self.switch_path(name)
        write_object(self.sc, path, {} if dpid is None else {"id": str(dpid)}, "rename")
        return path

    def switch_dpid(self, name: str) -> int:
        """Read the ``id`` attribute file."""
        return int(self.sc.read_text(f"{self.switch_path(name)}/id").strip() or "0")

    def delete_switch(self, name: str) -> None:
        """rmdir a switch (recursive, §3.2)."""
        self.sc.rmdir(self.switch_path(name))

    # -- flows ----------------------------------------------------------------------

    def flows(self, switch: str) -> list[str]:
        """All flow names on a switch."""
        return sorted(self.sc.listdir(f"{self.switch_path(switch)}/flows"))

    def create_flow(
        self,
        switch: str,
        name: str,
        match: Match,
        actions: list[Action],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
        commit: bool = True,
    ) -> str:
        """Write a flow directory file by file, then commit it (§3.4).

        This is the slow-but-honest file path: one mkdir, one write per
        match field / action / attribute, and the final version increment
        that makes the whole thing visible to the driver atomically.
        """
        path = self.flow_path(switch, name)
        files = flow_spec_files(match, actions, priority=priority, idle_timeout=idle_timeout, hard_timeout=hard_timeout)
        write_object(self.sc, path, files, "version" if commit else None)
        return path

    def create_flows_batched(
        self,
        switch: str,
        entries: list[tuple[str, Match, list[Action]]],
        *,
        priority: int | None = None,
        idle_timeout: float | None = None,
        hard_timeout: float | None = None,
    ) -> int:
        """Install many flows through the ring: O(1) kernel crossings.

        Each flow is one ``"version"`` chain of :func:`write_objects_batched`
        — no flow becomes visible before its files exist, and a failed
        step cancels only *that flow*.  Returns the number of flows whose
        chain fully completed.
        """
        spec = {"priority": priority, "idle_timeout": idle_timeout, "hard_timeout": hard_timeout}
        objects = [(self.flow_path(switch, name), flow_spec_files(match, actions, **spec), "version") for name, match, actions in entries]
        return write_objects_batched(self.sc, objects)

    def commit_flow(self, switch: str, name: str) -> int:
        """Increment the flow's ``version`` file; returns the new version."""
        return commit_version(self.sc, self.flow_path(switch, name))

    def read_flow(self, switch: str, name: str) -> FlowSpec:
        """Parse a flow directory back into a :class:`FlowSpec`."""
        files = {entry: data.decode() for entry, data in read_object(self.sc, self.flow_path(switch, name)).items()}
        action_files: list[tuple[int, str, str]] = []
        for entry, content in files.items():
            if entry.startswith("action."):
                kind, _, order = entry[len("action.") :].partition(".")
                action_files.append((int(order or "0"), f"action.{kind}", content))
        actions = tuple(parse_action(fname, content) for _order, fname, content in sorted(action_files, key=lambda item: item[0]))
        return FlowSpec(
            match=Match.from_files(files),
            actions=actions,
            priority=int(files.get("priority", "32768").strip() or "32768"),
            idle_timeout=float(files.get("timeout", files.get("idle_timeout", "0")).strip() or "0"),
            hard_timeout=float(files.get("hard_timeout", "0").strip() or "0"),
            cookie=int(files.get("cookie", "0").strip() or "0"),
            version=int(files.get("version", "0").strip() or "0"),
        )

    def delete_flow(self, switch: str, name: str) -> None:
        """rmdir the flow (recursive)."""
        self.sc.rmdir(self.flow_path(switch, name))

    def flow_counters(self, switch: str, name: str) -> dict[str, int]:
        """Read the flow's counters directory."""
        return self._read_counters(f"{self.flow_path(switch, name)}/counters")

    # -- ports ----------------------------------------------------------------------

    def ports(self, switch: str) -> list[str]:
        """All port directory names on a switch."""
        return sorted(self.sc.listdir(f"{self.switch_path(switch)}/ports"))

    def create_port(self, switch: str, port_no: int) -> str:
        """mkdir a port directory (driver-side)."""
        path = self.port_path(switch, port_no)
        self.sc.mkdir(path)
        return path

    def set_port_down(self, switch: str, port: int | str, down: bool) -> None:
        """The paper's ``echo 1 > port_2/config.port_down``."""
        self.sc.write_text(f"{self.port_path(switch, port)}/config.port_down", "1" if down else "0")

    def port_is_down(self, switch: str, port: int | str) -> bool:
        """Read the admin-down flag."""
        return self.sc.read_text(f"{self.port_path(switch, port)}/config.port_down").strip() == "1"

    def set_peer(self, switch: str, port: int | str, peer_switch: str, peer_port: int | str) -> None:
        """Create/replace the topology symlink ``peer`` (§3.3)."""
        link = f"{self.port_path(switch, port)}/peer"
        try:
            self.sc.unlink(link)  # EAFP: one resolution, no exists() pre-flight
        except FileNotFound:
            pass
        self.sc.symlink(self.port_path(peer_switch, peer_port), link)

    def peer_of(self, switch: str, port: int | str) -> str | None:
        """The peer symlink target, or None when unlinked."""
        link = f"{self.port_path(switch, port)}/peer"
        try:
            return self.sc.readlink(link)
        except FileNotFound:
            return None

    def port_counters(self, switch: str, port: int | str) -> dict[str, int]:
        """Read a port's counters directory."""
        return self._read_counters(f"{self.port_path(switch, port)}/counters")

    # -- events ------------------------------------------------------------------------

    def subscribe_events(self, switch: str, app: str) -> str:
        """Create this app's private packet-in buffer on a switch (§3.5)."""
        path = self.events_path(switch, app)
        if not self.sc.exists(path):
            self.sc.mkdir(path)
        return path

    def unsubscribe_events(self, switch: str, app: str) -> None:
        """Remove the buffer (pending events are discarded)."""
        self.sc.rmdir(self.events_path(switch, app))

    def write_packet_in(
        self,
        switch: str,
        app: str,
        seq: int,
        *,
        in_port: int,
        reason: str,
        buffer_id: int,
        total_len: int,
        data: bytes,
    ) -> str:
        """Driver-side: materialize one packet-in into an app's buffer.

        Maildir discipline: the event is assembled under a dot-prefixed
        temp name (invisible to consumers) and atomically renamed into
        place once complete.  Publishing with a bare ``mkdir`` first would
        wake watchers on IN_CREATE *before* the field files exist — a torn
        multi-file write racing every reader (yancrace flags it).
        """
        path = f"{self.events_path(switch, app)}/pi_{seq}"
        write_object(self.sc, path, _packet_in_files(in_port, reason, buffer_id, total_len, data), "rename")
        return path

    def write_packet_in_batched(
        self,
        switch: str,
        apps: list[str],
        seq: int,
        *,
        in_port: int,
        reason: str,
        buffer_id: int,
        total_len: int,
        data: bytes,
        uring: "IoUring | None" = None,
    ) -> int:
        """Fan one packet-in out to many app buffers through the ring.

        The unbatched :meth:`write_packet_in` pays a syscall per step *per
        app*; here each app is one ``"rename"`` chain of
        :func:`write_objects_batched` and the whole fan-out submits in one
        ``io_uring_enter``.  Watchers still see only the atomic
        IN_MOVED_TO.  Drains the ring's completion queue; returns the
        number of apps whose event published.
        """
        files = _packet_in_files(in_port, reason, buffer_id, total_len, data)
        objects = [(f"{self.events_path(switch, app)}/pi_{seq}", files, "rename") for app in apps]
        return write_objects_batched(self.sc, objects, uring)

    def read_events(self, switch: str, app: str, *, consume: bool = True) -> list[PacketInEvent]:
        """Drain (or peek) an event buffer, oldest first: one ``listdir``, then a read and an ``rmdir`` per event.

        An entry without all five fields yet — a foreign writer that
        published with a bare ``mkdir`` and is still filling it in — is
        left in place for a later drain and does not hold up the events
        behind it; an event is removed only once it is in the returned
        list.
        """
        base = self.events_path(switch, app)
        events = []
        for entry in sorted(self.sc.listdir(base), key=_event_order):
            if entry.startswith("."):
                continue  # maildir temp: still being assembled
            path = f"{base}/{entry}"
            fields = read_object(self.sc, path)
            try:
                event = PacketInEvent(
                    switch=switch,
                    seq=_event_order(entry),
                    in_port=int(fields["in_port"]),
                    reason=fields["reason"].decode().strip(),
                    buffer_id=int(fields["buffer_id"]),
                    total_len=int(fields["total_len"]),
                    data=fields["data"],
                )
            except (KeyError, ValueError):
                continue  # a field is missing, or created and not yet written
            events.append(event)
            if consume:
                self.sc.rmdir(path)
        return events

    def packet_out(
        self,
        switch: str,
        ports: list[int | str],
        data: bytes = b"",
        *,
        in_port: int | None = None,
        buffer_id: int | None = None,
        tag: str = "app",
    ) -> str:
        """Emit a packet by dropping a file into the switch's spool.

        ``ports`` entries are port numbers or ``"flood"``/``"all"``; pass
        ``buffer_id`` to release a switch-buffered packet instead of (or in
        addition to) raw ``data``.
        """
        self._pktout_seq = getattr(self, "_pktout_seq", 0) + 1
        path = f"{self.switch_path(switch)}/packet_out/{packet_out_name(ports, tag, self._pktout_seq, in_port=in_port, buffer_id=buffer_id)}"
        self.sc.write_bytes(path, data)
        return path

    # -- hosts -------------------------------------------------------------------------

    def hosts(self) -> list[str]:
        """All host names (dot-prefixed maildir temps excluded)."""
        return sorted(n for n in self.sc.listdir(f"{self.root}/hosts") if not n.startswith("."))

    def create_host(self, name: str, *, mac: str = "", ip_addr: str = "", attached_to: str = "") -> str:
        """Record an end host (topology/ARP daemons maintain these).

        Published maildir-style (assemble dot-temp, rename) so a scanner
        never sees a host with its mac written but its ip still missing.
        """
        path = f"{self.root}/hosts/{name}"
        fields = {"mac": mac, "ip": ip_addr, "attached_to": attached_to}
        write_object(self.sc, path, {filename: value for filename, value in fields.items() if value}, "rename")
        return path

    # -- views -------------------------------------------------------------------------

    def views(self) -> list[str]:
        """Direct child view names."""
        return sorted(self.sc.listdir(f"{self.root}/views"))

    def create_view(self, name: str) -> "YancClient":
        """mkdir a view; returns a client rooted inside it."""
        self.sc.mkdir(f"{self.root}/views/{name}")
        return self.in_view(name)

    # -- internals ------------------------------------------------------------------------

    def _read_counters(self, path: str) -> dict[str, int]:
        return {entry: int(data.strip() or b"0") for entry, data in read_object(self.sc, path).items()}


def _packet_in_files(in_port: int, reason: str, buffer_id: int, total_len: int, data: bytes) -> dict[str, str | bytes]:
    """One packet-in as the ``{filename: content}`` its event directory holds (§3.5)."""
    return {"in_port": str(in_port), "reason": reason, "buffer_id": str(buffer_id), "total_len": str(total_len), "data": data}


def packet_out_name(ports: list[int | str], tag: str, seq: int, *, in_port: int | None = None, buffer_id: int | None = None) -> str:
    """The spool file name of one outbound packet; :func:`parse_packet_out_name` reads it back.

    The one formatter, for the writers that queue the spool write
    themselves (a ring submission) as for :meth:`YancClient.packet_out`;
    ``tag`` and ``seq`` only keep a writer's names apart.
    """
    tokens = [port if isinstance(port, str) else f"p{port}" for port in ports]
    if in_port is not None:
        tokens.append(f"in{in_port}")
    if buffer_id is not None:
        tokens.append(f"b{buffer_id}")
    return ".".join([*tokens, tag, str(seq)])


def parse_packet_out_name(name: str) -> tuple[tuple[int | str, ...], int | None, int | None]:
    """``(ports, in_port, buffer_id)`` back from the spool file name :func:`packet_out_name` formats.

    Dot-separated tokens: ``p<N>`` / ``flood`` / ``all`` name output
    ports, ``in<N>`` the logical in-port, ``b<N>`` a switch buffer to
    release; anything else (the writer's tag, its sequence number) is
    ignored.
    """
    ports: list[int | str] = []
    in_port = buffer_id = None
    for token in name.split("."):
        if token in ("flood", "all"):
            ports.append(token)
        elif token.startswith("in") and token[2:].isdigit():
            in_port = int(token[2:])
        elif token.startswith("b") and token[1:].isdigit():
            buffer_id = int(token[1:])
        elif token.startswith("p") and token[1:].isdigit():
            ports.append(int(token[1:]))
    return tuple(ports), in_port, buffer_id


def _event_order(name: str) -> int:
    try:
        return int(name.rsplit("_", 1)[-1])
    except ValueError:
        return 0
