"""The yanc file system: schema node classes.

Implements the layout of paper figures 2 and 3 with the semantics of
section 3:

* **semantic mkdir** — creating an object directory auto-populates its
  children (``mkdir views/new_view`` also creates ``hosts``, ``switches``,
  ``views``; a new switch gets ``counters/ flows/ ports/ events/`` and its
  attribute files; a new flow gets ``counters/`` and ``version``);
* **recursive rmdir** — removing an object removes its subtree (§3.2);
* **validated attribute files** — ``match.*``, ``action.*``, ``priority``,
  ``timeout``, ``version``, ``config.port_down`` reject unparseable content
  at close and restore the previous value;
* **peer symlinks** — each port may carry exactly one symlink, ``peer``,
  and pointing it anywhere but a port is an error (§3.3);
* **views nest arbitrarily** — a view directory contains the same three
  top-level dirs as the root, so view subtrees are structurally identical
  to the master tree (§4.2).
"""

from __future__ import annotations

from repro.vfs.acl import Acl, AclEntry, AclTag
from repro.vfs.cred import APPS_GID, DRIVERS_GID, Credentials
from repro.vfs.errors import InvalidArgument, NotPermitted
from repro.vfs.inode import DirInode, FileInode, Filesystem, Inode
from repro.vfs.stat import DEFAULT_DIR_MODE, DEFAULT_FILE_MODE, FileType
from repro.yancfs import validate

#: Files every switch directory carries (paper figure 3, left).
SWITCH_ATTRIBUTE_FILES = ("actions", "capabilities", "id", "num_buffers")

#: Subdirectories every switch directory carries.
SWITCH_SUBDIRS = ("counters", "flows", "ports", "events")

#: A flow's and a port's ``counters/`` files, named as the stats replies' fields.
FLOW_COUNTERS = ("packet_count", "byte_count")
PORT_COUNTERS = ("rx_packets", "tx_packets", "rx_bytes", "tx_bytes", "tx_dropped")

#: The three top-level directories (paper figure 2).
TOP_LEVEL_DIRS = ("hosts", "switches", "views")


def schema_acl(*, owner: int = 7, apps: int | None = None, drivers: int | None = None, other: int = 5) -> Acl:
    """A schema default ACL: owner, optional apps/drivers grants, other.

    Section 5.1 puts access control on the file system, not in app code;
    these are the stock shapes the schema stamps on the nodes it creates
    so apps and drivers collaborate under distinct non-root uids.
    """
    entries = [AclEntry(AclTag.USER_OBJ, owner)]
    if apps is not None:
        entries.append(AclEntry(AclTag.GROUP, apps, APPS_GID))
    if drivers is not None:
        entries.append(AclEntry(AclTag.GROUP, drivers, DRIVERS_GID))
    entries.append(AclEntry(AclTag.OTHER, other))
    return Acl(entries=tuple(entries))


#: Surfaces both apps and drivers create/remove children in.
ACL_COLLAB_DIR = schema_acl(apps=7, drivers=7)

#: Surfaces only drivers populate (master switches/, counters/).
ACL_DRIVER_DIR = schema_acl(drivers=7)

#: Surfaces only apps populate (hosts/, views/).
ACL_APP_DIR = schema_acl(apps=7)

#: Private per-app buffers: the owner plus delivering drivers/apps, no one else.
ACL_PRIVATE_SPOOL = schema_acl(apps=7, drivers=7, other=0)

#: Counter files: the reporting driver updates (and slicers mirror copies
#: into tenant views), everyone reads.
ACL_COUNTER_FILE = schema_acl(owner=6, apps=6, drivers=6, other=4)

#: Hardware attribute files any driver may rewrite (live upgrade, §4.3
#: migration hands a switch dir to a successor driver with a new uid).
ACL_DRIVER_FILE = schema_acl(owner=6, drivers=6, other=4)

#: Attribute files several apps legitimately co-write (host ip, port_down).
ACL_APP_FILE = schema_acl(owner=6, apps=6, other=4)

#: Files both apps and drivers write (migratable middlebox state).
ACL_SHARED_FILE = schema_acl(owner=6, apps=6, drivers=6, other=4)

#: A per-app home directory: the owning uid only (plus root).
ACL_PRIVATE_HOME = schema_acl(other=0)


class AttributeFile(FileInode):
    """A text attribute file validated (and rolled back) on close."""

    def __init__(self, fs: Filesystem, *, mode: int, uid: int, gid: int, validator: validate.Validator | None = None) -> None:
        super().__init__(fs, mode=mode, uid=uid, gid=gid)
        self.validator = validator
        self._last_valid = b""

    def on_close_write(self, cred: Credentials) -> None:
        text = self.read_all().decode(errors="replace")
        if self.validator is not None:
            try:
                self.validator(text)
            except InvalidArgument:
                self.set_content(self._last_valid)
                raise
        self._last_valid = self.read_all()

    def set_validated_content(self, text: str) -> None:
        """Validate and store ``text`` as the new committed content.

        The direct-store (libyanc) equivalent of write + close: the same
        validator runs, and on success the content becomes the rollback
        point a later failed close restores to.  Raises
        :class:`~repro.vfs.errors.InvalidArgument` — and changes nothing —
        when validation fails.
        """
        if self.validator is not None:
            self.validator(text)
        data = text.encode()
        self.set_content(data)
        self._last_valid = data


class ObjectDir(DirInode):
    """A yanc object directory: rmdir is automatically recursive (§3.2)."""

    #: Stamped onto every instance at creation (None = plain mode bits).
    default_acl: Acl | None = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.default_acl is not None:
            self.acl = self.default_acl

    def recursive_rmdir_ok(self) -> bool:
        return True


class CountersDir(ObjectDir):
    """Counters: numeric files maintained by the driver."""

    default_acl = ACL_DRIVER_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.REGULAR:
            raise NotPermitted(name, "counters hold plain files only")


def _make_attr(fs: Filesystem, parent: DirInode, name: str, content: str, *, validator: validate.Validator | None = None, mode: int = DEFAULT_FILE_MODE, acl: Acl | None = None) -> AttributeFile:
    node = AttributeFile(fs, mode=mode, uid=parent.uid, gid=parent.gid, validator=validator)
    if acl is not None:
        node.acl = acl
    node.set_validated_content(content)
    parent.attach(name, node)
    return node


def _make_counters(fs: Filesystem, parent: DirInode, names: tuple[str, ...]) -> CountersDir:
    counters = CountersDir(fs, mode=DEFAULT_DIR_MODE, uid=parent.uid, gid=parent.gid)
    parent.attach("counters", counters)
    for name in names:
        _make_attr(fs, counters, name, "0", validator=validate.counter_value, acl=ACL_COUNTER_FILE)
    return counters


class FlowNode(ObjectDir):
    """One flow entry: ``match.*``/``action.*`` files plus commit protocol.

    Removal policy (``may_remove``): the collab ACL lets collaborators add
    and ack files in any flow, but retracting an entry is reserved to the
    file's creator, the flow's owner, the switch's servicing driver (who
    retires expired flows), or root — a foreign app cannot retract another
    principal's staged spec or committed version.
    """

    default_acl = ACL_COLLAB_DIR

    def may_remove(self, name: str, node: Inode, cred: Credentials) -> None:
        if cred.is_root or cred.uid in (node.uid, self.uid):
            return
        if cred.uid in {parent.uid for parent, _name in self.dentries}:
            return  # owner of flows/ itself: the switch's servicing driver
        raise NotPermitted(name, "flow entries are retracted by owner or driver only")

    def on_child_attached(self, name: str, node: Inode) -> None:
        # Wire validators onto files created empty via open(O_CREAT).
        if isinstance(node, AttributeFile) and node.validator is None and not name.startswith("state."):
            node.validator = validate.flow_file_validator(name)

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is FileType.DIRECTORY:
            raise NotPermitted(name, "flows contain no subdirectories")
        if ftype is FileType.SYMLINK:
            raise NotPermitted(name, "flows contain no symlinks")
        validate.flow_file_validator(name)  # raises for unknown names

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        validator = validate.flow_file_validator(name)
        return AttributeFile(self.fs, mode=DEFAULT_FILE_MODE, uid=cred.uid, gid=cred.gid, validator=validator)

    def populate(self) -> None:
        """Semantic mkdir: every flow is born with counters/ and version."""
        _make_counters(self.fs, self, FLOW_COUNTERS)
        _make_attr(self.fs, self, "version", "0", validator=validate.version_number)


class FlowsDir(ObjectDir):
    """``flows/``: mkdir creates a :class:`FlowNode`.

    Removal policy (``may_remove``, in the spirit of ``/tmp``'s sticky
    bit): the collab ACL lets every app *create* flows, but only the
    creating uid, the switch's servicing driver (``flows/``'s own uid),
    or root may remove one — commit authority over a flow entry belongs
    to whoever assembled it (§3.4/§5.1), while the driver must still be
    able to retire expired entries.
    """

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "flows/ holds flow directories only")

    def may_remove(self, name: str, node: Inode, cred: Credentials) -> None:
        if cred.is_root or cred.uid in (node.uid, self.uid):
            return
        raise NotPermitted(name, "flow retirement is owner-or-driver only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return FlowNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)

    def on_child_attached(self, name: str, node: Inode) -> None:
        if isinstance(node, FlowNode):
            if not node.has_child("version"):
                node.populate()


class PortNode(ObjectDir):
    """One port: counters, config/status files, and the ``peer`` symlink."""

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is FileType.SYMLINK and name != "peer":
            raise NotPermitted(name, "the only port symlink is 'peer' (§3.3)")
        if ftype is FileType.DIRECTORY and name != "counters":
            raise NotPermitted(name, "ports contain no extra subdirectories")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        if ftype is FileType.REGULAR:
            validator = validate.PORT_ATTRIBUTE_VALIDATORS.get(name)
            return AttributeFile(self.fs, mode=DEFAULT_FILE_MODE, uid=cred.uid, gid=cred.gid, validator=validator)
        return super().child_factory(name, ftype, cred)

    def populate(self) -> None:
        """Semantic mkdir: counters plus the standard config/status files."""
        _make_counters(self.fs, self, PORT_COUNTERS)
        _make_attr(self.fs, self, "config.port_down", "0", validator=validate.boolean_flag, acl=ACL_APP_FILE)
        _make_attr(self.fs, self, "config.port_status", "up", validator=validate.port_status, acl=ACL_DRIVER_FILE)
        _make_attr(self.fs, self, "hw_addr", "00:00:00:00:00:00", validator=validate.mac_address, acl=ACL_DRIVER_FILE)
        _make_attr(self.fs, self, "name", "", acl=ACL_DRIVER_FILE)


class PortsDir(ObjectDir):
    """``ports/``: mkdir creates a :class:`PortNode`."""

    default_acl = ACL_DRIVER_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "ports/ holds port directories only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return PortNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)

    def on_child_attached(self, name: str, node: Inode) -> None:
        if isinstance(node, PortNode) and not node.has_child("counters"):
            node.populate()


class EventBufferDir(ObjectDir):
    """One application's private packet-in buffer (§3.5).

    Message subdirectories are object directories so a consumer can
    ``rmdir`` one in a single call after reading it.
    """

    default_acl = ACL_PRIVATE_SPOOL

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        if ftype is FileType.DIRECTORY:
            return ObjectDir(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)
        return super().child_factory(name, ftype, cred)


class EventsDir(ObjectDir):
    """``events/``: each application mkdirs its private buffer here."""

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "events/ holds per-application buffers")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return EventBufferDir(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)


class PacketOutDir(ObjectDir):
    """``packet_out/``: a spool for outbound packets (driver-consumed).

    An application emits a packet by creating a file here whose *name*
    encodes the output port (``<port>.<app>.<seq>``, where port is a
    number, ``flood``, or ``b<buffer_id>`` to release a buffered packet)
    and whose *content* is the raw frame.  The driver unlinks entries as
    it transmits them.  This is the inverse of the ``events/`` buffers and
    keeps packet transmission inside the file-system API.
    """

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.REGULAR:
            raise NotPermitted(name, "packet_out holds spool files only")


class SwitchNode(ObjectDir):
    """One switch (paper figure 3, left)."""

    def populate(self) -> None:
        """Semantic mkdir: the figure-3 children, all at once."""
        _make_counters(self.fs, self, ("rx_packets", "tx_packets", "rx_errors"))
        flows = FlowsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid)
        self.attach("flows", flows)
        ports = PortsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid)
        self.attach("ports", ports)
        events = EventsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid)
        self.attach("events", events)
        spool = PacketOutDir(self.fs, mode=0o777, uid=self.uid, gid=self.gid)
        self.attach("packet_out", spool)
        for name in SWITCH_ATTRIBUTE_FILES:
            _make_attr(self.fs, self, name, "", validator=validate.SWITCH_ATTRIBUTE_VALIDATORS.get(name), acl=ACL_DRIVER_FILE)

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is FileType.SYMLINK:
            raise NotPermitted(name, "switches contain no symlinks")


class SwitchesDir(ObjectDir):
    """``switches/``: mkdir creates a fully-populated :class:`SwitchNode`.

    Inside views any app may assemble switches (slicers and virtualizers
    build their tenants' topologies); the *master* ``/net/switches`` is
    re-stamped driver-only by :meth:`YancRootDir.populate`.
    """

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "switches/ holds switch directories only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return SwitchNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)

    def on_child_attached(self, name: str, node: Inode) -> None:
        if isinstance(node, SwitchNode) and not node.has_child("flows"):
            node.populate()


class HostNode(ObjectDir):
    """One end host: mac/ip/attachment files."""

    default_acl = ACL_APP_DIR

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        if ftype is FileType.REGULAR:
            validator = validate.HOST_ATTRIBUTE_VALIDATORS.get(name)
            node = AttributeFile(self.fs, mode=DEFAULT_FILE_MODE, uid=cred.uid, gid=cred.gid, validator=validator)
            # Host attributes are co-written: discovery records the host,
            # ARP/DHCP later refresh its addresses under their own uids.
            node.acl = ACL_APP_FILE
            return node
        return super().child_factory(name, ftype, cred)


class HostsDir(ObjectDir):
    """``hosts/``: mkdir creates a :class:`HostNode`."""

    default_acl = ACL_APP_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "hosts/ holds host directories only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return HostNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)


class ViewNode(ObjectDir):
    """One network view: structurally identical to the root (§4.2)."""

    def populate(self) -> None:
        """Semantic mkdir: hosts/, switches/, views/ (paper §3.1)."""
        self.attach("hosts", HostsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid))
        self.attach("switches", SwitchesDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid))
        self.attach("views", ViewsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid))

    def may_remove(self, name: str, node: Inode, cred: Credentials) -> None:
        if name in TOP_LEVEL_DIRS:
            raise NotPermitted(name, "a view's structural directories are fixed")


class ViewsDir(ObjectDir):
    """``views/``: mkdir creates a nested, auto-populated :class:`ViewNode`."""

    default_acl = ACL_APP_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "views/ holds view directories only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return ViewNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)

    def on_child_attached(self, name: str, node: Inode) -> None:
        if isinstance(node, ViewNode) and not node.has_child("hosts"):
            node.populate()


class StateEntryDir(ObjectDir):
    """One piece of middlebox state (a NAT binding, a firewall session).

    Plain attribute files so `cp`/`mv` work on it — "we envision that we
    can use command line utilities such as cp or mv to move state around
    rather than custom protocols" (§7.2).
    """

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.REGULAR:
            raise NotPermitted(name, "state entries hold plain files only")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        node = super().child_factory(name, ftype, cred)
        # State entries move between middleboxes with cp/mv (§7.2): the
        # copying admin app and the adopting driver both touch the files.
        node.acl = ACL_SHARED_FILE
        return node


class StateDir(ObjectDir):
    """``state/``: a middlebox's migratable state entries."""

    default_acl = ACL_COLLAB_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "state/ holds state-entry directories")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return StateEntryDir(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)


class MiddleboxNode(ObjectDir):
    """One middlebox (§7.2): attribute files + counters/ + state/."""

    def populate(self) -> None:
        _make_counters(self.fs, self, ("translated", "dropped", "connections"))
        state = StateDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid)
        self.attach("state", state)
        _make_attr(self.fs, self, "type", "")
        _make_attr(self.fs, self, "public_ip", "")


class MiddleboxesDir(ObjectDir):
    """``middleboxes/``: created lazily by the first middlebox driver."""

    default_acl = ACL_DRIVER_DIR

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "middleboxes/ holds middlebox directories")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return MiddleboxNode(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)

    def on_child_attached(self, name: str, node: Inode) -> None:
        if isinstance(node, MiddleboxNode) and not node.has_child("state"):
            node.populate()


class AppNode(ObjectDir):
    """One application's private home under ``/net/apps/<name>/``.

    Scratch state, configs, logs — owned by the app's per-name uid with an
    ACL that shuts every other tenant out (the reference monitor treats a
    cross-uid read in here as a cross-tenant violation).
    """

    default_acl = ACL_PRIVATE_HOME


class AppsDir(ObjectDir):
    """``apps/``: per-application homes, created by the controller host."""

    default_acl = schema_acl()

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if ftype is not FileType.DIRECTORY:
            raise NotPermitted(name, "apps/ holds per-application home directories")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        return AppNode(self.fs, mode=0o700, uid=cred.uid, gid=cred.gid)


class YancRootDir(DirInode):
    """The fixed root: hosts/, switches/, views/ — plus, lazily,
    middleboxes/ when a middlebox driver starts (§7.2) and apps/ when the
    controller host spawns its first named application."""

    def may_create(self, name: str, ftype: FileType, cred: Credentials) -> None:
        if name in ("middleboxes", "apps") and ftype is FileType.DIRECTORY:
            return
        raise NotPermitted(name, "the yanc root holds only hosts/, switches/, views/")

    def child_factory(self, name: str, ftype: FileType, cred: Credentials) -> Inode:
        if name == "middleboxes":
            return MiddleboxesDir(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)
        if name == "apps":
            return AppsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=cred.uid, gid=cred.gid)
        return super().child_factory(name, ftype, cred)

    def may_remove(self, name: str, node: Inode, cred: Credentials) -> None:
        if name not in ("middleboxes", "apps"):
            raise NotPermitted(name, "the yanc root directories are fixed")

    def populate(self) -> None:
        self.acl = ACL_DRIVER_DIR  # drivers may create middleboxes/ lazily
        self.attach("hosts", HostsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid))
        switches = SwitchesDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid)
        # Master switches appear only through drivers; view subtrees keep
        # the class default that lets slicers assemble tenant topologies.
        switches.acl = ACL_DRIVER_DIR
        self.attach("switches", switches)
        self.attach("views", ViewsDir(self.fs, mode=DEFAULT_DIR_MODE, uid=self.uid, gid=self.gid))


class YancFs(Filesystem):
    """The yanc file system, typically mounted on ``/net``."""

    fs_type = "yancfs"

    def make_root(self) -> DirInode:
        root = YancRootDir(self, mode=DEFAULT_DIR_MODE, uid=0, gid=0)
        root.populate()
        return root
