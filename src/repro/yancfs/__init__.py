"""yancfs: the paper's core contribution as a mountable file system.

* :class:`YancFs` — the semantic file system (mount it at ``/net``).
* :func:`mount_yancfs` — one-call create-and-mount.
* :class:`YancClient` — path helpers and composite file-I/O operations.
"""

from repro.yancfs.client import (
    FlowSpec,
    PacketInEvent,
    YancClient,
    mount_yancfs,
)
from repro.yancfs.recovery import FsckReport, fsck
from repro.yancfs.schema import (
    AttributeFile,
    EventsDir,
    FlowNode,
    FlowsDir,
    HostNode,
    HostsDir,
    PortNode,
    PortsDir,
    SwitchNode,
    SwitchesDir,
    ViewNode,
    ViewsDir,
    YancFs,
    YancRootDir,
)

__all__ = [
    "FlowSpec",
    "FsckReport",
    "PacketInEvent",
    "YancClient",
    "fsck",
    "mount_yancfs",
    "AttributeFile",
    "EventsDir",
    "FlowNode",
    "FlowsDir",
    "HostNode",
    "HostsDir",
    "PortNode",
    "PortsDir",
    "SwitchNode",
    "SwitchesDir",
    "ViewNode",
    "ViewsDir",
    "YancFs",
    "YancRootDir",
]
