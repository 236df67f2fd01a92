"""yanc — Applying Operating System Principles to SDN Controller Design.

A full-system reproduction of the HotNets 2013 paper (Monaco, Michel,
Keller): the network's configuration and state is a file system, network
applications are ordinary processes doing file I/O, drivers translate the
tree to OpenFlow, views slice and virtualize it, distributed file systems
layered on top make the controller distributed, and libyanc is the
shared-memory fastpath.

Quick start::

    from repro import YancController, build_linear, Match, Output, FLOOD

    net = build_linear(3)
    ctl = YancController(net).start()
    yc = ctl.client()
    yc.create_flow("sw1", "flood", Match(), [Output(FLOOD)], priority=1)
    ctl.run(0.5)

Package map (bottom-up):

========================  ====================================================
``repro.perf``            syscall / context-switch metering and cost models
``repro.sim``             the discrete-event clock everything runs on
``repro.netpkt``          packet headers (Ethernet/ARP/IPv4/TCP/UDP/ICMP/LLDP)
``repro.vfs``             the in-memory Linux-style VFS (+inotify, ACLs, ns)
``repro.dataplane``       switches, links, hosts, flow tables, topologies
``repro.openflow``        OpenFlow 1.0 + 1.3 wire codecs and the switch agent
``repro.controlchannel``  driver<->switch byte streams
``repro.yancfs``          THE CONTRIBUTION: the yanc file system
``repro.drivers``         FS <-> OpenFlow drivers (per protocol version)
``repro.libyanc``         the shared-memory fastpath (§8.1)
``repro.apps``            topology, router, pusher, ARP, DHCP, firewall, ...
``repro.views``           slicer, big-switch virtualizer, namespace jails
``repro.distfs``          remote FS + distributed controller (§6)
``repro.shell``           coreutils over the VFS (§5.4)
``repro.proc``            cron + cgroups (§2, §5.3)
``repro.runtime``         one-call assembly of all of the above
========================  ====================================================
"""

from repro.dataplane import (
    FLOOD,
    TO_CONTROLLER,
    Match,
    Network,
    Output,
    TrafficMatrix,
    TrafficReplay,
    build_campus,
    build_clos,
    build_fat_tree,
    build_linear,
    build_ring,
    build_tree,
)
from repro.runtime import ControllerHost, YancController
from repro.sim import Simulator
from repro.vfs import Credentials, Syscalls, VirtualFileSystem
from repro.yancfs import YancClient, YancFs, mount_yancfs

__version__ = "1.0.0"

__all__ = [
    "FLOOD",
    "TO_CONTROLLER",
    "Match",
    "Network",
    "Output",
    "TrafficMatrix",
    "TrafficReplay",
    "build_campus",
    "build_clos",
    "build_fat_tree",
    "build_linear",
    "build_ring",
    "build_tree",
    "ControllerHost",
    "YancController",
    "Simulator",
    "Credentials",
    "Syscalls",
    "VirtualFileSystem",
    "YancClient",
    "YancFs",
    "mount_yancfs",
    "__version__",
]
