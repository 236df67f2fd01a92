"""The dataplane: simulated switches, links, hosts, and topologies.

This package replaces the paper's Mininet/hardware substrate.  Switches
forward real frames through priority flow tables with OpenFlow 1.0 match
semantics (wildcards, CIDR prefixes), punt table misses to their control
agent, keep per-flow and per-port counters, and honour idle/hard timeouts —
everything the yanc file system exposes and the drivers program.
"""

from repro.dataplane.actions import (
    FLOOD,
    IN_PORT,
    LOCAL,
    TO_CONTROLLER,
    Action,
    Output,
    SetDlDst,
    SetDlSrc,
    SetNwDst,
    SetNwSrc,
    SetTpDst,
    SetTpSrc,
    SetVlan,
    StripVlan,
    parse_action,
)
from repro.dataplane.flowtable import FlowEntry, FlowRemovedReason, FlowTable, LinearFlowTable
from repro.dataplane.host import HostSim
from repro.dataplane.link import Link
from repro.dataplane.match import Match
from repro.dataplane.network import Network
from repro.dataplane.switch import PacketInReason, PortSim, SwitchSim
from repro.dataplane.topology import (
    build_campus,
    build_clos,
    build_fat_tree,
    build_linear,
    build_ring,
    build_tree,
)
from repro.dataplane.traffic import ReplayStats, TrafficFlow, TrafficMatrix, TrafficReplay

__all__ = [
    "FLOOD",
    "IN_PORT",
    "LOCAL",
    "TO_CONTROLLER",
    "Action",
    "Output",
    "SetDlDst",
    "SetDlSrc",
    "SetNwDst",
    "SetNwSrc",
    "SetTpDst",
    "SetTpSrc",
    "SetVlan",
    "StripVlan",
    "parse_action",
    "FlowEntry",
    "FlowRemovedReason",
    "FlowTable",
    "LinearFlowTable",
    "HostSim",
    "Link",
    "Match",
    "Network",
    "PacketInReason",
    "PortSim",
    "SwitchSim",
    "build_campus",
    "build_clos",
    "build_fat_tree",
    "build_linear",
    "build_ring",
    "build_tree",
    "ReplayStats",
    "TrafficFlow",
    "TrafficMatrix",
    "TrafficReplay",
]
