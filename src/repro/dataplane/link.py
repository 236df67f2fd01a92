"""Point-to-point links with latency, driven by the simulator clock."""

from __future__ import annotations

from typing import Protocol

from repro.netpkt.packet import Frame
from repro.sim import Simulator


class LinkEndpoint(Protocol):
    """Anything a link can join: a switch port or a host NIC."""

    def handle_frame(self, frame: Frame) -> None:
        """Deliver an arriving frame (shared with every other receiver; do not modify it)."""
        ...

    @property
    def endpoint_name(self) -> str:
        """Stable display name (``sw1:2`` or ``h1:eth0``)."""
        ...


class Link:
    """A bidirectional link between two endpoints."""

    def __init__(self, sim: Simulator, a: LinkEndpoint, b: LinkEndpoint, *, latency: float = 1e-4) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.up = True
        self.tx_frames = 0
        self.dropped_frames = 0

    def peer_of(self, endpoint: LinkEndpoint) -> LinkEndpoint:
        """The endpoint at the other end."""
        if endpoint is self.a:
            return self.b
        if endpoint is self.b:
            return self.a
        raise ValueError("endpoint is not attached to this link")

    def transmit(self, sender: LinkEndpoint, frame: Frame) -> None:
        """Carry ``frame`` from ``sender`` to the peer after the latency."""
        if not self.up:
            self.dropped_frames += 1
            return
        peer = self.peer_of(sender)
        self.tx_frames += 1
        self.sim.schedule(self.latency, lambda: peer.handle_frame(frame))

    def set_up(self, up: bool) -> None:
        """Administratively raise or cut the link."""
        self.up = up

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Link({self.a.endpoint_name} <-> {self.b.endpoint_name}, {state})"
