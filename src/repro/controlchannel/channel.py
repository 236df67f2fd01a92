"""Reliable in-order byte streams over the simulated clock."""

from __future__ import annotations

from typing import Callable

from repro.perf.counters import PerfCounters
from repro.sim import Simulator


class ControlConnection:
    """One endpoint of a control-channel byte stream.

    Delivery preserves ordering: each ``send`` schedules its payload
    ``latency`` seconds out, and the simulator's stable event ordering keeps
    back-to-back sends in sequence — and a ``close`` reaches the peer after
    them.  Set :attr:`on_data` to consume bytes as
    they arrive; otherwise they accumulate in :attr:`rx_buffer`.
    """

    def __init__(self, sim: Simulator, *, latency: float, counters: PerfCounters | None = None, name: str = "") -> None:
        self.sim = sim
        self.latency = latency
        self.counters = counters
        self.name = name
        self.peer: "ControlConnection | None" = None
        self.on_data: Callable[[bytes], None] | None = None
        self.rx_buffer = b""
        self.connected = True
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_messages = 0

    def send(self, data: bytes) -> None:
        """Transmit bytes to the peer (silently dropped after close)."""
        if not self.connected or self.peer is None:
            return
        self.tx_bytes += len(data)
        self.tx_messages += 1
        if self.counters is not None:
            self.counters.add("openflow.tx")
            self.counters.add("openflow.tx_bytes", len(data))
        peer = self.peer
        self.sim.schedule(self.latency, lambda: peer._deliver(data))

    def _deliver(self, data: bytes) -> None:
        if not self.connected:
            return
        self.rx_bytes += len(data)
        if self.counters is not None:
            self.counters.add("openflow.rx")
        if self.on_data is not None:
            self.on_data(data)
        else:
            self.rx_buffer += data

    def drain(self) -> bytes:
        """Take everything buffered (for endpoints without a handler)."""
        data, self.rx_buffer = self.rx_buffer, b""
        return data

    def close(self) -> None:
        """Tear the connection down: this end stops at once, the peer one latency later, so what was already sent arrives first."""
        self.connected = False
        if self.peer is not None:
            self.sim.schedule(self.latency, self.peer._hang_up)

    def _hang_up(self) -> None:
        self.connected = False


def connect(
    sim: Simulator,
    *,
    latency: float = 5e-4,
    counters: PerfCounters | None = None,
    names: tuple[str, str] = ("a", "b"),
) -> tuple[ControlConnection, ControlConnection]:
    """Create a connected pair of control-channel endpoints."""
    a = ControlConnection(sim, latency=latency, counters=counters, name=names[0])
    b = ControlConnection(sim, latency=latency, counters=counters, name=names[1])
    a.peer = b
    b.peer = a
    return a, b
