"""Zero-copy bulk-data passing between applications.

Models the paper's "efficient, zero-copy passing of bulk data — packet in
buffers, for example — among applications": a fixed-capacity single-
producer ring whose slots hold *references* to immutable buffers.  A
consumer receives exactly the producer's buffer object (a memoryview over
the same bytes), so the handoff cost is O(1) regardless of payload size.

For contrast, :meth:`ShmRing.put_copy` moves the same data the way the
file path would — through a byte copy — and bills ``bytes.copied``; the E2
benchmark shows the two curves diverge linearly in payload size.

A ring is a :class:`~repro.vfs.poll.Pollable`: a consumer
process registers the ring in its :class:`~repro.vfs.poll.Epoll` set and
is woken on the empty → non-empty edge, exactly as it would be for an
inotify descriptor — so shared-memory delivery plugs into the ordinary
process run loop instead of requiring a second wait primitive.
"""

from __future__ import annotations

from repro.perf.counters import PerfCounters
from repro.vfs.poll import Pollable


class ShmRing(Pollable):
    """A bounded ring of buffer references in shared memory."""

    def __init__(self, capacity: int = 1024, *, counters: PerfCounters | None = None) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters = counters or PerfCounters()
        self._slots: list[memoryview | None] = [None] * capacity
        self._head = 0  # next slot to read
        self._tail = 0  # next slot to write
        self._size = 0
        self.dropped = 0

    def __len__(self) -> int:
        return self._size

    def readable(self) -> bool:
        """True when buffers are waiting (the pollable protocol)."""
        return self._size > 0

    @property
    def full(self) -> bool:
        """True when a put would be refused."""
        return self._size == self.capacity

    def put(self, data: bytes | bytearray | memoryview) -> bool:
        """Enqueue a reference to ``data`` — zero bytes copied.

        Returns False (and counts a drop) when the ring is full.
        """
        self.counters.add("shm.put")
        if self._size == self.capacity:
            self.dropped += 1
            self.counters.add("shm.dropped")
            return False
        was_empty = self._size == 0
        self._slots[self._tail] = data if isinstance(data, memoryview) else memoryview(data)
        self._tail = (self._tail + 1) % self.capacity
        self._size += 1
        if was_empty:
            self._notify_pollers()
        return True

    def put_copy(self, data: bytes) -> bool:
        """The copying alternative: what moving the payload through file
        descriptors costs.  Bills one byte-copy per payload byte."""
        self.counters.add("shm.put")
        self.counters.add("bytes.copied", len(data))
        return self.put(bytes(data))

    def get(self) -> memoryview | None:
        """Dequeue the oldest buffer reference (None when empty)."""
        self.counters.add("shm.get")
        if self._size == 0:
            return None
        slot = self._slots[self._head]
        self._slots[self._head] = None
        self._head = (self._head + 1) % self.capacity
        self._size -= 1
        return slot

    def drain(self) -> list[memoryview]:
        """Dequeue everything."""
        out = []
        while self._size:
            item = self.get()
            assert item is not None
            out.append(item)
        return out
