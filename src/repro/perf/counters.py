"""Named monotonic counters with snapshot/delta support."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CounterSnapshot:
    """An immutable point-in-time copy of a :class:`PerfCounters`."""

    values: dict[str, int]

    def get(self, name: str) -> int:
        """Return the snapshotted value of ``name`` (0 if never counted)."""
        return self.values.get(name, 0)

    def delta(self, earlier: "CounterSnapshot") -> dict[str, int]:
        """Return per-counter increments between ``earlier`` and this snapshot.

        Counters absent from either side are treated as zero; counters whose
        increment is zero are omitted from the result.
        """
        names = set(self.values) | set(earlier.values)
        out = {}
        for name in sorted(names):
            diff = self.get(name) - earlier.get(name)
            if diff:
                out[name] = diff
        return out


@dataclass
class PerfCounters:
    """A registry of named monotonic event counters.

    Counters are created on first use.  Typical counter names used across
    the repo:

    * ``syscall.<name>`` — one per VFS syscall entry (e.g. ``syscall.read``).
    * ``ctxsw`` — context switches (two per FUSE-mediated syscall: app->kernel
      and kernel->fs daemon; see :mod:`repro.perf.cost`).
    * ``notify.events`` — inotify events delivered.
    * ``notify.coalesced`` / ``notify.dropped`` / ``notify.overflows`` —
      events merged into the queue tail, dropped at the queue bound, and
      IN_Q_OVERFLOW records queued (see :mod:`repro.vfs.notify`).
    * ``dcache.path_hits`` / ``dcache.path_misses`` / ``dcache.invalidations``
      / ``dcache.evictions`` / ``dcache.flushes`` — resolution-memo activity,
      published per namespace by :meth:`repro.vfs.dcache.DentryCache.publish`
      (the root namespace's on every read of ``/proc/counters``).
    * ``openflow.tx`` / ``openflow.rx`` — wire messages moved.
    """

    _values: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Return the current value of ``name`` (0 if never incremented)."""
        return self._values.get(name, 0)

    def total(self, prefix: str) -> int:
        """Sum all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self._values.items() if k.startswith(prefix))

    def snapshot(self) -> CounterSnapshot:
        """Capture an immutable copy of all current counter values."""
        return CounterSnapshot(values=dict(self._values))

    def reset(self) -> None:
        """Zero every counter."""
        self._values.clear()

    def names(self) -> list[str]:
        """Return all counter names, sorted."""
        return sorted(self._values)
