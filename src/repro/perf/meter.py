"""The syscall meter hooked into the VFS facade."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.counters import PerfCounters
from repro.perf.cost import CostModel, FUSE_COST_MODEL


@dataclass
class SyscallMeter:
    """Counts syscalls and the context switches they imply.

    The VFS syscall facade (:class:`repro.vfs.syscalls.Syscalls`) calls
    :meth:`enter` once per syscall with the call's name.  The meter bumps
    ``syscall.<name>``, the aggregate ``syscall.total``, and ``ctxsw``
    according to the active cost model's ``ctxsw_per_syscall``.

    A meter can be temporarily suspended (:meth:`pause`) so that internal
    bookkeeping traffic — e.g. a driver's own consistency scan — is not
    billed to an application.
    """

    counters: PerfCounters = field(default_factory=PerfCounters)
    model: CostModel = FUSE_COST_MODEL
    _paused: int = 0

    def enter(self, name: str, nbytes: int = 0) -> None:
        """Record one syscall named ``name`` moving ``nbytes`` payload bytes."""
        if self._paused:
            return
        self.counters.add(f"syscall.{name}")
        self.counters.add("syscall.total")
        if self.model.ctxsw_per_syscall:
            self.counters.add("ctxsw", self.model.ctxsw_per_syscall)
        if nbytes:
            self.counters.add("bytes.copied", nbytes)

    def batch_ops(self, ops: dict[str, int], nbytes: int = 0) -> None:
        """Record the operations one ring submit executed (see :mod:`repro.vfs.uring`).

        ``ops`` maps an op kind to how many entries ran as it.  A batched
        operation crosses no protection boundary of its own — the batch's
        single ``io_uring_enter`` already paid the syscall and context
        switches — so this bills only the per-op bookkeeping
        (``uring.sqe``, ``uring.<kind>``) and the payload bytes moved.
        """
        if self._paused or not ops:
            return
        add = self.counters.add
        add("uring.sqe", sum(ops.values()))
        for kind, count in ops.items():
            add(f"uring.{kind}", count)
        if nbytes:
            add("bytes.copied", nbytes)

    def pause(self) -> "_MeterPause":
        """Return a context manager that suspends metering while active."""
        return _MeterPause(self)

    @property
    def syscalls(self) -> int:
        """Total syscalls recorded."""
        return self.counters.get("syscall.total")

    @property
    def context_switches(self) -> int:
        """Total context switches recorded."""
        return self.counters.get("ctxsw")

    def reset(self) -> None:
        """Zero all counters."""
        self.counters.reset()


class _MeterPause:
    """Context manager produced by :meth:`SyscallMeter.pause`."""

    def __init__(self, meter: SyscallMeter) -> None:
        self._meter = meter

    def __enter__(self) -> SyscallMeter:
        self._meter._paused += 1
        return self._meter

    def __exit__(self, *exc_info: object) -> None:
        self._meter._paused -= 1
