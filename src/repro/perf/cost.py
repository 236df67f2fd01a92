"""Cost models translating metered events into simulated elapsed time.

The paper (section 8.1) contrasts two access paths to the yanc store:

* the **file path**, where each access is a system call and, because yanc is
  a FUSE file system, each call crosses app -> kernel -> FUSE daemon and
  back (four context switches per call in the worst case, two in the common
  cached case we model);
* the **libyanc fastpath**, shared memory between application and store,
  with no per-access context switch.

A :class:`CostModel` assigns a time price to each metered event so that
benchmarks can report latencies whose *shape* tracks the paper's argument.
The default prices are calibrated to commodity-Linux magnitudes circa the
paper (a syscall ~1 microsecond, a context switch ~2 microseconds) — the
absolute values do not matter for the reproduction, only the ratio between
the file path and the fastpath.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.counters import CounterSnapshot, PerfCounters


@dataclass(frozen=True)
class CostModel:
    """Per-event time prices, in seconds.

    Attributes:
        syscall_cost: time charged per system call entry/exit pair.
        ctxsw_cost: time charged per context switch.
        ctxsw_per_syscall: context switches charged for every syscall (2 for
            a plain kernel FS, 4 for a FUSE round trip; 0 for shared memory).
        byte_copy_cost: time per byte for buffer copies (zero-copy paths
            charge this for 0 bytes).
    """

    name: str
    syscall_cost: float = 1.0e-6
    ctxsw_cost: float = 2.0e-6
    ctxsw_per_syscall: int = 4
    byte_copy_cost: float = 2.5e-10

    def syscall_time(self, n_syscalls: int) -> float:
        """Total simulated time for ``n_syscalls`` calls, context switches included."""
        switches = n_syscalls * self.ctxsw_per_syscall
        return n_syscalls * self.syscall_cost + switches * self.ctxsw_cost

    def copy_time(self, n_bytes: int) -> float:
        """Simulated time to memcpy ``n_bytes``."""
        return n_bytes * self.byte_copy_cost

    def charge(self, counters: PerfCounters, since: CounterSnapshot) -> float:
        """Price the counter activity since ``since`` under this model."""
        delta = counters.snapshot().delta(since)
        syscalls = sum(v for k, v in delta.items() if k.startswith("syscall."))
        copied = delta.get("bytes.copied", 0)
        return self.syscall_time(syscalls) + self.copy_time(copied)


#: The file path: yanc as a FUSE file system (app->kernel->daemon and back).
FUSE_COST_MODEL = CostModel(name="fuse", ctxsw_per_syscall=4)

#: The libyanc fastpath: shared memory, no kernel transition per access.
SHM_COST_MODEL = CostModel(name="shm", syscall_cost=0.0, ctxsw_per_syscall=0)

