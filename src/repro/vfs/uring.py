"""io_uring-style batched syscall submission (paper §8.1).

Every method on :class:`~repro.vfs.syscalls.Syscalls` is one metered
system call — one kernel crossing, ``ctxsw_per_syscall`` context switches
under the FUSE cost model.  The hot paths of a controller (installing a
table of flows, fanning one packet-in out to N application buffers)
therefore pay a crossing *per file touched*.  :class:`IoUring` amortizes
that the way ``io_uring(7)`` does:

* callers **prepare** submission-queue entries (:meth:`IoUring.prep`, or
  the :meth:`IoUring.prep_write_file` convenience that expands into a
  linked ``open → write → close`` chain);
* one :meth:`IoUring.submit` crosses into the kernel **once** (a single
  metered ``io_uring_enter``) and executes every queued entry;
* results come back as :class:`Cqe` records on a completion queue that is
  a :class:`~repro.vfs.poll.Pollable`, as :class:`~repro.vfs.notify.Inotify`
  is, so a process can park its :class:`~repro.vfs.poll.Epoll` loop on ring
  completions exactly as it does on inotify events.  Reaping completions
  touches only the shared ring memory: no syscall.

**Linked chains.**  An entry prepared with ``link=True`` ties the *next*
entry to its success: if it fails, every remaining entry of the chain
completes with ``canceled=True`` instead of executing (io_uring's
``IOSQE_IO_LINK``).  Inside a chain the :data:`LINK_FD` sentinel stands
for the descriptor produced by the chain's most recent ``open``, which is
what makes ``open → write → close`` expressible before the fd exists.  If
a chain is severed while its descriptor is still open, the ring closes it
(billed as ``uring.chain_autoclose``) so a failed batch cannot leak fds.

**Observability.**  Entries execute through the real ``Syscalls``
methods, so each fires that method's ``syscall`` trace point exactly as
a direct call would, and :meth:`IoUring.submit` is itself a trace point
(``on_uring_submit_enter(ring)`` / ``on_uring_submit_exit(ring, result,
exc)``) so a subscriber can tell which ops one crossing carried.  The
meter is paused around the batch so the facade's per-call billing does
not double-count; what executed is instead billed once per submit via
:meth:`~repro.perf.meter.SyscallMeter.batch_ops` (``uring.sqe`` /
``uring.<op>`` / payload bytes).  Batching changes the *cost*, never the
event stream or the analysis coverage: at run time an entry *is* the
direct call, so it publishes the same ``(op, paths, args)``; statically
the interpreter records ``prep(op, ...)`` as a site of ``op`` (and
``prep_write_file`` as one of ``write_bytes``) with its paths at the
table row's positions, so every judge sees it as the call it stands
for.  Only the crossing is different, and an entry costs no more wall
time than the direct call: the context's bound methods are looked up
once per ring, :data:`LINK_FD` is substituted only where it appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.errors import FsError, InvalidArgument
from repro.vfs.poll import Pollable
from repro.vfs.syscalls import SYSCALLS
from repro.vfs.vfs import O_CREAT, O_TRUNC, O_WRONLY

if TYPE_CHECKING:
    from repro.vfs.syscalls import Syscalls


class _LinkFd:
    """Sentinel: the fd opened earlier in this linked chain."""

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "LINK_FD"


#: Placeholder argument for the descriptor a chain's preceding ``open``
#: produced (usable anywhere an op takes an fd).
LINK_FD = _LinkFd()

#: Operations a ring accepts: the rows of the syscall table marked ``ring``
#: (the fd- and path-based calls a batch can meaningfully contain).
#: Readiness/notification descriptors (inotify, epoll) stay direct calls —
#: they *are* the wait primitives.
SUPPORTED_OPS = frozenset(op for op, row in SYSCALLS.items() if row.ring)


@dataclass(slots=True)
class Sqe:
    """One submission-queue entry."""

    op: str
    args: tuple
    link: bool = False  # ties the NEXT entry to this one's success
    user_data: object = None


@dataclass(slots=True)
class Cqe:
    """One completion-queue entry, in submission order.

    Exactly one of the three outcomes holds: ``result`` (success),
    ``error`` (the op raised an :class:`~repro.vfs.errors.FsError`), or
    ``canceled=True`` (an earlier entry of the same linked chain failed,
    so this one never ran).
    """

    index: int  # submission order within the batch
    op: str
    result: object = None
    error: FsError | None = None
    canceled: bool = False
    user_data: object = None

    @property
    def ok(self) -> bool:
        """True when the operation executed and succeeded."""
        return self.error is None and not self.canceled


@dataclass
class IoUring(Pollable):
    """A submission/completion ring bound to one syscall context.

    Created via :meth:`Syscalls.io_uring_setup`; the ring shares the
    context's credentials, namespace, fd table, and meter, so a batched
    ``open`` yields an fd usable by direct calls and vice versa.
    """

    sc: "Syscalls"
    entries: int = 256
    _sq: list[Sqe] = field(default_factory=list)
    _cq: list[Cqe] = field(default_factory=list)
    _seq: int = 0
    #: op -> the context's bound method, looked up once per ring
    _ops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        super().__init__()
        if self.entries < 1:
            raise InvalidArgument(detail=f"ring size must be >= 1, got {self.entries}")

    # -- preparation (no syscalls: the SQ lives in shared memory) ------------

    def prep(self, op: str, *args, link: bool = False, user_data: object = None) -> int:
        """Queue one operation; returns its submission index.

        ``link=True`` makes the *next* prepared entry conditional on this
        one succeeding (chains compose by linking every entry but the
        last).  Raises when the op is not a ring row of the syscall
        table or the queue is full.
        """
        if op not in SUPPORTED_OPS:
            raise InvalidArgument(detail=f"unsupported ring op {op!r}")
        self._room(1)
        self._sq.append(Sqe(op, args, link, user_data))
        return len(self._sq) - 1

    def prep_write_file(self, path: str, data: bytes, *, link: bool = False, user_data: object = None) -> int:
        """Queue ``open → write → close`` as one linked chain.

        The batched equivalent of ``Syscalls.write_bytes`` (the ``echo
        value > file`` idiom).  ``link=True`` extends the chain into the
        *next* prepared entry, so whole multi-file sequences — assemble a
        maildir temp, then rename it into place — cancel together when any
        step fails.  All three entries are queued or, when the queue has
        no room for them, none is.  Returns the index of the ``open``.
        """
        self._room(3)
        self._sq += (
            Sqe("open", (path, O_WRONLY | O_CREAT | O_TRUNC), True, user_data),
            Sqe("write", (LINK_FD, data), True, user_data),
            Sqe("close", (LINK_FD,), link, user_data),
        )
        return len(self._sq) - 3

    def _room(self, needed: int) -> None:
        if len(self._sq) + needed > self.entries:
            raise InvalidArgument(detail=f"submission queue full ({self.entries} entries)")

    @property
    def sq_pending(self) -> int:
        """Entries queued but not yet submitted."""
        return len(self._sq)

    # -- submission (the one metered kernel crossing) ------------------------

    def submit(self) -> int:
        """Execute every queued entry under a single ``io_uring_enter``.

        Entries run in submission order through the real ``Syscalls``
        methods (so sanitizers, race detection, and notify events all see
        them) with the meter paused for the whole batch; what ran is then
        billed in one go, per op kind.  Returns the number of entries
        consumed.
        """
        if _tracing and _entering(self):
            return _around("uring_submit", (self,), self.submit)
        if not self._sq:
            return 0
        sc = self.sc
        meter = sc.meter
        meter.enter("io_uring_enter")
        batch, self._sq = self._sq, []
        cq = self._cq
        was_empty = not cq
        ops = self._ops
        billed: dict[str, int] = {}  # op kind -> entries of this batch billed under it
        nbytes = 0
        index = self._seq
        chain_fd: int | None = None
        chain_broken = False
        try:
            with meter.pause():
                for sqe in batch:
                    op = kind = sqe.op  # kind: what the entry is billed as
                    result = error = None
                    canceled = chain_broken
                    if canceled:
                        kind = "canceled"
                    else:
                        args = sqe.args
                        if LINK_FD in args:
                            if chain_fd is None:
                                error = InvalidArgument(detail=f"{op}: LINK_FD with no open earlier in the chain")
                            else:
                                args = tuple([chain_fd if arg is LINK_FD else arg for arg in args])
                        if error is None:
                            fn = ops.get(op)
                            if fn is None:
                                fn = ops[op] = getattr(sc, op)
                            try:
                                result = fn(*args)
                            except FsError as exc:
                                error = exc
                            else:
                                if op == "open":
                                    chain_fd = result
                                elif op == "close":
                                    if sqe.args[0] is LINK_FD:
                                        chain_fd = None
                                else:
                                    nbytes += self._payload_bytes(op, args, result)
                        # An error cancels the rest of a linked chain; for a
                        # chain-final entry the boundary reset below runs this
                        # same iteration, so only the autoclose side effect remains.
                        chain_broken = error is not None
                    cq.append(Cqe(index, op, result, error, canceled, sqe.user_data))
                    billed[kind] = billed.get(kind, 0) + 1
                    index += 1
                    if not sqe.link:  # chain boundary: reset link state
                        if chain_broken and chain_fd is not None:
                            self._autoclose(chain_fd, billed)
                        chain_fd = None
                        chain_broken = False
                if chain_broken and chain_fd is not None:
                    self._autoclose(chain_fd, billed)
        finally:
            self._seq = index
            meter.batch_ops(billed, nbytes)
        if cq and was_empty:
            self._notify_pollers()
        return len(batch)

    @staticmethod
    def _payload_bytes(op: str, args: tuple, result: object) -> int:
        if op in ("read", "pread") and isinstance(result, bytes):
            return len(result)
        if op in ("write", "pwrite") and isinstance(args[1], (bytes, bytearray, memoryview)):
            return len(args[1])
        return 0

    def _autoclose(self, fd: int, billed: dict[str, int]) -> None:
        """Close the fd a severed chain left open (no descriptor leaks); runs inside the submit's meter pause."""
        try:
            self.sc.close(fd)
        except FsError:
            return
        billed["chain_autoclose"] = billed.get("chain_autoclose", 0) + 1

    # -- completion reaping (shared memory: free) ----------------------------

    def completions(self, max_entries: int | None = None) -> list[Cqe]:
        """Drain up to ``max_entries`` completions, oldest first.

        Like reading the CQ tail from the mapped ring: costs nothing and
        is unmetered.
        """
        if max_entries is None or max_entries >= len(self._cq):
            out, self._cq = self._cq, []
        else:
            out, self._cq = self._cq[:max_entries], self._cq[max_entries:]
        return out

    @property
    def cq_pending(self) -> int:
        """Completions waiting to be reaped."""
        return len(self._cq)

    def close(self) -> None:
        """Drop queued entries, unreaped completions and pollers."""
        self._sq.clear()
        self._cq.clear()
        self._pollers.clear()

    def readable(self) -> bool:
        """True when completions are waiting (the pollable protocol)."""
        return bool(self._cq)


__all__ = ["Cqe", "IoUring", "LINK_FD", "SUPPORTED_OPS", "Sqe"]
