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
  *pollable* — it implements the same ``readable()`` /
  ``poll_register`` / ``poll_unregister`` protocol as
  :class:`~repro.vfs.notify.Inotify`, so a process can park its
  :class:`~repro.vfs.poll.Epoll` loop on ring completions exactly as it
  does on inotify events.  Reaping completions touches only the shared
  ring memory: no syscall.

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
meter is paused around each entry so the facade's per-call billing does
not double-count; each executed entry is instead billed via
:meth:`~repro.perf.meter.SyscallMeter.batch_op` (``uring.sqe`` /
``uring.<op>`` / payload bytes).  Batching changes the *cost*, never the
event stream or the analysis coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.perf.tracepoints import around as _around
from repro.perf.tracepoints import entering as _entering
from repro.perf.tracepoints import subscribers as _tracing
from repro.vfs.errors import FsError, InvalidArgument
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

#: Operations a ring accepts: every fd- or path-based Syscalls method a
#: batch can meaningfully contain.  Readiness/notification descriptors
#: (inotify, epoll) stay direct calls — they *are* the wait primitives.
SUPPORTED_OPS = frozenset(
    {
        "open",
        "close",
        "read",
        "write",
        "pread",
        "pwrite",
        "lseek",
        "ftruncate",
        "fstat",
        "mkdir",
        "rmdir",
        "unlink",
        "rename",
        "symlink",
        "link",
        "stat",
        "lstat",
        "exists",
        "listdir",
        "scandir",
        "truncate",
    }
)


@dataclass
class Sqe:
    """One submission-queue entry."""

    op: str
    args: tuple
    link: bool = False  # ties the NEXT entry to this one's success
    user_data: object = None


@dataclass
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
class IoUring:
    """A submission/completion ring bound to one syscall context.

    Created via :meth:`Syscalls.io_uring_setup`; the ring shares the
    context's credentials, namespace, fd table, and meter, so a batched
    ``open`` yields an fd usable by direct calls and vice versa.
    """

    sc: "Syscalls"
    entries: int = 256
    _sq: list[Sqe] = field(default_factory=list)
    _cq: list[Cqe] = field(default_factory=list)
    _pollers: list = field(default_factory=list)
    _seq: int = 0

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise InvalidArgument(detail=f"ring size must be >= 1, got {self.entries}")

    # -- preparation (no syscalls: the SQ lives in shared memory) ------------

    def prep(self, op: str, *args, link: bool = False, user_data: object = None) -> int:
        """Queue one operation; returns its submission index.

        ``link=True`` makes the *next* prepared entry conditional on this
        one succeeding (chains compose by linking every entry but the
        last).  Raises when the op is unknown or the queue is full.
        """
        if op not in SUPPORTED_OPS:
            raise InvalidArgument(detail=f"unsupported ring op {op!r}")
        if len(self._sq) >= self.entries:
            raise InvalidArgument(detail=f"submission queue full ({self.entries} entries)")
        self._sq.append(Sqe(op=op, args=args, link=link, user_data=user_data))
        return len(self._sq) - 1

    def prep_write_file(self, path: str, data: bytes, *, link: bool = False, user_data: object = None) -> int:
        """Queue ``open → write → close`` as one linked chain.

        The batched equivalent of ``Syscalls.write_bytes`` (the ``echo
        value > file`` idiom).  ``link=True`` extends the chain into the
        *next* prepared entry, so whole multi-file sequences — assemble a
        maildir temp, then rename it into place — cancel together when any
        step fails.  Returns the index of the ``open``.
        """
        index = self.prep("open", path, O_WRONLY | O_CREAT | O_TRUNC, link=True, user_data=user_data)
        self.prep("write", LINK_FD, data, link=True, user_data=user_data)
        self.prep("close", LINK_FD, link=link, user_data=user_data)
        return index

    @property
    def sq_pending(self) -> int:
        """Entries queued but not yet submitted."""
        return len(self._sq)

    # -- submission (the one metered kernel crossing) ------------------------

    def submit(self) -> int:
        """Execute every queued entry under a single ``io_uring_enter``.

        Entries run in submission order through the real ``Syscalls``
        methods (so sanitizers, race detection, and notify events all see
        them) with the meter paused; each executed entry is billed as a
        batch op instead.  Returns the number of entries consumed.
        """
        if _tracing and _entering(self):
            return _around("uring_submit", (self,), self.submit)
        if not self._sq:
            return 0
        meter = self.sc.meter
        meter.enter("io_uring_enter")
        batch, self._sq = self._sq, []
        was_empty = not self._cq
        chain_fd: int | None = None
        chain_broken = False
        for sqe in batch:
            index = self._seq
            self._seq += 1
            if chain_broken:
                self._cq.append(Cqe(index=index, op=sqe.op, canceled=True, user_data=sqe.user_data))
                meter.batch_op("canceled")
            else:
                cqe = self._execute(index, sqe, chain_fd)
                self._cq.append(cqe)
                if cqe.error is not None:
                    # Cancels the rest of a linked chain; for a chain-final
                    # entry the boundary reset below runs this same
                    # iteration, so only the autoclose side effect remains.
                    chain_broken = True
                elif cqe.ok:
                    if sqe.op == "open":
                        chain_fd = cqe.result
                    elif sqe.op == "close" and self._is_link_fd(sqe.args):
                        chain_fd = None
            if not sqe.link:  # chain boundary: reset link state
                if chain_fd is not None and chain_broken:
                    self._autoclose(chain_fd)
                chain_fd = None
                chain_broken = False
        if chain_fd is not None and chain_broken:
            self._autoclose(chain_fd)
        if self._cq and was_empty:
            self._notify_pollers()
        return len(batch)

    def _execute(self, index: int, sqe: Sqe, chain_fd: int | None) -> Cqe:
        meter = self.sc.meter
        args = sqe.args
        if any(isinstance(a, _LinkFd) for a in args):
            if chain_fd is None:
                err = InvalidArgument(detail=f"{sqe.op}: LINK_FD with no open earlier in the chain")
                meter.batch_op(sqe.op)
                return Cqe(index=index, op=sqe.op, error=err, user_data=sqe.user_data)
            args = tuple(chain_fd if isinstance(a, _LinkFd) else a for a in args)
        fn = getattr(self.sc, sqe.op)
        try:
            with meter.pause():
                result = fn(*args)
        except FsError as exc:
            meter.batch_op(sqe.op)
            return Cqe(index=index, op=sqe.op, error=exc, user_data=sqe.user_data)
        meter.batch_op(sqe.op, nbytes=self._payload_bytes(sqe.op, args, result))
        return Cqe(index=index, op=sqe.op, result=result, user_data=sqe.user_data)

    @staticmethod
    def _payload_bytes(op: str, args: tuple, result: object) -> int:
        if op in ("read", "pread") and isinstance(result, bytes):
            return len(result)
        if op in ("write", "pwrite") and len(args) >= 2 and isinstance(args[1], (bytes, bytearray, memoryview)):
            return len(args[1])
        return 0

    @staticmethod
    def _is_link_fd(args: tuple) -> bool:
        return bool(args) and isinstance(args[0], _LinkFd)

    def _autoclose(self, fd: int) -> None:
        """Close the fd a severed chain left open (no descriptor leaks)."""
        meter = self.sc.meter
        try:
            with meter.pause():
                self.sc.close(fd)
        except FsError:
            return
        meter.batch_op("chain_autoclose")

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

    # -- the pollable protocol (see repro.vfs.poll) --------------------------

    def readable(self) -> bool:
        """True when completions are waiting (the pollable protocol)."""
        return bool(self._cq)

    def poll_register(self, poller) -> None:
        """An :class:`~repro.vfs.poll.Epoll` started watching this ring."""
        if poller not in self._pollers:
            self._pollers.append(poller)

    def poll_unregister(self, poller) -> None:
        """An :class:`~repro.vfs.poll.Epoll` stopped watching this ring."""
        if poller in self._pollers:
            self._pollers.remove(poller)

    def _notify_pollers(self) -> None:
        for poller in list(self._pollers):
            poller.notify_readable(self)


__all__ = ["Cqe", "IoUring", "LINK_FD", "SUPPORTED_OPS", "Sqe"]
