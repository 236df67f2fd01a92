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
what makes ``open → write → close`` expressible before the fd exists.
:data:`LINK_DIRFD` does the same for a directory: it stands for the
descriptor the chain's most recent ``open(path, O_DIRECTORY)`` produced,
and an ``open`` prepared with ``dir_fd=LINK_DIRFD`` opens one name in that
directory (openat(2); Linux's ``IORING_OP_OPENAT``), so an object's files
are written without walking the object's path once per file.  If a chain
is severed while either descriptor is still open, the ring closes it
(billed as ``uring.chain_autoclose``) so a failed batch cannot leak fds.

**Room.**  The submission queue is bounded (``entries``), and the ring
keeps its own room: when the next entry would not fit, it submits what
is queued ahead of the open chain, so a chain never straddles a submit
and no caller counts slots.  A chain longer than the whole ring is
refused whole (:class:`~repro.vfs.errors.InvalidArgument`, its own
entries dropped, so nothing of it runs or links into the next entry).  A context has one ring, :attr:`Syscalls.ring
<repro.vfs.syscalls.Syscalls.ring>`, which every batch it submits shares.

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
once per ring, and :data:`LINK_FD` or :data:`LINK_DIRFD` is substituted
only where an entry names it (an fd row's first argument, an ``open``'s
``dir_fd``).  A ``dir_fd`` open is billed as ``uring.openat``.
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
from repro.vfs.vfs import O_CREAT, O_DIRECTORY, O_TRUNC, O_WRONLY

if TYPE_CHECKING:
    from repro.vfs.syscalls import Syscalls


class _LinkFd:
    """Sentinel: a descriptor opened earlier in this linked chain."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Placeholder argument for the descriptor a chain's preceding ``open``
#: produced (as the descriptor an fd row takes, its first argument).
LINK_FD = _LinkFd("LINK_FD")

#: Placeholder for the directory descriptor a chain's preceding
#: ``open(path, O_DIRECTORY)`` produced: an ``open``'s ``dir_fd``, or the
#: ``close`` that ends it.
LINK_DIRFD = _LinkFd("LINK_DIRFD")

#: Operations a ring accepts: the rows of the syscall table marked ``ring``
#: (the fd- and path-based calls a batch can meaningfully contain).
#: Waiting (``inotify_read``, ``epoll_wait``) stays a direct call — those
#: *are* the wait primitives; registering a watch (``inotify_add_watch``)
#: is not waiting, so it is a ring row (Linux's ``IORING_OP_EPOLL_CTL``).
SUPPORTED_OPS = frozenset(op for op, row in SYSCALLS.items() if row.ring)


@dataclass(slots=True)
class Sqe:
    """One submission-queue entry."""

    op: str
    args: tuple
    link: bool = False  # ties the NEXT entry to this one's success
    user_data: object = None
    dir_fd: object = None  # an ``open``'s directory descriptor (or LINK_DIRFD)


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

    Created via :meth:`Syscalls.io_uring_setup` (the context's own is
    :attr:`Syscalls.ring`); the ring shares the context's credentials,
    namespace, fd table, and meter, so a batched ``open`` yields an fd
    usable by direct calls and vice versa.
    """

    sc: "Syscalls"
    entries: int = 256
    _sq: list[Sqe] = field(default_factory=list)
    _cq: list[Cqe] = field(default_factory=list)
    _seq: int = 0
    #: where the open linked chain starts in ``_sq`` (its length: none open)
    _chain: int = 0
    #: op -> the context's bound method, looked up once per ring
    _ops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        super().__init__()
        if self.entries < 1:
            raise InvalidArgument(detail=f"ring size must be >= 1, got {self.entries}")

    # -- preparation (no syscalls: the SQ lives in shared memory) ------------

    def prep(self, op: str, *args, link: bool = False, user_data: object = None, dir_fd: object = None) -> int:
        """Queue one operation; returns its position in the queue.

        ``link=True`` makes the *next* prepared entry conditional on this
        one succeeding (chains compose by linking every entry but the
        last); ``dir_fd`` is ``Syscalls.open``'s.  Raises when the op is
        not a ring row of the syscall table, when ``dir_fd`` is given to
        another op, or when its chain is longer than the whole ring.
        """
        if op not in SUPPORTED_OPS:
            raise InvalidArgument(detail=f"unsupported ring op {op!r}")
        if dir_fd is not None and op != "open":
            raise InvalidArgument(detail=f"{op} takes no dir_fd")
        return self._queue((Sqe(op, args, link, user_data, dir_fd),))

    def prep_write_file(self, path: str, data: bytes, *, link: bool = False, user_data: object = None, dir_fd: object = None) -> int:
        """Queue ``open → write → close`` as one linked chain.

        The batched equivalent of ``Syscalls.write_bytes`` (the ``echo
        value > file`` idiom); with ``dir_fd``, ``path`` is a name in that
        directory.  ``link=True`` extends the chain into the
        *next* prepared entry, so whole multi-file sequences — assemble a
        maildir temp, then rename it into place — cancel together when any
        step fails.  The three entries are queued together or not at all.
        Returns the position of the ``open``.
        """
        return self._queue(
            (
                Sqe("open", (path, O_WRONLY | O_CREAT | O_TRUNC), True, user_data, dir_fd),
                Sqe("write", (LINK_FD, data), True, user_data),
                Sqe("close", (LINK_FD,), link, user_data),
            )
        )

    def _queue(self, sqes: tuple[Sqe, ...]) -> int:
        """Append ``sqes`` to the open linked chain, keeping the room as the module docstring's **Room** says."""
        sq = self._sq
        if len(sq) + len(sqes) > self.entries:
            if self._chain:
                self._sq, chain = sq[: self._chain], sq[self._chain :]
                self.submit()
                self._sq = sq = chain
            if len(sq) + len(sqes) > self.entries:
                sq.clear()
                raise InvalidArgument(detail=f"linked chain longer than the ring ({self.entries} entries)")
        position = len(sq)
        sq += sqes
        if not sqes[-1].link:
            self._chain = len(sq)
        return position

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
        batch, self._sq, self._chain = self._sq, [], 0
        cq = self._cq
        was_empty = not cq
        ops = self._ops
        billed: dict[str, int] = {}  # op kind -> entries of this batch billed under it
        nbytes = 0
        index = self._seq
        chain_fd: int | None = None
        chain_dirfd: int | None = None
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
                        dir_fd = sqe.dir_fd
                        if dir_fd is not None:
                            kind = "openat"
                            if dir_fd is LINK_DIRFD:
                                dir_fd = chain_dirfd
                                if dir_fd is None:
                                    error = InvalidArgument(detail=f"{op}: LINK_DIRFD with no directory open earlier in the chain")
                        elif args and isinstance(args[0], _LinkFd):  # the descriptor an fd row takes first
                            linked = chain_fd if args[0] is LINK_FD else chain_dirfd
                            if linked is None:
                                error = InvalidArgument(detail=f"{op}: {args[0]!r} with no open earlier in the chain")
                            else:
                                args = (linked, *args[1:])
                        if error is None:
                            fn = ops.get(op)
                            if fn is None:
                                fn = ops[op] = getattr(sc, op)
                            try:
                                result = fn(*args) if dir_fd is None else fn(*args, dir_fd=dir_fd)
                            except FsError as exc:
                                error = exc
                            else:
                                if op == "open":
                                    if len(args) > 1 and args[1] & O_DIRECTORY:
                                        chain_dirfd = result
                                    else:
                                        chain_fd = result
                                elif op == "close":
                                    if sqe.args[0] is LINK_FD:
                                        chain_fd = None
                                    elif sqe.args[0] is LINK_DIRFD:
                                        chain_dirfd = None
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
                        if chain_broken:
                            self._autoclose(chain_fd, chain_dirfd, billed=billed)
                        chain_fd = chain_dirfd = None
                        chain_broken = False
                if chain_broken:
                    self._autoclose(chain_fd, chain_dirfd, billed=billed)
        finally:
            self._seq = index
            meter.batch_ops(billed, nbytes)
        if cq and was_empty:
            self._notify_pollers()
        return len(batch)

    @staticmethod
    def _payload_bytes(op: str, args: tuple, result: object) -> int:
        """The bytes the direct call bills for the same entry."""
        if op in ("read", "pread") and isinstance(result, bytes):
            return len(result)
        if op in ("write", "pwrite") and isinstance(args[1], (bytes, bytearray, memoryview)):
            return len(args[1])
        if op == "readdirplus":
            return sum([len(data) for _name, data in result if data is not None])
        return 0

    def _autoclose(self, *fds: int | None, billed: dict[str, int]) -> None:
        """Close the descriptors a severed chain left open (no descriptor leaks); runs inside the submit's meter pause."""
        for fd in fds:
            if fd is None:
                continue
            try:
                self.sc.close(fd)
            except FsError:
                continue
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
        self._chain = 0
        self._cq.clear()
        self._pollers.clear()

    def readable(self) -> bool:
        """True when completions are waiting (the pollable protocol)."""
        return bool(self._cq)


__all__ = ["Cqe", "IoUring", "LINK_DIRFD", "LINK_FD", "SUPPORTED_OPS", "Sqe"]
