"""io_uring-style batched syscall submission (paper §8.1).

Every method on :class:`~repro.vfs.syscalls.Syscalls` is one metered
system call — one kernel crossing, ``ctxsw_per_syscall`` context switches
under the FUSE cost model.  The hot paths of a controller (installing a
table of flows, fanning one packet-in out to N application buffers)
therefore pay a crossing *per file touched*.  :class:`IoUring` amortizes
that the way ``io_uring(7)`` does:

* a caller opens a :class:`Batch` on the context's ring
  (:meth:`IoUring.batch`) and **prepares** submission-queue entries on it
  (:meth:`Batch.prep`, or the :meth:`Batch.prep_write_file` convenience
  that expands into a linked ``open → write → close`` chain);
* :meth:`Batch.submit` crosses into the kernel **once** (a single metered
  ``io_uring_enter``, :meth:`IoUring.submit`), executes the batch's
  entries and returns their :class:`Cqe` records in submission order.

**A batch belongs to its caller.**  The ring holds no queue: its entries
and completions are the batch's, so one caller never runs, or reaps,
another's.  A caller that raises before :meth:`Batch.submit` drops its
batch, and nothing it prepared runs.  Every completion exists by the time
the submit returns, so there is no completion queue to poll or drain.

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

**Room.**  A crossing carries at most the ring's ``entries``, and the
ring keeps the room of every batch: when the next entry would not fit,
what the batch queued ahead of its open chain crosses first (its
completions are kept for the batch's submit), so a chain never straddles
a crossing and no caller counts slots.  A chain longer than the whole
ring is refused whole (:class:`~repro.vfs.errors.InvalidArgument`, its
own entries dropped, so nothing of it runs or links into the next entry).
A context has one ring, :attr:`Syscalls.ring
<repro.vfs.syscalls.Syscalls.ring>`, which every batch it opens shares.

**Observability.**  Entries execute through the real ``Syscalls``
methods, so each fires that method's ``syscall`` trace point exactly as
a direct call would, and :meth:`IoUring.submit` is itself a trace point
(``on_uring_submit_enter(ring)`` / ``on_uring_submit_exit(ring, result,
exc)``, ``result`` the crossing's completions) so a subscriber can tell
which ops one crossing carried.  The meter is paused around the batch
so the facade's per-call billing does not double-count; what executed
is instead billed once per submit via
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
#: The ops whose direct call bills copied bytes (:meth:`IoUring._payload_bytes`).
_PAYLOAD_OPS = frozenset({"read", "pread", "write", "pwrite", "readdirplus"})


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
    """One completion-queue entry.

    Exactly one of the three outcomes holds: ``result`` (success),
    ``error`` (the op raised an :class:`~repro.vfs.errors.FsError`), or
    ``canceled=True`` (an earlier entry of the same linked chain failed,
    so this one never ran).
    """

    op: str
    result: object = None
    error: FsError | None = None
    canceled: bool = False
    user_data: object = None
    #: True when the operation executed and succeeded (set with the outcome: a field, not a call per read)
    ok: bool = False


class Batch:
    """One caller's entries on a ring, and the completions of those that already crossed.

    Opened with :meth:`IoUring.batch`; the ring validates each entry and
    keeps the batch's room (the module docstring's **Room**).  A batch may
    be reused after :meth:`submit`.
    """

    __slots__ = ("ring", "_sq", "_chain", "_done")

    def __init__(self, ring: "IoUring") -> None:
        self.ring = ring
        self._sq: list[Sqe] = []
        #: where the open linked chain starts in ``_sq`` (its length: none open)
        self._chain = 0
        #: completions of entries that crossed to make room, kept for :meth:`submit`
        self._done: list[Cqe] = []

    def prep(self, op: str, *args, link: bool = False, user_data: object = None, dir_fd: object = None) -> None:
        """Queue one operation (:meth:`IoUring.prep`)."""
        self.ring.prep(self, op, *args, link=link, user_data=user_data, dir_fd=dir_fd)

    def prep_write_file(self, path: str, data: bytes, *, link: bool = False, user_data: object = None, dir_fd: object = None) -> None:
        """Queue ``open → write → close`` as one linked chain (:meth:`IoUring.prep_write_file`)."""
        self.ring.prep_write_file(self, path, data, link=link, user_data=user_data, dir_fd=dir_fd)

    def submit(self) -> list[Cqe]:
        """Every completion since the last submit, in submission order; what is still queued crosses once (none: no crossing)."""
        return self.ring.completions(self)


@dataclass
class IoUring:
    """A submission ring bound to one syscall context: the rules of an entry and the crossing.

    Created via :meth:`Syscalls.io_uring_setup` (the context's own is
    :attr:`Syscalls.ring`); the ring shares the context's credentials,
    namespace, fd table, and meter, so a batched ``open`` yields an fd
    usable by direct calls and vice versa.  It holds no entries: a caller
    queues on its own :class:`Batch`, whose methods call :meth:`prep`,
    :meth:`prep_write_file` and :meth:`completions` with the batch.
    """

    sc: "Syscalls"
    entries: int = 256
    #: op -> the context's bound method, looked up once per ring
    _ops: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise InvalidArgument(detail=f"ring size must be >= 1, got {self.entries}")

    def batch(self) -> Batch:
        """A fresh, empty batch on this ring (no syscall: the queue lives in the caller's memory)."""
        return Batch(self)

    # -- preparation (no syscalls, unless the batch needs room) ---------------

    def prep(self, batch: Batch, op: str, *args, link: bool = False, user_data: object = None, dir_fd: object = None) -> None:
        """Queue one operation on ``batch``.

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
        sq = batch._sq
        if len(sq) >= self.entries:
            self._make_room(batch, 1)
        sq.append(Sqe(op, args, link, user_data, dir_fd))
        if not link:
            batch._chain = len(sq)

    def prep_write_file(self, batch: Batch, path: str, data: bytes, *, link: bool = False, user_data: object = None, dir_fd: object = None) -> None:
        """Queue ``open → write → close`` on ``batch`` as one linked chain.

        The batched equivalent of ``Syscalls.write_bytes`` (the ``echo
        value > file`` idiom); with ``dir_fd``, ``path`` is a name in that
        directory.  ``link=True`` extends the chain into the
        *next* prepared entry, so whole multi-file sequences — assemble a
        maildir temp, then rename it into place — cancel together when any
        step fails.  The three entries are queued together or not at all.
        """
        sq = batch._sq
        if len(sq) + 3 > self.entries:
            self._make_room(batch, 3)
        sq += (
            Sqe("open", (path, O_WRONLY | O_CREAT | O_TRUNC), True, user_data, dir_fd),
            Sqe("write", (LINK_FD, data), True, user_data),
            Sqe("close", (LINK_FD,), link, user_data),
        )
        if not link:
            batch._chain = len(sq)

    def check_chain(self, length: int) -> None:
        """Refuse a chain of ``length`` entries that no crossing could carry, before a caller queues any of it."""
        if length > self.entries:
            raise InvalidArgument(detail=f"linked chain longer than the ring ({self.entries} entries)")

    def _make_room(self, batch: Batch, count: int) -> None:
        """Make room in ``batch`` for ``count`` more entries of its open chain, as the module docstring's **Room** says."""
        sq = batch._sq
        if batch._chain:
            batch._done += self.submit(sq[: batch._chain])
            del sq[: batch._chain]
            batch._chain = 0
        if len(sq) + count > self.entries:
            sq.clear()
            raise InvalidArgument(detail=f"linked chain longer than the ring ({self.entries} entries)")

    def completions(self, batch: Batch) -> list[Cqe]:
        """Hand ``batch`` every completion since its last hand-over, crossing once for what it still queues."""
        cqes, batch._done = batch._done, []
        if batch._sq:
            sqes, batch._sq, batch._chain = batch._sq, [], 0
            cqes += self.submit(sqes)
        return cqes

    # -- submission (the one metered kernel crossing) ------------------------

    def submit(self, sqes: list[Sqe]) -> list[Cqe]:
        """Execute ``sqes`` under a single ``io_uring_enter``; their completions, in order.

        Entries run in submission order through the real ``Syscalls``
        methods (so sanitizers, race detection, and notify events all see
        them) with the meter paused for the whole batch; what ran is then
        billed in one go, per op kind.
        """
        if _tracing and _entering(self):
            return _around("uring_submit", (self,), self.submit, sqes)
        sc = self.sc
        meter = sc.meter
        meter.enter("io_uring_enter")
        cq: list[Cqe] = []
        ops = self._ops
        billed: dict[str, int] = {}  # op kind -> entries of this batch billed under it
        nbytes = 0
        chain_fd: int | None = None
        chain_dirfd: int | None = None
        chain_broken = False
        try:
            with meter.pause():
                for sqe in sqes:
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
                                elif op in _PAYLOAD_OPS:
                                    nbytes += self._payload_bytes(op, args, result)
                        # An error cancels the rest of a linked chain; for a
                        # chain-final entry the boundary reset below runs this
                        # same iteration, so only the autoclose side effect remains.
                        chain_broken = error is not None
                    cq.append(Cqe(op, result, error, canceled, sqe.user_data, error is None and not canceled))
                    billed[kind] = billed.get(kind, 0) + 1
                    if not sqe.link:  # chain boundary: reset link state
                        if chain_broken and (chain_fd is not None or chain_dirfd is not None):
                            self._autoclose(chain_fd, chain_dirfd, billed=billed)
                        chain_fd = chain_dirfd = None
                        chain_broken = False
                if chain_broken:
                    self._autoclose(chain_fd, chain_dirfd, billed=billed)
        finally:
            meter.batch_ops(billed, nbytes)
        return cq

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


__all__ = ["Batch", "Cqe", "IoUring", "LINK_DIRFD", "LINK_FD", "SUPPORTED_OPS", "Sqe"]
