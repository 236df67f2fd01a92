"""The resolution memo: whole-path look-ups, per mount namespace.

The inode tree is its own dentry cache — ``DirInode._children[name]`` is
one dict probe — so what is worth remembering is not a component but a
whole resolution.  Every :class:`~repro.vfs.mount.MountNamespace` owns one
:class:`DentryCache` mapping

    ``(components, follow_last, credentials) -> (deps, result)``

where ``deps`` holds, for every component the walk consumed (the
components of followed symlink targets included), the dentry it used and
the permission inputs it checked: ``(dir, name, child, acl, uid, gid,
mode)``.  There is **one validation rule**: an entry is served iff for
every dep ``dir`` still maps ``name`` to that same inode and the
directory's ``acl`` (by identity — :class:`~repro.vfs.acl.Acl` is frozen
and only ever rebound), ``uid``, ``gid`` and ``mode`` are what the walk
saw.  So create, unlink, rmdir, rename, symlink retargeting, ``chmod``,
``chown`` and ``setfacl`` are caught by construction — nothing calls into
the memo to invalidate it, a mutation of ``flows/f2`` does not touch the
memo of ``flows/f1/version``, and no state is shared between namespaces or
VFS instances.  The credentials are part of the key, so principals sharing
a path each keep their own entry and none is ever served another's verdict;
only successful resolutions are stored, so a refusal or an ENOENT is always
re-derived by the walk.

A ``..`` component records a *permission-only* dep (no directory has a
child called ``..``, so its dentry test holds vacuously): what ``..`` pops
back to is fixed by the dentries recorded before it, and the directory it
was applied in still has to grant ``MAY_EXEC``.

Two things the rule cannot see are handled bluntly.  ``child`` is the inode
as looked up, *before* mount crossing, while ``result`` sits on the far
side of it — so ``mount``/``umount``/``bind`` flush the owning namespace's
memo, and clones and pivots start empty.  And a file system whose
``lookup`` has side effects (the distributed-FS client refreshes directory
contents over RPC inside it) sets ``Filesystem.cacheable = False``: a walk
that traverses one of its directories is never stored.

Entries hold strong references to the inodes they name, so an entry the
rule already refuses would pin a deleted subtree (a consumed packet-in, a
retired flow) until something probed its key again.  Such entries are
swept: whenever the memo has doubled since the last sweep (and holds at
least :data:`SWEEP_FLOOR` entries), :meth:`DentryCache.store_path` drops
every entry :func:`holds` refuses, counting each as an invalidation.  The
memo therefore stays within twice its servable entries plus the floor,
and a swept entry is one that would never have been served, so no hit is
lost.  Past that, the memo is bounded (FIFO eviction at ``capacity``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.perf.counters import PerfCounters

#: Default entry bound; mirrors the spirit of Linux's bounded dcache.
DEFAULT_CAPACITY = 32768

#: Fewest entries at which :meth:`DentryCache.store_path` sweeps refused ones.
SWEEP_FLOOR = 1024

#: Counter names published into :class:`~repro.perf.counters.PerfCounters`.
_COUNTER_FIELDS = ("path_hits", "path_misses", "invalidations", "evictions", "flushes")


def holds(deps) -> bool:
    """The one validation rule: may an entry with these ``deps`` be served?

    True iff every dep's directory still maps its name to the same inode
    and the directory's ``acl`` (by identity), ``uid``, ``gid`` and
    ``mode`` are what the walk saw.
    """
    for cur_dir, name, child, acl, uid, gid, mode in deps:
        if (
            cur_dir._children.get(name) is not child
            or cur_dir.acl is not acl
            or cur_dir.uid != uid
            or cur_dir.gid != gid
            or cur_dir.mode != mode
        ):
            return False
    return True


class DentryCache:
    """A bounded memo of whole resolutions (see the module docstring).

    ``VirtualFileSystem._resolve_parts`` probes and validates ``paths``
    in line; with ``enabled`` False it walks every time, which is the
    parity reference the tests and ``bench_vfs_resolve.py`` compare against.
    """

    __slots__ = ("capacity", "enabled", "paths", "_published", "_sweep_at", *_COUNTER_FIELDS)

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.enabled = True
        self.paths: dict = {}
        self.path_hits = 0
        self.path_misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.flushes = 0
        self._published: dict[str, int] = {}
        self._sweep_at = SWEEP_FLOOR

    def store_path(self, key, deps, result) -> None:
        """Memoize a complete successful resolution under ``key``."""
        paths = self.paths
        if len(paths) >= self._sweep_at:
            refused = [k for k, (held, _result) in paths.items() if not holds(held)]
            for k in refused:
                del paths[k]
            self.invalidations += len(refused)
            self._sweep_at = max(SWEEP_FLOOR, 2 * len(paths))
        if len(paths) >= self.capacity:
            paths.pop(next(iter(paths)))
            self.evictions += 1
        paths[key] = (deps, result)

    def flush(self) -> None:
        """Drop every entry (mount table changed under this namespace)."""
        self.invalidations += len(self.paths)
        self.paths.clear()
        self.flushes += 1

    def stats(self) -> dict[str, int]:
        """Current counter values plus the live entry count."""
        out = {field: getattr(self, field) for field in _COUNTER_FIELDS}
        out["path_entries"] = len(self.paths)
        return out

    def publish(self, counters: "PerfCounters", prefix: str = "dcache") -> None:
        """Push counter deltas since the last publish into ``counters``.

        Exposes hit/miss/invalidation counts through the same
        :class:`~repro.perf.counters.PerfCounters` registry the benchmarks
        report, without paying a counter update per look-up on the hot path.
        """
        for field in _COUNTER_FIELDS:
            value = getattr(self, field)
            delta = value - self._published.get(field, 0)
            if delta:
                counters.add(f"{prefix}.{field}", delta)
            self._published[field] = value
