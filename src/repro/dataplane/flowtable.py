"""The switch flow table: indexed priority lookup, counters, timeouts.

Lookup is tuple-space search (Srinivasan et al., adopted by Open vSwitch):
entries are grouped by the *shape* of their wildcard mask
(:meth:`~repro.dataplane.match.Match.mask_signature`), each group hashes
its entries on the masked field values, and a packet costs one hash probe
per distinct shape instead of one ``Match.matches`` call per entry.
Groups are visited in descending max-priority order with an early exit, so
a table dominated by one shape (the reactive router's exact-match entries)
resolves in O(1) regardless of how many thousand entries it holds.

In front of it sits Open vSwitch's exact-match cache (Pfaff et al., NSDI
'15): ``(FlowKey, in_port)`` -> winner or None, cleared on any index change.

Timeouts live in a lazy heap ("timeout wheel"): ``expire()`` pops only
entries whose armed deadline has passed — O(log n) per armed entry — and
re-arms entries whose idle deadline moved because traffic hit them, never
scanning the live table.

:class:`LinearFlowTable` keeps the seed implementation as an executable
reference model: parity tests and ``bench_fattree`` run both over
identical entry sets and assert identical winners.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import insort
from dataclasses import dataclass, field

from repro.dataplane.actions import Action
from repro.dataplane.match import Match, MaskSignature, signature_key_of
from repro.netpkt.packet import FlowKey

_entry_counter = itertools.count(1)

#: Bound of a table's exact-match cache (Open vSwitch's holds 8,192); a
#: miss that finds the cache full is answered but not remembered.
EMC_ENTRIES = 4096

_UNCACHED = object()


class FlowRemovedReason(enum.Enum):
    """Why an entry left the table (OpenFlow flow-removed reasons)."""

    IDLE_TIMEOUT = "idle"
    HARD_TIMEOUT = "hard"
    DELETE = "delete"


@dataclass
class FlowEntry:
    """One table entry: match, priority, actions, timeouts, counters."""

    match: Match
    actions: list[Action]
    priority: int = 0x8000
    cookie: int = 0
    idle_timeout: float = 0.0  # 0 = never
    hard_timeout: float = 0.0  # 0 = never
    installed_at: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    last_hit: float = 0.0
    entry_id: int = field(default_factory=lambda: next(_entry_counter))

    def hit(self, now: float, nbytes: int) -> None:
        """Record a matching packet."""
        self.packet_count += 1
        self.byte_count += nbytes
        self.last_hit = now

    def expired_reason(self, now: float) -> FlowRemovedReason | None:
        """Timeout status at ``now`` (None when still live).

        A hard timeout wins when both fire at the same instant — the entry
        was going away at that time no matter what traffic did.
        """
        if self.hard_timeout and now - self.installed_at >= self.hard_timeout:
            return FlowRemovedReason.HARD_TIMEOUT
        reference = self.last_hit or self.installed_at
        if self.idle_timeout and now - reference >= self.idle_timeout:
            return FlowRemovedReason.IDLE_TIMEOUT
        return None

    def next_deadline(self, now: float) -> float | None:
        """The earliest future instant this entry could expire at.

        None when the entry has no timeouts.  The idle deadline is
        computed from the *current* last-hit time, so a re-armed heap
        entry lands exactly where the refreshed idle clock says.
        """
        deadlines = []
        if self.hard_timeout:
            deadlines.append(self.installed_at + self.hard_timeout)
        if self.idle_timeout:
            deadlines.append((self.last_hit or self.installed_at) + self.idle_timeout)
        return min(deadlines) if deadlines else None

    def _order(self) -> tuple[int, int]:
        # Bucket sort key: highest priority first, then earliest install.
        return (-self.priority, self.entry_id)


class _MaskGroup:
    """All entries sharing one wildcard shape (one tuple-space)."""

    __slots__ = ("signature", "buckets", "max_priority", "at_max")

    def __init__(self, signature: MaskSignature) -> None:
        self.signature = signature
        #: masked-field-values -> entries, highest priority first.
        self.buckets: dict[tuple, list[FlowEntry]] = {}
        self.max_priority = 0
        self.at_max = 0  # entries at max_priority: only the last one's removal rescans

    def recompute_max(self) -> None:
        """Refresh ``max_priority`` from the bucket heads (each bucket is
        sorted, so its first entry carries the bucket's max) and count
        the entries that carry it."""
        self.max_priority = top = max((bucket[0].priority for bucket in self.buckets.values()), default=0)
        self.at_max = sum(entry.priority == top for bucket in self.buckets.values() for entry in bucket)


class FlowTable:
    """A priority-ordered flow table with indexed (tuple-space) lookup.

    Lookup returns the highest-priority matching entry; ties break toward
    the earliest-installed entry, keeping behaviour deterministic and
    identical to :class:`LinearFlowTable`.
    """

    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._groups: dict[MaskSignature, _MaskGroup] = {}
        self._group_order: list[_MaskGroup] = []  # descending max_priority
        self._order_dirty = False
        self._by_id: dict[int, FlowEntry] = {}
        self._sorted_cache: list[FlowEntry] | None = None
        self._wheel: list[tuple[float, int, int]] = []  # (deadline, seq, entry_id)
        self._wheel_seq = itertools.count()
        #: The exact-match cache: (key's field tuple, in_port) -> winner or None.
        #: Keyed on ``FlowKey._values`` so a probe hashes and compares in C.
        self._emc: dict[tuple[tuple, int], FlowEntry | None] = {}
        self.lookup_count = 0
        self.matched_count = 0
        #: Candidate entries examined across all lookups — the figure the
        #: watermark/early-exit claims are asserted against (a linear table
        #: examines len(table) per lookup; this one examines ~#shapes, and
        #: a lookup the cache answers examines none).
        self.entries_examined = 0

    def __len__(self) -> int:
        return len(self._by_id)

    # -- index maintenance -------------------------------------------------------------

    def _ordered_groups(self) -> list[_MaskGroup]:
        if self._order_dirty:
            self._group_order.sort(key=lambda g: -g.max_priority)
            self._order_dirty = False
        return self._group_order

    def _index_add(self, entry: FlowEntry) -> None:
        signature = entry.match.mask_signature()
        group = self._groups.get(signature)
        if group is None:
            group = _MaskGroup(signature)
            self._groups[signature] = group
            self._group_order.append(group)
        bucket = group.buckets.setdefault(entry.match.bucket_key(), [])
        insort(bucket, entry, key=FlowEntry._order)
        if entry.priority > group.max_priority:
            group.max_priority = entry.priority
            group.at_max = 1
            self._order_dirty = True
        elif entry.priority == group.max_priority:
            group.at_max += 1
        self._by_id[entry.entry_id] = entry
        self._sorted_cache = None
        self._emc.clear()

    def _index_remove(self, entry: FlowEntry) -> None:
        signature = entry.match.mask_signature()
        group = self._groups[signature]
        key = entry.match.bucket_key()
        bucket = group.buckets[key]
        bucket.remove(entry)
        if not bucket:
            del group.buckets[key]
        if not group.buckets:
            del self._groups[signature]
            self._group_order.remove(group)
        elif entry.priority == group.max_priority:
            group.at_max -= 1
            if not group.at_max:
                group.recompute_max()
                self._order_dirty = True
        del self._by_id[entry.entry_id]
        self._sorted_cache = None
        self._emc.clear()

    def _arm(self, entry: FlowEntry) -> None:
        deadline = entry.next_deadline(entry.installed_at)
        if deadline is not None:
            heapq.heappush(self._wheel, (deadline, next(self._wheel_seq), entry.entry_id))

    # -- the table API -----------------------------------------------------------------

    def entries(self) -> list[FlowEntry]:
        """All entries, highest priority first (cached between mutations)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._by_id.values(), key=FlowEntry._order)
        return list(self._sorted_cache)

    def install(self, entry: FlowEntry, now: float = 0.0, *, replace: bool = True) -> FlowEntry:
        """Add an entry.

        With ``replace`` (OpenFlow ADD semantics) an existing entry with
        identical match and priority is overwritten, keeping its counters
        reset.  The overwrite check is one bucket probe — entries in the
        same bucket share the match, so only priorities are compared.
        """
        entry.installed_at = now
        if replace:
            group = self._groups.get(entry.match.mask_signature())
            if group is not None:
                bucket = group.buckets.get(entry.match.bucket_key(), ())
                for existing in [e for e in bucket if e.priority == entry.priority]:
                    self._index_remove(existing)
        self._index_add(entry)
        self._arm(entry)
        return entry

    def lookup(self, key: FlowKey, in_port: int) -> FlowEntry | None:
        """Find the winning entry for a packet (no entry counter updates):
        from the exact-match cache if it holds ``(key, in_port)``, else by
        :meth:`_classify`, whose answer is cached while there is room.
        ``lookup_count``/``matched_count`` (OpenFlow table stats) count either way."""
        self.lookup_count += 1
        best = self._emc.get((key._values, in_port), _UNCACHED)
        if best is _UNCACHED:
            best = self._classify(key, in_port)
            if len(self._emc) < EMC_ENTRIES:
                self._emc[key._values, in_port] = best
        if best is not None:
            self.matched_count += 1
        return best

    def _classify(self, key: FlowKey, in_port: int) -> FlowEntry | None:
        """Tuple-space search: one hash probe per wildcard shape.

        Shapes are probed in descending max-priority order.  The
        max-priority watermark ends the walk as soon as no remaining shape
        could beat the best candidate — shapes whose max *equals* the best
        are still probed because the priority tie breaks toward the
        earliest-installed entry.
        """
        best: FlowEntry | None = None
        for group in self._ordered_groups():
            if best is not None and group.max_priority < best.priority:
                break
            packet_key = signature_key_of(group.signature, key, in_port)
            if packet_key is None:
                continue
            bucket = group.buckets.get(packet_key)
            if not bucket:
                continue
            candidate = bucket[0]  # bucket is sorted: its head is its winner
            self.entries_examined += 1
            if best is None or (candidate.priority, -candidate.entry_id) > (best.priority, -best.entry_id):
                best = candidate
        return best

    def _select(self, match: Match, strict: bool, priority: int) -> list[FlowEntry]:
        """Entries an OpenFlow MODIFY/DELETE with ``match`` addresses.

        Strict selection is one bucket probe (same shape, same values,
        same priority).  Non-strict selection visits only the shapes that
        could contain subsets of ``match`` — every field the selector
        specifies must be specified at least as tightly — and runs the
        full subset test on those groups' entries alone.
        """
        if strict:
            group = self._groups.get(match.mask_signature())
            if group is None:
                return []
            bucket = group.buckets.get(match.bucket_key(), ())
            return [e for e in bucket if e.priority == priority]
        selector = dict(match.mask_signature())
        out: list[FlowEntry] = []
        for group in self._groups.values():
            shape = dict(group.signature)
            if any(
                name not in shape or (plen is not None and (shape[name] is None or shape[name] < plen))
                for name, plen in selector.items()
            ):
                continue
            for bucket in group.buckets.values():
                out.extend(e for e in bucket if e.match.is_subset_of(match))
        out.sort(key=lambda e: e.entry_id)  # installation order, like the linear scan
        return out

    def modify(self, match: Match, actions: list[Action], *, strict: bool = False, priority: int = 0x8000) -> int:
        """OpenFlow MODIFY: rewrite actions on matching entries.

        Entries stay in place — counters, timeouts, and install times are
        preserved (OpenFlow 1.0 §4.6: counters are unmodified).
        """
        selected = self._select(match, strict, priority)
        for entry in selected:
            entry.actions = list(actions)
        return len(selected)

    def delete(self, match: Match, *, strict: bool = False, priority: int = 0x8000) -> list[FlowEntry]:
        """OpenFlow DELETE: remove matching entries; returns removals."""
        removed = self._select(match, strict, priority)
        for entry in removed:
            self._index_remove(entry)
        return removed

    def remove_entry(self, entry: FlowEntry) -> bool:
        """Remove a specific entry object; True when it was present."""
        if self._by_id.get(entry.entry_id) is not entry:
            return False
        self._index_remove(entry)
        return True

    def expire(self, now: float) -> list[tuple[FlowEntry, FlowRemovedReason]]:
        """Remove and return all timed-out entries.

        Pops the deadline heap instead of scanning the table: entries
        whose idle clock was pushed forward by traffic re-arm at their new
        deadline; entries already deleted are skipped lazily.
        """
        out = []
        while self._wheel and self._wheel[0][0] <= now:
            _deadline, _seq, entry_id = heapq.heappop(self._wheel)
            entry = self._by_id.get(entry_id)
            if entry is None:
                continue  # deleted/replaced since it was armed
            reason = entry.expired_reason(now)
            if reason is None:
                # Traffic moved the idle deadline; re-arm at the new one.
                deadline = entry.next_deadline(now)
                if deadline is not None:
                    heapq.heappush(self._wheel, (deadline, next(self._wheel_seq), entry_id))
                continue
            self._index_remove(entry)
            out.append((entry, reason))
        return out

    def aggregate_stats(self) -> dict[str, int]:
        """OpenFlow aggregate-stats triple plus lookup counters."""
        return {
            "flow_count": len(self._by_id),
            "packet_count": sum(e.packet_count for e in self._by_id.values()),
            "byte_count": sum(e.byte_count for e in self._by_id.values()),
            "lookup_count": self.lookup_count,
            "matched_count": self.matched_count,
        }


class LinearFlowTable:
    """The seed implementation: one ``Match.matches`` call per entry.

    Kept as the executable reference model for the indexed table — parity
    tests install identical entries into both and assert identical
    winners/removals, and ``benchmarks/bench_fattree.py`` uses it as the
    pre-refactor baseline the ≥10× claim is measured against.
    """

    def __init__(self, table_id: int = 0) -> None:
        self.table_id = table_id
        self._entries: list[FlowEntry] = []
        self.lookup_count = 0
        self.matched_count = 0
        self.entries_examined = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[FlowEntry]:
        """All entries, highest priority first (re-sorted every call)."""
        return sorted(self._entries, key=lambda e: (-e.priority, e.entry_id))

    def install(self, entry: FlowEntry, now: float = 0.0, *, replace: bool = True) -> FlowEntry:
        """Add an entry (full-table scan for the replace probe)."""
        entry.installed_at = now
        if replace:
            for existing in list(self._entries):
                if existing.priority == entry.priority and existing.match == entry.match:
                    self._entries.remove(existing)
        self._entries.append(entry)
        return entry

    def lookup(self, key: FlowKey, in_port: int) -> FlowEntry | None:
        """Find the winning entry by scanning every installed entry."""
        self.lookup_count += 1
        best: FlowEntry | None = None
        for entry in self._entries:  # yancperf: disable=linear-table-scan (the reference model IS the linear scan)
            self.entries_examined += 1
            if not entry.match.matches(key, in_port):
                continue
            if best is None or (entry.priority, -entry.entry_id) > (best.priority, -best.entry_id):
                best = entry
        if best is not None:
            self.matched_count += 1
        return best

    def modify(self, match: Match, actions: list[Action], *, strict: bool = False, priority: int = 0x8000) -> int:
        """OpenFlow MODIFY: rewrite actions on matching entries."""
        changed = 0
        for entry in self._entries:
            if self._selected(entry, match, strict, priority):
                entry.actions = list(actions)
                changed += 1
        return changed

    def delete(self, match: Match, *, strict: bool = False, priority: int = 0x8000) -> list[FlowEntry]:
        """OpenFlow DELETE: remove matching entries; returns removals."""
        removed = [e for e in self._entries if self._selected(e, match, strict, priority)]
        for entry in removed:
            self._entries.remove(entry)
        return removed

    def remove_entry(self, entry: FlowEntry) -> bool:
        """Remove a specific entry object; True when it was present."""
        if entry in self._entries:
            self._entries.remove(entry)
            return True
        return False

    @staticmethod
    def _selected(entry: FlowEntry, match: Match, strict: bool, priority: int) -> bool:
        if strict:
            return entry.match == match and entry.priority == priority
        return entry.match.is_subset_of(match)

    def expire(self, now: float) -> list[tuple[FlowEntry, FlowRemovedReason]]:
        """Remove and return all timed-out entries (full scan)."""
        out = []
        for entry in list(self._entries):
            reason = entry.expired_reason(now)
            if reason is not None:
                self._entries.remove(entry)
                out.append((entry, reason))
        return out

    def aggregate_stats(self) -> dict[str, int]:
        """OpenFlow aggregate-stats triple plus lookup counters."""
        return {
            "flow_count": len(self._entries),
            "packet_count": sum(e.packet_count for e in self._entries),
            "byte_count": sum(e.byte_count for e in self._entries),
            "lookup_count": self.lookup_count,
            "matched_count": self.matched_count,
        }
