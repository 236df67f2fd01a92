"""The exact-match cache in front of the tuple-space classifier.

``FlowTable.lookup`` answers a repeated ``(FlowKey, in_port)`` from one
dict, filled by the classifier and cleared by every change to the index
(``_index_add``/``_index_remove``).  These pin what the cache may and may
not change: winners (against the linear reference model), the OpenFlow
table counters, and the bound on the dict.
"""

import pytest

from repro.dataplane import FlowEntry, FlowTable, LinearFlowTable, Match, Output
from repro.dataplane import flowtable
from repro.netpkt import MacAddress, ip
from repro.netpkt.packet import FlowKey


def _key(n: int = 1, tp_dst: int = 22) -> FlowKey:
    return FlowKey(
        dl_src=MacAddress(n),
        dl_dst=MacAddress(0xFF),
        dl_type=0x0800,
        nw_src=ip("10.0.0.1"),
        nw_dst=ip("10.0.0.2"),
        nw_proto=6,
        nw_tos=0,
        tp_src=1,
        tp_dst=tp_dst,
    )


def test_a_cached_miss_becomes_a_hit_after_an_install_that_covers_it():
    table = FlowTable()
    assert table.lookup(_key(), 1) is None
    assert table.lookup(_key(), 1) is None  # the miss is now cached
    entry = table.install(FlowEntry(match=Match(tp_dst=22), actions=[Output(2)]))
    assert table.lookup(_key(), 1) is entry
    assert table.lookup(_key(tp_dst=80), 1) is None


def test_a_cached_winner_loses_to_a_higher_priority_install_and_returns_after_its_removal():
    table = FlowTable()
    low = table.install(FlowEntry(match=Match(dl_type=0x0800), actions=[Output(1)], priority=10))
    assert table.lookup(_key(), 1) is low
    high = table.install(FlowEntry(match=Match(tp_dst=22), actions=[Output(2)], priority=20))
    assert table.lookup(_key(), 1) is high
    table.remove_entry(high)
    assert table.lookup(_key(), 1) is low
    table.delete(Match(dl_type=0x0800), strict=True, priority=10)
    assert table.lookup(_key(), 1) is None


def test_a_cached_hit_follows_modify_s_new_actions():
    table = FlowTable()
    entry = table.install(FlowEntry(match=Match(tp_dst=22), actions=[Output(1)]))
    assert table.lookup(_key(), 1).actions == [Output(1)]
    assert table.modify(Match(tp_dst=22), [Output(3)]) == 1
    assert table.lookup(_key(), 1) is entry
    assert entry.actions == [Output(3)]


def test_expiry_invalidates_a_cached_winner():
    table = FlowTable()
    table.install(FlowEntry(match=Match(), actions=[Output(1)], hard_timeout=1.0), now=0.0)
    assert table.lookup(_key(), 1) is not None
    assert len(table.expire(1.0)) == 1
    assert table.lookup(_key(), 1) is None


def test_a_warm_lookup_examines_no_candidate_but_counts_as_a_lookup():
    table = FlowTable()
    table.install(FlowEntry(match=Match(tp_dst=22), actions=[Output(1)]))
    table.lookup(_key(), 1)
    examined = table.entries_examined
    table.lookup(_key(), 1)
    assert table.entries_examined == examined
    assert table.aggregate_stats()["lookup_count"] == 2
    assert table.aggregate_stats()["matched_count"] == 2


def test_more_distinct_keys_than_the_bound_leave_the_cache_at_the_bound():
    table, linear = FlowTable(), LinearFlowTable()
    for entry in (
        FlowEntry(match=Match(in_port=1, tp_dst=22), actions=[Output(2)], priority=5),
        FlowEntry(match=Match(dl_type=0x0800), actions=[Output(3)], priority=1),
    ):
        table.install(entry)
        linear.install(entry)
    stream = [(_key(n, tp_dst=22 + n % 2), 1 + n % 2) for n in range(flowtable.EMC_ENTRIES + 300)]
    for key, in_port in stream + stream[:50] + stream[-50:]:
        assert table.lookup(key, in_port) is linear.lookup(key, in_port)
    assert len(table._emc) == flowtable.EMC_ENTRIES
    assert table.aggregate_stats() == linear.aggregate_stats()


def test_table_counters_match_the_reference_for_the_same_sequence():
    table, linear = FlowTable(), LinearFlowTable()
    keys = [(_key(n % 3, tp_dst=22 if n % 4 else 80), 1 + n % 2) for n in range(40)]
    for step, (key, in_port) in enumerate(keys):
        if step == 10:
            entry = FlowEntry(match=Match(tp_dst=22), actions=[Output(1)])
            table.install(entry)
            linear.install(entry)
        if step == 25:
            table.delete(Match(tp_dst=22))
            linear.delete(Match(tp_dst=22))
        winner = linear.lookup(key, in_port)
        assert table.lookup(key, in_port) is winner
        if winner is not None:
            winner.hit(float(step), 100)
    assert table.aggregate_stats() == linear.aggregate_stats()
    assert table.aggregate_stats()["lookup_count"] == 40
    assert table.aggregate_stats()["matched_count"] == sum(1 for step, (key, _) in enumerate(keys) if 10 <= step < 25 and key.tp_dst == 22)


@pytest.mark.parametrize("n", [200, 800])
def test_removing_equal_priority_entries_visits_each_bucket_a_bounded_number_of_times(monkeypatch, n):
    """A group rescans its buckets for a new max only when the last entry
    at its max leaves; n removals at one priority cost O(n), not O(n^2)."""
    visits = 0
    rescan = flowtable._MaskGroup.recompute_max

    def counted(group) -> None:
        nonlocal visits
        visits += len(group.buckets)
        rescan(group)

    monkeypatch.setattr(flowtable._MaskGroup, "recompute_max", counted)
    table, linear = FlowTable(), LinearFlowTable()
    keys = [(_key(i), 1 + i % 3) for i in range(n)]
    entries = [FlowEntry(match=Match.exact(key, in_port=in_port), actions=[Output(1)], priority=100) for key, in_port in keys]
    tier = FlowEntry(match=Match(dl_type=0x0800), actions=[Output(2)], priority=50)
    for entry in entries + [tier]:
        table.install(entry, replace=False)
        linear.install(entry, replace=False)
    for index, entry in enumerate(entries):
        if index % 2:
            assert table.remove_entry(entry) and linear.remove_entry(entry)
        else:
            strict = Match.exact(*keys[index][:1], in_port=keys[index][1])
            assert [e.entry_id for e in table.delete(strict, strict=True, priority=100)] == [entry.entry_id]
            linear.delete(strict, strict=True, priority=100)
        for key, in_port in keys[index : index + 2]:
            assert table.lookup(key, in_port) is linear.lookup(key, in_port)
    assert visits <= 2 * n, f"{visits} bucket visits for {n} removals"
    assert len(table) == len(linear) == 1
