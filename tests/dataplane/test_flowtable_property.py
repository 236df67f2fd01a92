"""Flow-table fuzzing against a brute-force reference model."""

from __future__ import annotations

from flow_strategies import IPS, MACS, matches
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import FlowEntry, FlowTable, Match, Output
from repro.netpkt.packet import FlowKey


def _key_strategy() -> st.SearchStrategy[FlowKey]:
    return st.builds(
        FlowKey,
        dl_src=st.sampled_from(MACS),
        dl_dst=st.sampled_from(MACS),
        dl_type=st.sampled_from([0x0800, 0x0806]),
        dl_vlan=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        dl_vlan_pcp=st.none(),
        nw_src=st.one_of(st.none(), st.sampled_from(IPS)),
        nw_dst=st.one_of(st.none(), st.sampled_from(IPS)),
        nw_proto=st.one_of(st.none(), st.sampled_from([6, 17])),
        nw_tos=st.none(),
        tp_src=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        tp_dst=st.one_of(st.none(), st.sampled_from([22, 80])),
    )


@settings(max_examples=200, deadline=None)
@given(
    specs=st.lists(st.tuples(matches(), st.integers(min_value=0, max_value=10)), max_size=12),
    key=_key_strategy(),
    in_port=st.integers(min_value=1, max_value=3),
)
def test_lookup_agrees_with_bruteforce(specs, key, in_port):
    table = FlowTable()
    entries = [
        table.install(FlowEntry(match=match, actions=[Output(1)], priority=priority), replace=False)
        for match, priority in specs
    ]
    winner = table.lookup(key, in_port)
    candidates = [e for e in entries if e.match.matches(key, in_port)]
    if not candidates:
        assert winner is None
    else:
        best = max(candidates, key=lambda e: (e.priority, -e.entry_id))
        assert winner is best


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(matches(), min_size=1, max_size=10),
    selector=matches(),
)
def test_nonstrict_delete_agrees_with_subset(specs, selector):
    table = FlowTable()
    entries = [table.install(FlowEntry(match=m, actions=[], priority=5), replace=False) for m in specs]
    removed = table.delete(selector)
    expected = [e for e in entries if e.match.is_subset_of(selector)]
    assert set(id(e) for e in removed) == set(id(e) for e in expected)
    assert len(table) == len(entries) - len(expected)


@settings(max_examples=150, deadline=None)
@given(narrow=matches(), broad=matches(), key=_key_strategy(), in_port=st.integers(min_value=1, max_value=3))
def test_subset_relation_sound(narrow, broad, key, in_port):
    """If is_subset_of holds, matching narrow implies matching broad."""
    if narrow.is_subset_of(broad) and narrow.matches(key, in_port):
        assert broad.matches(key, in_port)
