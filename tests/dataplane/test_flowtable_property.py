"""Flow-table fuzzing against a brute-force reference model."""

from __future__ import annotations

from flow_strategies import IPS, MACS, matches
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import FlowEntry, FlowTable, LinearFlowTable, Match, Output
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


#: The fixed probe set looked up after every step: IPv4 TCP/UDP keys on
#: each in_port, a VLAN-tagged one and an ARP-like one with no nw fields.
_PROBES = [
    (FlowKey(MACS[0], MACS[1], 0x0800, nw_src=IPS[0], nw_dst=IPS[2], nw_proto=6, tp_src=1, tp_dst=22), 1),
    (FlowKey(MACS[1], MACS[2], 0x0800, nw_src=IPS[1], nw_dst=IPS[3], nw_proto=17, tp_src=2, tp_dst=80), 2),
    (FlowKey(MACS[2], MACS[0], 0x0800, dl_vlan=3, nw_src=IPS[0], nw_dst=IPS[1], nw_proto=6, tp_src=3, tp_dst=80), 3),
    (FlowKey(MACS[0], MACS[2], 0x0806), 1),
]


#: Matches that surely cover some probe, so installs, deletes and modifies
#: often touch an answer the cache already holds.
_PROBE_MATCHES = [Match.exact(key, in_port=in_port) for key, in_port in _PROBES] + [Match(), Match(dl_type=0x0800)]


def _table_ops() -> st.SearchStrategy[list[tuple]]:
    priority = st.integers(min_value=0, max_value=6)
    timeout = st.sampled_from([0.0, 0.0, 1.0, 2.0])
    match = st.one_of(matches(), st.sampled_from(_PROBE_MATCHES))
    return st.lists(
        st.one_of(
            st.tuples(st.just("install"), match, priority, st.booleans(), timeout, timeout),
            st.tuples(st.just("delete"), match, priority, st.booleans()),
            st.tuples(st.just("modify"), match, priority, st.booleans()),
            st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=1.5)),
            st.tuples(st.just("remove_entry"), st.integers(min_value=0, max_value=30)),
            st.tuples(st.just("hit"), st.integers(min_value=0, max_value=len(_PROBES) - 1)),
        ),
        max_size=30,
    )


@settings(max_examples=200, deadline=None)
@given(ops=_table_ops())
def test_cold_and_warm_lookups_agree_with_the_linear_model_after_every_op(ops):
    """Every kind of table change, then each probe twice: the exact-match
    cache must answer what the linear scan answers, by object identity."""
    indexed, linear = FlowTable(), LinearFlowTable()
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "install":
            _, match, priority, replace, idle, hard = op
            entry = FlowEntry(match=match, actions=[Output(1)], priority=priority, idle_timeout=idle, hard_timeout=hard)
            indexed.install(entry, now=now, replace=replace)
            linear.install(entry, now=now, replace=replace)
        elif kind == "delete":
            _, match, priority, strict = op
            assert {e.entry_id for e in indexed.delete(match, strict=strict, priority=priority)} == {
                e.entry_id for e in linear.delete(match, strict=strict, priority=priority)
            }
        elif kind == "modify":
            _, match, priority, strict = op
            port = 2 + len(linear)
            assert indexed.modify(match, [Output(port)], strict=strict, priority=priority) == linear.modify(
                match, [Output(port)], strict=strict, priority=priority
            )
        elif kind == "expire":
            now += op[1]
            assert {e.entry_id for e, _ in indexed.expire(now)} == {e.entry_id for e, _ in linear.expire(now)}
        elif kind == "remove_entry" and len(linear):
            victim = linear.entries()[op[1] % len(linear)]
            assert indexed.remove_entry(victim) and linear.remove_entry(victim)
        elif kind == "hit":
            winner = linear.lookup(*_PROBES[op[1]])
            assert indexed.lookup(*_PROBES[op[1]]) is winner
            if winner is not None:
                winner.hit(now, 64)  # one shared entry: its idle clock moves in both tables
        for _probe in ("cold", "warm"):
            for key, in_port in _PROBES:
                assert indexed.lookup(key, in_port) is linear.lookup(key, in_port)
    assert indexed.aggregate_stats() == linear.aggregate_stats()
