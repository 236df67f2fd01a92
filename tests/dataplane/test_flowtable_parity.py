"""Randomized parity: the indexed FlowTable vs the linear reference model.

Both tables receive the *same* FlowEntry objects through identical
randomized op sequences (install/replace, non/strict delete, modify,
expire, remove_entry, traffic hits), so every lookup can be checked by
object identity: the tuple-space index must produce exactly the winner the
full scan does.  After every step a small fixed key set is looked up twice,
a cold probe and a warm one, so the exact-match cache is checked against
the reference after every kind of change to the table.
"""

import random

from repro.dataplane import FlowEntry, FlowTable, LinearFlowTable, Match, Output
from repro.netpkt import MacAddress, ip
from repro.netpkt.packet import FlowKey

MACS = [MacAddress(n) for n in range(1, 5)]
DL_TYPES = [0x0800, 0x0806]
PORTS = [1, 2, 3]
TP_PORTS = [22, 80]
# Mixed prefix lengths so distinct CIDR shapes land in distinct groups.
PREFIXES = ["10.0.0.1/32", "10.0.0.2/32", "10.0.0.0/24", "10.0.0.0/16"]
IPS = [ip("10.0.0.1"), ip("10.0.0.2"), ip("10.0.0.3"), ip("10.1.0.1")]


def random_match(rng: random.Random) -> Match:
    kwargs = {}
    if rng.random() < 0.3:
        kwargs["in_port"] = rng.choice(PORTS)
    if rng.random() < 0.4:
        kwargs["dl_src"] = rng.choice(MACS)
    if rng.random() < 0.4:
        kwargs["dl_dst"] = rng.choice(MACS)
    if rng.random() < 0.5:
        kwargs["dl_type"] = rng.choice(DL_TYPES)
    if rng.random() < 0.3:
        kwargs["nw_src"] = rng.choice(PREFIXES)
    if rng.random() < 0.3:
        kwargs["nw_dst"] = rng.choice(PREFIXES)
    if rng.random() < 0.3:
        kwargs["tp_dst"] = rng.choice(TP_PORTS)
    return Match(**kwargs)


def random_key(rng: random.Random) -> tuple[FlowKey, int]:
    has_ip = rng.random() < 0.8  # sometimes an ARP-ish key with no nw fields
    key = FlowKey(
        dl_src=rng.choice(MACS),
        dl_dst=rng.choice(MACS),
        dl_type=rng.choice(DL_TYPES),
        nw_src=rng.choice(IPS) if has_ip else None,
        nw_dst=rng.choice(IPS) if has_ip else None,
        nw_proto=6 if has_ip else None,
        nw_tos=0 if has_ip else None,
        tp_src=rng.choice(TP_PORTS) if has_ip else None,
        tp_dst=rng.choice(TP_PORTS) if has_ip else None,
    )
    return key, rng.choice(PORTS)


def _ids(entries) -> list[int]:
    return sorted(e.entry_id for e in entries)


def _probe_twice(indexed: FlowTable, linear: LinearFlowTable, keys, context: str) -> None:
    """Cold then warm: the cache's answer must be the classifier's, by identity."""
    for probe in ("cold", "warm"):
        for key, in_port in keys:
            want = linear.lookup(key, in_port)
            assert indexed.lookup(key, in_port) is want, f"{context} {probe} key={key} in_port={in_port}"


def _run_parity(seed: int, steps: int = 250) -> None:
    rng = random.Random(seed)
    indexed, linear = FlowTable(), LinearFlowTable()
    probes = [random_key(rng) for _ in range(6)]
    now = 0.0
    for step in range(steps):
        now += rng.random() * 0.3
        op = rng.random()
        if op < 0.55:
            entry = FlowEntry(
                match=random_match(rng),
                actions=[Output(rng.choice(PORTS))],
                priority=rng.randrange(1, 7),  # small range: plenty of ties
                idle_timeout=rng.choice([0.0, 0.0, 1.0]),
                hard_timeout=rng.choice([0.0, 0.0, 2.0]),
            )
            replace = rng.random() < 0.7
            indexed.install(entry, now=now, replace=replace)
            linear.install(entry, now=now, replace=replace)
        elif op < 0.70:
            match = random_match(rng)
            strict = rng.random() < 0.5
            priority = rng.randrange(1, 7)
            removed_indexed = indexed.delete(match, strict=strict, priority=priority)
            removed_linear = linear.delete(match, strict=strict, priority=priority)
            assert _ids(removed_indexed) == _ids(removed_linear)
        elif op < 0.80:
            match = random_match(rng)
            strict = rng.random() < 0.5
            priority = rng.randrange(1, 7)
            out_port = rng.choice(PORTS)
            assert indexed.modify(
                match, [Output(out_port)], strict=strict, priority=priority
            ) == linear.modify(match, [Output(out_port)], strict=strict, priority=priority)
        elif op < 0.88:
            expired_indexed = indexed.expire(now)
            expired_linear = linear.expire(now)
            assert sorted((e.entry_id, r) for e, r in expired_indexed) == sorted(
                (e.entry_id, r) for e, r in expired_linear
            )
        elif op < 0.94 and len(linear):
            victim = rng.choice(linear.entries())
            assert indexed.remove_entry(victim) is linear.remove_entry(victim) is True
        for _ in range(3):
            key, in_port = random_key(rng)
            got = indexed.lookup(key, in_port)
            want = linear.lookup(key, in_port)
            assert got is want, f"seed={seed} key={key} got={got} want={want}"
            if got is not None and rng.random() < 0.3:
                got.hit(now, 64)  # shared object: re-arms the idle clock in both worlds
        _probe_twice(indexed, linear, probes, f"seed={seed} step={step}")
    assert len(indexed) == len(linear)
    # entries() agrees on membership *and* on priority/age ordering.
    assert [e.entry_id for e in indexed.entries()] == [e.entry_id for e in linear.entries()]
    # The OpenFlow table counters count every lookup, whichever path answered it.
    assert indexed.aggregate_stats() == linear.aggregate_stats()


def test_randomized_op_sequences_agree():
    for seed in range(8):
        _run_parity(seed)


def test_install_replace_parity():
    """ADD-with-overwrite resolves through one bucket probe, not a scan."""
    indexed, linear = FlowTable(), LinearFlowTable()
    rng = random.Random(99)
    for _ in range(200):
        entry = FlowEntry(
            match=random_match(rng), actions=[Output(rng.choice(PORTS))], priority=rng.randrange(1, 4)
        )
        indexed.install(entry)
        linear.install(entry)
    assert len(indexed) == len(linear)
    assert [e.entry_id for e in indexed.entries()] == [e.entry_id for e in linear.entries()]
    for _ in range(200):
        key, in_port = random_key(rng)
        assert indexed.lookup(key, in_port) is linear.lookup(key, in_port)


def test_exact_match_heavy_table_parity():
    """The router's workload shape: thousands of exact entries, few tiers."""
    indexed, linear = FlowTable(), LinearFlowTable()
    rng = random.Random(7)
    keys = []
    for _ in range(500):
        key, in_port = random_key(rng)
        keys.append((key, in_port))
        entry = FlowEntry(match=Match.exact(key, in_port=in_port), actions=[Output(1)])
        indexed.install(entry, replace=False)
        linear.install(entry, replace=False)
    tier = FlowEntry(match=Match(dl_type=0x0800), actions=[Output(2)], priority=1)
    indexed.install(tier)
    linear.install(tier)
    for key, in_port in keys:
        assert indexed.lookup(key, in_port) is linear.lookup(key, in_port)
    stranger = FlowKey(dl_src=MacAddress(0x99), dl_dst=MacAddress(0x98), dl_type=0x86DD)
    assert indexed.lookup(stranger, 1) is linear.lookup(stranger, 1) is None
