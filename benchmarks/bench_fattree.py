"""Fat-tree flow-table benchmark: indexed (tuple-space) vs linear lookup.

Standalone runner (not part of the pytest-benchmark suite):

    PYTHONPATH=src python benchmarks/bench_fattree.py [--quick] [--out F]

Datacenter-scale gate for the indexed :class:`FlowTable`.  A k-ary fat
tree (k=8: 128 hosts, k=16: 1024 hosts) supplies the host population; the
benchmark loads one heavily-trafficked switch's table the way the
reactive router does — thousands of exact-match host-pair entries under a
handful of wildcard tiers (the LLDP punt, subnet ACLs) — then measures

* **packets/sec** — lookups against a mixed hit/miss key stream, and
* **flows installed/sec** — building the table entry by entry,

for the indexed table and for :class:`LinearFlowTable`, the seed
implementation kept as an executable reference model.  Every timed lookup
is also a parity check: both tables must return the *same* winning entry
(or both miss).  The stream looks each ``(key, in_port)`` up once, so every
timed indexed lookup takes the classifier's path and the ``--min-ratio``
gate measures tuple-space search, not the exact-match cache in front of
it; a ``warm_replay`` row replays the same stream and reports the cache.
Emits ``BENCH_fattree.json``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from ipaddress import IPv4Network

from repro.dataplane import FlowTable, LinearFlowTable, Match, Output, build_fat_tree
from repro.dataplane.flowtable import FlowEntry
from repro.netpkt.ethernet import ETH_TYPE_IPV4, ETH_TYPE_LLDP
from repro.netpkt.packet import FlowKey

QUICK = {"ks": [8], "flows": {8: 2048}, "lookups": 2000}
FULL = {"ks": [8, 16], "flows": {8: 2048, 16: 8192}, "lookups": 2000}


def build_entries(k: int, n_flows: int, seed: int) -> list[FlowEntry]:
    """A realistic single-switch table at fat-tree scale ``k``.

    Exact-match host-pair routes dominate (the reactive router's output),
    with the LLDP punt and a few CIDR ACL tiers above and between them —
    the wildcard shapes that make tuple-space search earn its keep.
    """
    net = build_fat_tree(k)
    hosts = list(net.hosts.values())
    rng = random.Random(seed)
    entries = [
        FlowEntry(match=Match(dl_type=ETH_TYPE_LLDP), actions=[Output(0xFFFD)], priority=0xFFFF)
    ]
    for index in range(8):
        entries.append(
            FlowEntry(
                match=Match(dl_type=ETH_TYPE_IPV4, nw_dst=IPv4Network(f"10.{index}.0.0/16")),
                actions=[Output(index + 1)],
                priority=0x9000 + index,
            )
        )
    for _ in range(n_flows):
        src, dst = rng.sample(hosts, 2)
        key = FlowKey(dl_src=src.mac, dl_dst=dst.mac, dl_type=ETH_TYPE_IPV4, nw_src=src.ip, nw_dst=dst.ip)
        entries.append(
            FlowEntry(match=Match.exact(key, in_port=rng.randrange(1, k + 1)), actions=[Output(2)])
        )
    return entries


def lookup_keys(entries: list[FlowEntry], n_lookups: int, seed: int) -> list[tuple[FlowKey, int]]:
    """A hit-heavy key stream: 80% installed host pairs, 20% strangers, each once."""
    rng = random.Random(seed)
    exact = list(dict.fromkeys(e.match for e in entries if e.match.dl_src is not None))
    keys = []
    for index in range(n_lookups):
        if index % 5 and exact:
            m = exact.pop(rng.randrange(len(exact)))
            keys.append(
                (
                    FlowKey(
                        dl_src=m.dl_src,
                        dl_dst=m.dl_dst,
                        dl_type=m.dl_type,
                        nw_src=m.nw_src.network_address,
                        nw_dst=m.nw_dst.network_address,
                    ),
                    m.in_port,
                )
            )
        else:
            keys.append(
                (
                    FlowKey(dl_src=0x02_99_00_00_00_00 + index, dl_dst=0x02_98_00_00_00_00 + index, dl_type=0x86DD),
                    1,
                )
            )
    return keys


def timed_install(table, entries: list[FlowEntry]) -> float:
    start = time.perf_counter()
    for entry in entries:
        table.install(entry, replace=False)
    return time.perf_counter() - start


def timed_lookups(table, keys: list[tuple[FlowKey, int]]) -> tuple[float, list]:
    winners = []
    start = time.perf_counter()
    for key, in_port in keys:
        winners.append(table.lookup(key, in_port))
    return time.perf_counter() - start, winners


def run_scenario(k: int, n_flows: int, n_lookups: int) -> dict:
    entries = build_entries(k, n_flows, seed=k)
    keys = lookup_keys(entries, n_lookups, seed=k + 1)

    indexed = FlowTable()
    linear = LinearFlowTable()
    indexed_install = timed_install(indexed, entries)
    linear_install = timed_install(linear, entries)

    indexed_time, indexed_winners = timed_lookups(indexed, keys)
    linear_time, linear_winners = timed_lookups(linear, keys)

    # Match-winner parity: identical entry objects (or identical misses)
    # on every single lookup, indexed vs the linear reference model.
    for got, want in zip(indexed_winners, linear_winners):
        assert got is want, f"parity violation: indexed={got} linear={want}"
    hits = sum(1 for w in indexed_winners if w is not None)
    examined = indexed.entries_examined

    # The same stream again: every lookup is now an exact-match cache hit.
    warm_time, warm_winners = timed_lookups(indexed, keys)
    assert all(got is want for got, want in zip(warm_winners, indexed_winners)), "warm replay changed a winner"

    ratio = (n_lookups / indexed_time) / (n_lookups / linear_time)
    return {
        "k": k,
        "hosts": (k**3) // 4,
        "entries": len(entries),
        "lookups": n_lookups,
        "hits": hits,
        "parity_checked": True,
        "packets_per_sec": {
            "indexed": round(n_lookups / indexed_time),
            "linear": round(n_lookups / linear_time),
        },
        "flows_installed_per_sec": {
            "indexed": round(len(entries) / indexed_install),
            "linear": round(len(entries) / linear_install),
        },
        "entries_examined_per_lookup": {
            "indexed": round(examined / n_lookups, 2),
            "linear": round(linear.entries_examined / linear.lookup_count, 2),
        },
        "lookup_ratio": round(ratio, 1),
        "distinct_keys": len(set(keys)),
        "warm_replay": {
            "packets_per_sec": round(n_lookups / warm_time),
            "entries_examined_per_lookup": round((indexed.entries_examined - examined) / n_lookups, 2),
            "speedup_over_cold": round(indexed_time / warm_time, 1),
        },
    }


def run(quick: bool) -> dict:
    cfg = QUICK if quick else FULL
    scenarios = [run_scenario(k, cfg["flows"][k], cfg["lookups"]) for k in cfg["ks"]]
    for scenario in scenarios:
        assert scenario["entries"] > 1000, scenario
        assert scenario["lookup_ratio"] >= 10, scenario
    return {
        "benchmark": "fattree",
        "workload": (
            "single-switch table at fat-tree scale: exact host-pair routes under "
            "wildcard tiers; mixed hit/miss lookup stream, indexed vs linear reference"
        ),
        "stream": "each (key, in_port) once: every timed indexed lookup is a classifier lookup; warm_replay repeats it from the exact-match cache",
        "quick": quick,
        "behavior_parity": "every lookup returns the identical winner in both tables",
        "scenarios": scenarios,
        "min_lookup_ratio": min(s["lookup_ratio"] for s in scenarios),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="k=8 only (CI smoke)")
    parser.add_argument("--out", default="BENCH_fattree.json", help="output JSON path")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.0,
        help="fail (exit 1) if the worst indexed/linear lookup ratio falls below this",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    if args.min_ratio and result["min_lookup_ratio"] < args.min_ratio:
        print(
            f"ratio {result['min_lookup_ratio']} < required {args.min_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
