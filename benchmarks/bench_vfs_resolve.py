"""VFS resolve benchmark: deep-path open+stat with the resolution memo on/off.

Standalone runner (not part of the pytest-benchmark suite):

    PYTHONPATH=src python benchmarks/bench_vfs_resolve.py [--quick] [--out F]

Emits ``BENCH_vfs_resolve.json`` with ops/sec for a deep-path
open+close+stat loop with the memo on and off (off = the plain walk),
the resulting speedup, and the memo's counter totals.  Before timing
anything it replays a mixed workload (creates, renames, negative lookups,
watches) on two fresh hosts — memo on and memo off — and asserts
byte-identical observable behavior: same inode/dev numbers, same
exception types, same notify events.  The memo must be a pure
accelerator: the run fails (exit 1) if it is slower than the walk it
stands in front of.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.vfs import (
    FileNotFound,
    IN_ALL_EVENTS,
    MemFs,
    O_RDONLY,
    Syscalls,
    VirtualFileSystem,
)

DEPTH = 16
QUICK_OPS = 2_000
FULL_OPS = 20_000
REPS = 5


def _make_deep_path(sc: Syscalls, depth: int) -> str:
    path = ""
    for i in range(depth):
        path += f"/d{i}"
        sc.mkdir(path)
    leaf = path + "/leaf"
    sc.write_text(leaf, "payload")
    return leaf


def _mixed_workload_trace(cache_enabled: bool) -> list:
    """Run a resolution-heavy workload and record everything observable."""
    vfs = VirtualFileSystem()
    sc = Syscalls(vfs)
    sc.ns.dcache.enabled = cache_enabled
    trace: list = []
    # Device numbers come from a process-global counter, so two hosts in
    # one process see different raw values; map them to first-seen indices.
    dev_ids: dict[int, int] = {}

    def dev(raw: int) -> int:
        return dev_ids.setdefault(raw, len(dev_ids))
    ino = sc.inotify_init()
    sc.makedirs("/net/switches/s1/flows")
    sc.inotify_add_watch(ino, "/net/switches/s1/flows", IN_ALL_EVENTS)
    for round_no in range(3):
        sc.write_text(f"/net/switches/s1/flows/f{round_no}", f"v{round_no}")
        trace.append(sc.read_text(f"/net/switches/s1/flows/f{round_no}"))
        st = sc.stat(f"/net/switches/s1/flows/f{round_no}")
        trace.append((st.ino, dev(st.dev), st.size))
        try:
            sc.stat("/net/switches/s1/flows/missing")
        except FileNotFound:
            trace.append("ENOENT")
        sc.rename(f"/net/switches/s1/flows/f{round_no}", f"/net/switches/s1/flows/g{round_no}")
        trace.append(sorted(sc.listdir("/net/switches/s1/flows")))
    sc.mkdir("/m")
    sc.mount("/m", MemFs())
    sc.write_text("/m/x", "mounted")
    trace.append(dev(sc.stat("/m/x").dev))
    sc.umount("/m")
    try:
        sc.read_text("/m/x")
    except FileNotFound:
        trace.append("ENOENT-after-umount")
    trace.extend(
        (e.wd, int(e.mask), e.name, e.cookie != 0) for e in sc.inotify_read(ino)
    )
    return trace


def _ops_per_sec(sc: Syscalls, leaf: str, ops: int, reps: int) -> float:
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(ops):
            fd = sc.open(leaf, O_RDONLY)
            sc.close(fd)
            sc.stat(leaf)
        elapsed = time.perf_counter() - t0
        best = max(best, ops / elapsed)
    return best


def run(quick: bool) -> dict:
    on_trace = _mixed_workload_trace(cache_enabled=True)
    off_trace = _mixed_workload_trace(cache_enabled=False)
    assert on_trace == off_trace, "the resolution memo changed observable behavior"

    ops = QUICK_OPS if quick else FULL_OPS
    vfs = VirtualFileSystem()
    sc = Syscalls(vfs)
    leaf = _make_deep_path(sc, DEPTH)

    sc.ns.dcache.enabled = True
    sc.ns.dcache.flush()
    ops_on = _ops_per_sec(sc, leaf, ops, REPS)
    stats_on = sc.ns.dcache.stats()
    sc.ns.dcache.publish(vfs.counters)

    sc.ns.dcache.enabled = False
    sc.ns.dcache.flush()
    ops_off = _ops_per_sec(sc, leaf, ops, REPS)

    return {
        "benchmark": "vfs_resolve",
        "workload": f"open+close+stat on a {DEPTH}-component path, best of {REPS} reps",
        "ops_per_iteration": ops,
        "quick": quick,
        "behavior_parity": "identical trace, cache on vs off",
        "ops_sec_cache_on": round(ops_on, 1),
        "ops_sec_cache_off": round(ops_off, 1),
        "speedup": round(ops_on / ops_off, 2),
        "dcache": stats_on,
        "perf_counters": {
            name: vfs.counters.get(name)
            for name in vfs.counters.names()
            if name.startswith("dcache.")
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller op count (CI smoke)")
    parser.add_argument("--out", default="BENCH_vfs_resolve.json", help="output JSON path")
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    if result["speedup"] < 1.0:
        print(f"speedup {result['speedup']} < 1.0: the memo is slower than the walk", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
