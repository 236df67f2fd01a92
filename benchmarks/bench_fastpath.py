"""Fastpath benchmark: batched ring submission vs per-syscall file I/O.

Standalone runner (not part of the pytest-benchmark suite):

    PYTHONPATH=src python benchmarks/bench_fastpath.py [--quick] [--out F]

Two workload shapes from the experiment index, both at high fan-out:

* **flow install (E2 shape)** — N flows land in one switch table.  The
  file path pays mkdir + three syscalls per spec file + the commit
  read/write per flow; :meth:`YancClient.create_flows_batched` preps the
  same operations as linked chains and crosses the kernel once per
  submission-queue fill.
* **packet-in fan-out (E4 shape)** — one packet-in publishes to N app
  buffers.  The file path pays 17 syscalls per app per event;
  :meth:`YancClient.write_packet_in_batched` fans the whole event out in
  one ``io_uring_enter``.

Both sides of each comparison must produce identical trees (asserted:
committed flow specs and drained event payloads match field for field);
the figure of merit is metered context switches under the FUSE cost
model.  Emits ``BENCH_fastpath.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.dataplane import Match, Output
from repro.perf import SyscallMeter
from repro.runtime import ControllerHost
from repro.sim import Simulator
from repro.vfs.cred import ROOT

QUICK = {"flows": 40, "apps": 8, "events": 3}
FULL = {"flows": 200, "apps": 32, "events": 5}


def _host() -> ControllerHost:
    host = ControllerHost(Simulator())
    host.client(cred=ROOT).create_switch("sw1")  # switches/ is driver-populated; the admin stands in
    return host


def flow_install(n_flows: int) -> dict:
    """Install the same N-flow table twice: per-syscall vs one submission."""
    host = _host()

    unbatched = SyscallMeter()
    file_client = host.client(meter=unbatched)
    for index in range(n_flows):
        file_client.create_flow("sw1", f"u{index}", Match(dl_vlan=index), [Output(1)], priority=9)

    batched = SyscallMeter()
    ring_client = host.client(meter=batched)
    entries = [(f"b{index}", Match(dl_vlan=index), [Output(1)]) for index in range(n_flows)]
    created = ring_client.create_flows_batched("sw1", entries, priority=9)
    assert created == n_flows

    # Behavior parity: either path commits the identical flow spec.
    check = host.client()
    for index in (0, n_flows - 1):
        assert check.read_flow("sw1", f"u{index}") == check.read_flow("sw1", f"b{index}")

    return {
        "flows": n_flows,
        "unbatched": {"syscalls": unbatched.syscalls, "ctxsw": unbatched.context_switches},
        "batched": {"syscalls": batched.syscalls, "ctxsw": batched.context_switches},
        "ctxsw_ratio": round(unbatched.context_switches / max(batched.context_switches, 1), 2),
    }


def packet_fanout(n_apps: int, n_events: int) -> dict:
    """Fan each of R packet-ins out to N app buffers, both ways."""
    host = _host()
    setup = host.client()
    file_apps = [f"u_app{index}" for index in range(n_apps)]
    ring_apps = [f"b_app{index}" for index in range(n_apps)]
    for app in file_apps + ring_apps:
        setup.subscribe_events("sw1", app)

    unbatched = SyscallMeter()
    file_client = host.client(meter=unbatched)
    for seq in range(n_events):
        for app in file_apps:
            file_client.write_packet_in(
                "sw1", app, seq, in_port=1, reason="no_match", buffer_id=0, total_len=4, data=b"miss"
            )

    batched = SyscallMeter()
    ring_client = host.client(meter=batched)
    ring = ring_client.sc.io_uring_setup(entries=max(256, 17 * n_apps))
    for seq in range(n_events):
        published = ring_client.write_packet_in_batched(
            "sw1", ring_apps, seq, in_port=1, reason="no_match", buffer_id=0, total_len=4, data=b"miss", uring=ring
        )
        assert published == n_apps

    # Behavior parity: every buffer drains the same events either way.
    check = host.client()
    for file_app, ring_app in zip(file_apps, ring_apps):
        file_events = check.read_events("sw1", file_app)
        ring_events = check.read_events("sw1", ring_app)
        assert len(file_events) == len(ring_events) == n_events
        key = lambda e: (e.seq, e.in_port, e.reason, e.buffer_id, e.total_len, e.data)  # noqa: E731
        assert [key(e) for e in file_events] == [key(e) for e in ring_events]

    return {
        "apps": n_apps,
        "events": n_events,
        "unbatched": {"syscalls": unbatched.syscalls, "ctxsw": unbatched.context_switches},
        "batched": {"syscalls": batched.syscalls, "ctxsw": batched.context_switches},
        "ctxsw_ratio": round(unbatched.context_switches / max(batched.context_switches, 1), 2),
    }


def run(quick: bool) -> dict:
    cfg = QUICK if quick else FULL
    install = flow_install(cfg["flows"])
    fanout = packet_fanout(cfg["apps"], cfg["events"])
    for shape in (install, fanout):
        assert shape["ctxsw_ratio"] >= 10, shape
    return {
        "benchmark": "fastpath",
        "workload": (
            f"{cfg['flows']}-flow table install + {cfg['events']} packet-ins "
            f"fanned out to {cfg['apps']} app buffers, batched vs per-syscall"
        ),
        "quick": quick,
        "behavior_parity": "identical flow specs and event payloads, ring vs file path",
        "flow_install": install,
        "packet_fanout": fanout,
        "min_ctxsw_ratio": min(install["ctxsw_ratio"], fanout["ctxsw_ratio"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workload (CI smoke)")
    parser.add_argument("--out", default="BENCH_fastpath.json", help="output JSON path")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.0,
        help="fail (exit 1) if the worst unbatched/batched ctxsw ratio falls below this",
    )
    args = parser.parse_args(argv)
    result = run(quick=args.quick)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    if args.min_ratio and result["min_ctxsw_ratio"] < args.min_ratio:
        print(
            f"ratio {result['min_ctxsw_ratio']} < required {args.min_ratio}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
