#!/usr/bin/env python3
"""Batched fastpath: whole flow tables and packet-in fan-outs in one crossing.

Builds a two-switch line, then drives the two batched APIs end to end:

* ``create_flows_batched`` installs a 32-entry flow table: each flow is
  one ``(path, files, "version")`` object, written by
  ``write_objects_batched`` as a linked mkdir → write → commit chain —
  one ``io_uring_enter`` instead of hundreds of per-file syscalls;
* ``write_packet_in_batched`` fans one packet-in out to four subscribed
  application buffers through the same routine, each a ``"rename"``
  object published by an atomic maildir rename, again in a single
  kernel crossing.

Prints the metered syscall/context-switch totals next to what the
per-syscall file path would have paid.

Run:  python examples/batched_fastpath.py
"""

from repro import Match, Output, YancController, build_linear
from repro.perf import SyscallMeter


def main() -> None:
    net = build_linear(2, hosts_per_switch=1)
    ctl = YancController(net).start()

    meter = SyscallMeter()
    yc = ctl.host.client(meter=meter)

    # One submission installs the whole table on each switch.
    n_flows = 32
    for switch in yc.switches():  # yancperf: disable=syscall-in-loop
        entries = [(f"vlan{index}", Match(dl_vlan=index), [Output(1)]) for index in range(n_flows)]
        created = yc.create_flows_batched(switch, entries, priority=5)
        assert created == n_flows
    install_syscalls, install_ctxsw = meter.syscalls, meter.context_switches
    print(f"installed {n_flows} flows x 2 switches: {install_syscalls} syscalls, {install_ctxsw} context switches")
    print(f"  (per-syscall file path: ~{n_flows * 2 * 16} syscalls)")
    ctl.run(0.2)  # drivers sync the committed tables to the switches

    # Fan one packet-in out to every subscriber in one crossing.
    apps = [f"monitor{index}" for index in range(4)]
    for app in apps:
        yc.subscribe_events("sw1", app)
    meter.reset()
    published = yc.write_packet_in_batched(
        "sw1", apps, 1, in_port=1, reason="no_match", buffer_id=0, total_len=4, data=b"miss"
    )
    assert published == len(apps)
    print(f"fanned 1 packet-in to {len(apps)} apps: {meter.syscalls} syscalls, {meter.context_switches} context switches")
    print(f"  (per-syscall file path: ~{len(apps) * 17} syscalls)")

    for app in apps:  # yancperf: disable=syscall-in-loop
        events = yc.read_events("sw1", app)
        assert len(events) == 1 and events[0].data == b"miss"
    print("every app drained its own copy of the event")


if __name__ == "__main__":
    main()
