"""E2 — §8.1: libyanc, the shared-memory fastpath.

Paper claims: libyanc provides "a fastpath for e.g. creating flow entries
atomically and without any context switchings" and "efficient, zero-copy
passing of bulk data — packet in buffers, for example — among
applications".

Reproduced shape:

* flow install via libyanc: 0 syscalls, 0 context switches (file path:
  dozens of each) and at least 5x cheaper under the calibrated cost model;
* zero-copy buffer handoff is O(1) in payload size; the copying path's
  billed bytes grow linearly.
"""

from conftest import print_table

from repro.dataplane import Match, Output
from repro.libyanc import LibYanc, ShmRing
from repro.perf import FUSE_COST_MODEL, SHM_COST_MODEL, PerfCounters, SyscallMeter
from repro.runtime import ControllerHost
from repro.sim import Simulator
from repro.vfs.cred import ROOT

N_FLOWS = 200


def _host() -> ControllerHost:
    host = ControllerHost(Simulator())
    host.client(cred=ROOT).create_switch("sw1")  # switches/ is driver-populated; the admin stands in
    return host


def test_flow_install_file_path_vs_libyanc(benchmark):
    host = _host()
    meter = SyscallMeter()
    file_client = host.client(meter=meter)
    for index in range(N_FLOWS):
        file_client.create_flow("sw1", f"file{index}", Match(dl_vlan=index), [Output(1)], priority=9)
    file_syscalls, file_ctxsw = meter.syscalls, meter.context_switches

    ring_meter = SyscallMeter()
    ring_client = host.client(meter=ring_meter)
    entries = [(f"ring{index}", Match(dl_vlan=index), [Output(1)]) for index in range(N_FLOWS)]
    assert ring_client.create_flows_batched("sw1", entries, priority=9) == N_FLOWS
    ring_syscalls, ring_ctxsw = ring_meter.syscalls, ring_meter.context_switches

    lib = LibYanc(host.fs)
    for index in range(N_FLOWS):
        lib.create_flow("sw1", f"shm{index}", Match(dl_vlan=index), [Output(1)], priority=9)
    lib_ops = lib.counters.get("libyanc.op")

    file_time = FUSE_COST_MODEL.syscall_time(file_syscalls)
    ring_time = FUSE_COST_MODEL.syscall_time(ring_syscalls)
    shm_time = SHM_COST_MODEL.syscall_time(lib_ops)
    print_table(
        f"E2: installing {N_FLOWS} flows",
        ["path", "syscalls", "ctx switches", "simulated time"],
        [
            ("file I/O", file_syscalls, file_ctxsw, f"{file_time * 1e3:.3f} ms"),
            ("batched ring", ring_syscalls, ring_ctxsw, f"{ring_time * 1e3:.3f} ms"),
            ("libyanc", 0, 0, f"{shm_time * 1e3:.3f} ms"),
        ],
    )
    assert file_ctxsw >= 5 * max(1, lib_ops)
    assert file_syscalls / N_FLOWS > 10
    # the submission ring sits between the two: still kernel-mediated, but
    # at least 10x fewer crossings than per-syscall file I/O
    assert file_ctxsw >= 10 * max(1, ring_ctxsw)
    # wall-clock comparison of one install each
    counter = iter(range(10**6))
    benchmark(lambda: lib.create_flow("sw1", f"bench{next(counter)}", Match(dl_vlan=1), [Output(1)]))


def test_libyanc_atomicity_one_event_burst(benchmark):
    """The whole flow appears at once: a watcher needs exactly one
    IN_CREATE on the flows dir, never a half-written directory."""
    from repro.vfs import EventMask

    host = _host()
    lib = LibYanc(host.fs)
    sc = host.root_sc
    ino = sc.inotify_init()
    sc.inotify_add_watch(ino, "/net/switches/sw1/flows", EventMask.IN_CREATE)
    counter = iter(range(10**6))

    def create():
        lib.create_flow("sw1", f"atomic{next(counter)}", Match(dl_vlan=5, dl_type=0x800), [Output(2)], priority=3)

    benchmark(create)
    events = sc.inotify_read(ino)
    created = [e for e in events if e.mask & EventMask.IN_CREATE]
    # one creation event per flow, and each flow dir is complete on arrival
    name = created[0].name
    files = set(sc.listdir(f"/net/switches/sw1/flows/{name}"))
    assert {"match.dl_vlan", "match.dl_type", "action.out", "priority", "version"} <= files


def test_zero_copy_vs_copy_bulk_data(benchmark):
    sizes = (64, 1500, 9000, 65536)
    rows = []
    for size in sizes:
        payload = bytes(size)
        zero = PerfCounters()
        ring_zero = ShmRing(64, counters=zero)
        copy = PerfCounters()
        ring_copy = ShmRing(64, counters=copy)
        for _ in range(32):
            ring_zero.put(payload)
            ring_zero.get()
            ring_copy.put_copy(payload)
            ring_copy.get()
        zero_cost = FUSE_COST_MODEL.copy_time(zero.get("bytes.copied"))
        copy_cost = FUSE_COST_MODEL.copy_time(copy.get("bytes.copied"))
        rows.append((size, zero.get("bytes.copied"), copy.get("bytes.copied"), f"{zero_cost * 1e6:.2f} us", f"{copy_cost * 1e6:.2f} us"))
    print_table(
        "E2: passing 32 packet buffers between applications",
        ["payload B", "zero-copy bytes", "copied bytes", "zero-copy cost", "copy cost"],
        rows,
    )
    # zero-copy: no bytes billed at any size; copy path linear in size
    assert all(row[1] == 0 for row in rows)
    assert rows[-1][2] == 32 * 65536
    ring = ShmRing(64)
    big = bytes(65536)
    benchmark(lambda: (ring.put(big), ring.get()))
