"""Every metric the benchmark reports: name, unit, direction, bound, meaning.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds (the smoke test checks the two agree); the meaning
of each metric and the end-to-end metrics a per-layer metric is expected
to move live here and in the README, because ``BENCHMARK.json`` has no
field for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None  # share of the base median it may get worse by; None for per-layer
    doc: str
    moves: str = ""  # per-layer only: which end-to-end metric it should move, where


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25, "wall seconds to build the workload (median of the set-ups in the run)"),
    Metric("throughput_ops_s", "1/s", "higher", 0.25, "operations per wall second, think-time processing included (median over whole simulated seconds)"),
    Metric("latency_p50_ms", "ms", "lower", 0.25, "wall time from issuing an operation to its verified completion, think time excluded (median)"),
    Metric("latency_p75_ms", "ms", "lower", 0.25, "the same, upper quartile"),
    Metric("syscalls_per_op", "count", "lower", 0.05, "metered system calls of every controller process per operation (fixed prefix of operations; repeats exactly for a seed)"),
    Metric("ctxsw_per_op", "count", "lower", 0.05, "metered context switches per operation (same prefix)"),
    Metric("peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of the workload's process"),
]

_FS_WORKLOADS = "reactive_fattree, bulk_campus, monitor_clos"
_SELF = {
    "sim": "throughput_ops_s, latency_p50_ms on forward_fattree",
    "dataplane": "throughput_ops_s, latency_p50_ms on forward_fattree; FlowTable.install inside it on bulk_campus only",
    "netpkt": "throughput_ops_s, latency_p50_ms on forward_fattree",
    "openflow": "throughput_ops_s on reactive_fattree (OF1.0) and bulk_campus (OF1.3)",
    "controlchannel": "throughput_ops_s on reactive_fattree and bulk_campus",
    "drivers": "throughput_ops_s on reactive_fattree and bulk_campus",
    "yancfs": f"throughput_ops_s, latency_p50_ms on {_FS_WORKLOADS}; no change on forward_fattree",
    "vfs": f"throughput_ops_s, latency_p50_ms on {_FS_WORKLOADS}; no change on forward_fattree",
    "vfs.uring": "throughput_ops_s on reactive_fattree and bulk_campus",
    "vfs.notify": "latency_p75_ms on reactive_fattree",
    "proc": "latency_p75_ms on reactive_fattree",
    "apps": "latency_p75_ms on reactive_fattree; latency_p50_ms on monitor_clos (acctd)",
    "libyanc": "latency_p50_ms on bulk_campus (every third batch)",
    "shell": "latency_p50_ms on monitor_clos",
}

PER_LAYER: list[Metric] = []
for _layer in LAYERS:
    PER_LAYER.append(Metric(f"{_layer}.self_us_per_op", "us", "lower", None, f"traced self time of layer {_layer} per operation", _SELF[_layer]))
    PER_LAYER.append(Metric(f"{_layer}.calls_per_op", "count", "lower", None, f"spans of layer {_layer} per operation", _SELF[_layer]))

_SYSCALL_COUNTS = "syscalls_per_op, ctxsw_per_op on reactive_fattree and bulk_campus (throughput may not move)"
PER_LAYER += [
    Metric("perf.model_us_per_op", "sim_us", "lower", None, "every meter's deltas priced by its CostModel.charge: simulated microseconds of syscall, context-switch and copy cost per operation", "follows syscalls_per_op and vfs.bytes_copied_per_op; wall metrics do not see simulated time"),
    Metric("sim.events_per_op", "count", "lower", None, "simulator events dispatched per operation", "throughput_ops_s, latency_p50_ms on forward_fattree"),
    Metric("sim.latency_p50_ms", "ms", "lower", None, "simulated time from issue to completion, median; moves only when a control round trip is removed (constant 1000 on monitor_clos)", "itself only: wall metrics do not see simulated time"),
    Metric("dataplane.table_entries_max", "count", "lower", None, "largest hardware flow table seen (guarded < 600)", "none; a guard, see known limits"),
    Metric("dataplane.rx_frames_per_op", "count", "lower", None, "frames received by switch ports per operation (sum of PortSim.rx_packets): hops per datagram, plus LLDP", "throughput_ops_s, latency_p50_ms on forward_fattree"),
    Metric("openflow.msgs_per_op", "count", "lower", None, "control-channel messages sent per operation, both directions (/proc/counters openflow.tx)", "throughput_ops_s on reactive_fattree and bulk_campus"),
    Metric("openflow.bytes_per_op", "bytes", "lower", None, "control-channel bytes per operation (/proc/counters openflow.tx_bytes)", "throughput_ops_s on reactive_fattree and bulk_campus"),
    Metric("drivers.packet_ins_per_op", "count", "lower", None, "packet-ins the driver published per operation", "throughput_ops_s, latency_p50_ms on reactive_fattree"),
    Metric("drivers.flow_mods_per_op", "count", "lower", None, "flow-mods the driver sent per operation", "throughput_ops_s on reactive_fattree and bulk_campus"),
    Metric("drivers.dropped_events", "count", "lower", None, "packet-ins dropped at a full app buffer during the run", "failed operations on reactive_fattree"),
    Metric("vfs.open_per_op", "count", "lower", None, "files opened per operation, by syscall or ring entry", f"throughput_ops_s, latency_p50_ms on {_FS_WORKLOADS}; {_SYSCALL_COUNTS}"),
    Metric("vfs.bytes_copied_per_op", "bytes", "lower", None, "payload bytes copied across the syscall boundary per operation", "perf.model_us_per_op"),
    Metric("vfs.uring_submits_per_op", "count", "lower", None, "io_uring_enter calls per operation", _SYSCALL_COUNTS),
    Metric("vfs.uring_sqe_per_op", "count", "lower", None, "ring entries executed per operation", "throughput_ops_s on reactive_fattree and bulk_campus"),
    Metric("vfs.dcache_path_hit_ratio", "ratio", "higher", None, "whole-path dentry-cache hits / look-ups", f"throughput_ops_s, latency_p50_ms on {_FS_WORKLOADS}"),
    Metric("vfs.dcache_invalidations_per_op", "count", "lower", None, "dentry-cache entries invalidated per operation", "latency_p50_ms on monitor_clos: where a write-side win that costs readers shows"),
    Metric("vfs.notify_events_per_op", "count", "lower", None, "inotify events delivered per operation (/proc/counters notify.events)", "latency_p75_ms on reactive_fattree"),
    Metric("vfs.notify_coalesced_per_op", "count", "higher", None, "inotify events merged into the queue tail per operation", "latency_p75_ms on reactive_fattree"),
    Metric("vfs.notify_dropped", "count", "lower", None, "inotify events dropped at a full queue during the run", "failed operations"),
    Metric("proc.dispatches_per_op", "count", "lower", None, "process wake-ups per operation (/proc/counters proc.dispatches)", "latency_p75_ms on reactive_fattree"),
    Metric("proc.throttled", "count", "lower", None, "cgroup limit breaches during the run", "failed operations"),
    Metric("proc.crashes", "count", "lower", None, "process crashes during the run", "failed operations"),
    Metric("apps.paths_installed_per_op", "count", "lower", None, "paths the router installed per operation (a path is re-installed at each hop that punts)", "throughput_ops_s, latency_p50_ms on reactive_fattree"),
    Metric("apps.floods_per_op", "count", "lower", None, "packets the router flooded per operation (each is re-punted at every hop)", "latency_p50_ms, latency_p75_ms on reactive_fattree"),
    Metric("apps.acct_samples_per_op", "count", "lower", None, "accounting sweeps per operation", "latency_p50_ms on monitor_clos"),
    Metric("yancfs.file_batch_ms_p50", "ms", "lower", None, "bulk_campus: wall time to install a 32-flow batch through YancClient.create_flow (0 elsewhere)", "latency_p50_ms on bulk_campus"),
    Metric("yancfs.ring_batch_ms_p50", "ms", "lower", None, "bulk_campus: the same through YancClient.create_flows_batched", "latency_p50_ms on bulk_campus"),
    Metric("libyanc.fastpath_batch_ms_p50", "ms", "lower", None, "bulk_campus: the same through LibYanc.stage_flow + flush", "latency_p50_ms on bulk_campus"),
    Metric("trace.overhead_ratio", "ratio", "lower", None, "traced wall time per operation / untraced", "none; how far traced self times are inflated"),
    Metric("trace.coverage", "ratio", "higher", None, "sum of layer self times / traced wall time", "none; the share of the run the layers account for"),
]
