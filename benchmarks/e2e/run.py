#!/usr/bin/env python3
"""End-to-end benchmark: how long a packet takes to become a flow, and where the time goes.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--quick] [--out FILE]

With ``--workload`` it runs that workload in this process and prints every
metric by name and unit, then one JSON object on the last line
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs all four, each in a fresh subprocess
(``--trace 1`` adds a second, traced pass per workload).  ``--out`` also
writes the full record, with provenance, as JSON; a traced pass writes its
spans beside it as ``*.trace.json``.  The exit code is non-zero when any
operation failed its check.

See README.md in this directory for the workloads, the metrics and how
they interact.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"

#: Measured seconds per run unless --seconds says otherwise (BENCHMARK.json run_seconds).
RUN_SECONDS = 15
QUICK_SECONDS = 1.5
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: The controller's periodic work (a stats poll and an expiry sweep per switch,
#: two LLDP rounds) repeats every simulated second.  Rates are the median over
#: whole simulated seconds of the timed region, so that every slice holds the
#: same periodic work and one noisy-neighbour stall does not move the result.
PERIOD = 1.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# -- counters read from outside ------------------------------------------------------------


def meters_of(host) -> list:
    """The syscall meter of root and of every registered process, each once."""
    meters = {id(host.root_sc.meter): host.root_sc.meter}
    for process in host.procs.processes():
        if process.sc is not None:
            meters[id(process.sc.meter)] = process.sc.meter
    return list(meters.values())


def meter_marks(host) -> list[tuple]:
    return [(meter, meter.counters.snapshot()) for meter in meters_of(host)]


def meter_deltas(marks: list[tuple]) -> dict[str, int]:
    """Counter increments since ``marks``, summed over all meters."""
    total: dict[str, int] = {}
    for meter, mark in marks:
        for name, amount in meter.counters.snapshot().delta(mark).items():
            total[name] = total.get(name, 0) + amount
    return total


def model_seconds(marks: list[tuple]) -> float:
    """The same increments priced by each meter's cost model, in simulated seconds."""
    return sum(meter.model.charge(meter.counters, mark) for meter, mark in marks)


def read_counts(workload) -> dict[str, float]:
    """Running totals of every per-layer count, from public attributes and /proc/counters."""
    from repro.shell import Shell

    ctl = workload.ctl
    host = ctl.host
    # An unregistered context: the operator's view, not billed to the controller.
    proc = {}
    for line in Shell(host.root_sc.spawn()).run("cat /proc/counters").splitlines():
        name, _, value = line.partition(" ")
        proc[name] = int(value)
    meters = meters_of(host)

    def metered(name: str) -> int:
        return sum(meter.counters.get(name) for meter in meters)

    dcache = host.vfs.root_ns.dcache
    apps = workload.apps()
    router = apps.get("router")
    acctd = apps.get("acctd")
    return {
        "sim.events": ctl.sim.dispatched,
        "dataplane.rx_frames": sum(port.rx_packets for sw in ctl.net.switches.values() for port in sw.ports.values()),
        "openflow.msgs": proc.get("openflow.tx", 0),
        "openflow.bytes": proc.get("openflow.tx_bytes", 0),
        "drivers.packet_ins": sum(d.packet_ins_handled for d in ctl.drivers),
        "drivers.flow_mods": sum(d.flow_mods_sent for d in ctl.drivers),
        "drivers.dropped_events": sum(b.dropped_events for d in ctl.drivers for b in d.bindings.values()),
        "vfs.open": metered("syscall.open") + metered("uring.open"),
        "vfs.bytes_copied": metered("bytes.copied"),
        "vfs.uring_submits": metered("syscall.io_uring_enter"),
        "vfs.uring_sqe": metered("uring.sqe"),
        "vfs.dcache_path_hits": dcache.path_hits,
        "vfs.dcache_path_misses": dcache.path_misses,
        "vfs.dcache_invalidations": dcache.invalidations,
        "vfs.notify_events": proc.get("notify.events", 0),
        "vfs.notify_coalesced": proc.get("notify.coalesced", 0),
        "vfs.notify_dropped": proc.get("notify.dropped", 0),
        "proc.dispatches": proc.get("proc.dispatches", 0),
        "proc.throttled": proc.get("proc.throttled", 0),
        "proc.crashes": proc.get("proc.crashes", 0),
        "apps.paths_installed": router.paths_installed if router else 0,
        "apps.floods": router.floods if router else 0,
        "apps.acct_samples": acctd.samples_taken if acctd else 0,
    }


# -- the timed region ------------------------------------------------------------------------


def run_ops(workload, seconds: float, min_ops: int, *, det_ops: int = 0, tracer=None) -> dict:
    """Closed loop, one client: op, think, op, ... for ``seconds`` (at least ``min_ops``).

    Meter deltas are taken over the first ``det_ops`` operations, a fixed
    number, so that they do not depend on how many operations the wall
    clock allowed.
    """
    sim = workload.ctl.sim
    wall_s: list[float] = []
    sim_s: list[float] = []
    ends: list[float] = []
    sim_ends: list[float] = []
    failed = 0
    det = None
    gc.collect()
    marks = meter_marks(workload.ctl.host)
    clock = time.perf_counter
    sim_start = sim.now
    start = clock()
    deadline = start + seconds
    index = 0
    while True:
        if tracer is not None:
            tracer.op_id = index
        issued_sim = sim.now
        issued = clock()
        ok = workload.op(index)
        wall_s.append(clock() - issued)
        sim_s.append(workload.sim_done - issued_sim)
        if not ok:
            failed += 1
        workload.idle()
        workload.note_tables()
        ends.append(clock())
        sim_ends.append(sim.now)
        index += 1
        if index == det_ops:
            det = meter_deltas(marks)
        if index >= min_ops and ends[-1] >= deadline:
            break
    rates = slice_rates(start, ends, [end - sim_start for end in sim_ends])
    return {
        "ops": index,
        "failed": failed,
        "wall_s": ends[-1] - start,
        "latency_s": wall_s,
        "sim_latency_s": sim_s,
        "ops_per_s": statistics.median(rates) if rates else index / (ends[-1] - start),
        "slices": len(rates),
        "det": det,
    }


def slice_rates(start: float, ends: list[float], sim_elapsed: list[float]) -> list[float]:
    """Operations per wall second in each complete ``PERIOD`` of simulated time.

    ``ends[i]`` is the wall clock and ``sim_elapsed[i]`` the simulated time
    since the start when operation ``i`` (and its think time) was over; an
    operation belongs to the slice it ends in, and the last, partial slice
    is left out.
    """
    rates = []
    first, opened = 0, start
    for i, elapsed in enumerate(sim_elapsed):
        if (elapsed - 1e-9) // PERIOD > len(rates) and i > first:
            rates.append((i - first) / (ends[i - 1] - opened))
            first, opened = i, ends[i - 1]
    return rates


def build(cls, seed: int, repeats: int):
    """Set the workload up ``repeats`` times; keep the last, report the median time."""
    times = []
    workload = None
    for _ in range(repeats):
        workload = None
        gc.collect()
        started = time.perf_counter()
        workload = cls(seed)
        times.append(time.perf_counter() - started)
    return workload, statistics.median(times)


def end_to_end_pass(cls, seed: int, seconds: float, quick: bool) -> tuple[dict, dict, list[str]]:
    """The untraced run every end-to-end metric comes from: (values, run, errors)."""
    det_ops = cls.det_ops[1 if quick else 0]
    workload, setup_s = build(cls, seed, 1 if quick else SETUP_REPEATS)
    run = run_ops(workload, seconds, det_ops, det_ops=det_ops)
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": run["ops_per_s"],
        "latency_p50_ms": statistics.median(run["latency_s"]) * 1e3,
        "latency_p75_ms": percentile(run["latency_s"], 0.75) * 1e3,
        "syscalls_per_op": run["det"].get("syscall.total", 0) / det_ops,
        "ctxsw_per_op": run["det"].get("ctxsw", 0) / det_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, run, workload.finish()


def per_layer_pass(cls, seed: int, seconds: float, quick: bool, trace_out: str | None) -> tuple[dict, dict, list[str]]:
    """Half the time untraced for the counts, half traced for the self times."""
    from spans import LAYERS, Tracer

    min_ops = max(5, cls.det_ops[1 if quick else 0] // 4)
    workload, _setup_s = build(cls, seed, 1)
    before = read_counts(workload)
    marks = meter_marks(workload.ctl.host)
    run = run_ops(workload, seconds / 2, min_ops)
    model_s = model_seconds(marks)
    after = read_counts(workload)
    errors = workload.finish()
    ops = run["ops"]
    values: dict[str, float] = {}
    delta = {key: after[key] - before[key] for key in before}
    hits, misses = delta.pop("vfs.dcache_path_hits"), delta.pop("vfs.dcache_path_misses")
    values["vfs.dcache_path_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("drivers.dropped_events", "vfs.notify_dropped", "proc.throttled", "proc.crashes"):
        values[key] = delta.pop(key)  # totals over the pass: expected 0
    for key, amount in delta.items():
        values[f"{key}_per_op"] = amount / ops
    values["perf.model_us_per_op"] = model_s * 1e6 / ops
    values["sim.latency_p50_ms"] = statistics.median(run["sim_latency_s"]) * 1e3
    values["dataplane.table_entries_max"] = workload.table_entries_max
    batches = getattr(workload, "install_s", {})
    for mechanism, key in (("file", "yancfs.file"), ("ring", "yancfs.ring"), ("fastpath", "libyanc.fastpath")):
        samples = batches.get(mechanism)
        values[f"{key}_batch_ms_p50"] = statistics.median(samples) * 1e3 if samples else 0.0

    # The traced half: the same operations on a fresh instance built with
    # the wrappers already in place (see spans.py for why).
    tracer = Tracer(keep_spans=trace_out is not None)
    tracer.install()
    try:
        traced_workload = cls(seed)
        tracer.active = True
        traced = run_ops(traced_workload, seconds / 2, min_ops, tracer=tracer)
        tracer.active = False
        errors += traced_workload.finish()
    finally:
        tracer.remove()
    for layer in LAYERS:
        values[f"{layer}.self_us_per_op"] = tracer.self_ns[layer] / 1e3 / traced["ops"]
        values[f"{layer}.calls_per_op"] = tracer.calls[layer] / traced["ops"]
    values["trace.overhead_ratio"] = (traced["wall_s"] / traced["ops"]) / (run["wall_s"] / ops)
    values["trace.coverage"] = sum(tracer.self_ns.values()) / 1e9 / traced["wall_s"]
    if trace_out is not None:
        tracer.write(trace_out)
    run["traced_ops"] = traced["ops"]
    run["traced_failed"] = traced["failed"]
    run["traced_wall_s"] = traced["wall_s"]
    return values, run, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, trace_out: str | None = None) -> dict:
    """One workload, one pass; returns the full record."""
    import metrics
    from workloads import WORKLOADS

    record = {**provenance(), "workload": name, "seed": seed, "quick": quick, "trace": trace, "seconds": seconds}
    if trace:
        values, run, errors = per_layer_pass(WORKLOADS[name], seed, seconds, quick, trace_out)
        definitions = metrics.PER_LAYER
    else:
        values, run, errors = end_to_end_pass(WORKLOADS[name], seed, seconds, quick)
        definitions = metrics.END_TO_END
    failed = run["failed"] + run.get("traced_failed", 0)
    record.update(
        correct=not failed and not errors,
        attempted=run["ops"] + run.get("traced_ops", 0),
        failed=failed,
        errors=errors,
        latency_samples=len(run["latency_s"]),
        rate_slices=run["slices"],
        timed_wall_s=run["wall_s"],
        traced_wall_s=run.get("traced_wall_s", 0.0),
        metrics={m.name: {"value": values[m.name], "unit": m.unit} for m in definitions},
    )
    return record


# -- provenance and output ------------------------------------------------------------------


def git_rev() -> str:
    """HEAD's commit, read from .git (the driver's checkout has none)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_average_at_start": os.getloadavg()[0],
    }


def print_record(record: dict) -> None:
    print(
        f"{record['workload']}  seed={record['seed']}  ops={record['attempted']}  failed={record['failed']}  "
        f"latency samples={record['latency_samples']}  timed {record['timed_wall_s']:.2f} s"
        + ("  QUICK: not comparable" if record["quick"] else "")
    )
    print(
        f"  git_rev={record['git_rev'][:12]}  python={record['python']}  nproc={record['nproc']}  "
        f"load average at start={record['load_average_at_start']:.2f}  whole simulated seconds={record['rate_slices']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}")
    for error in record["errors"]:
        print(f"  CHECK FAILED: {error}")


def run_all(args) -> int:
    """Every workload in its own subprocess; merge the records when --out is given."""
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONHASHSEED="0")
    merged = {**provenance(), "seed": args.seed, "quick": args.quick, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            part = None
            if args.out:
                part = str(Path(args.out).with_suffix("")) + f".{name}.json"
                command += ["--out", part]
            status = subprocess.run(command, env=env).returncode or status
            if part and os.path.exists(part):
                with open(part) as handle:
                    record = json.load(handle)
                os.remove(part)
                entry = merged["workloads"].setdefault(name, {"why": WORKLOADS[name].why})
                entry["per_layer" if trace else "end_to_end"] = record
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(merged, handle, indent=1)
            handle.write("\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated packets and flows (default 7)")
    parser.add_argument("--seconds", type=float, help=f"measured seconds per pass (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="1: the traced, per-layer pass")
    parser.add_argument("--quick", action="store_true", help=f"smoke test: {QUICK_SECONDS} s, one set-up; not comparable")
    parser.add_argument("--out", help="also write the full record(s) to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else RUN_SECONDS

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: the benchmark runs the program from source", file=sys.stderr)
        return 2
    sys.path[:0] = [path for path in (str(SRC), str(HERE)) if path not in sys.path]

    if not args.workload:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed hash seed: set iteration order, and with it wall time, repeats.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))

    trace_out = None
    if args.out and args.trace:
        trace_out = str(Path(args.out).with_suffix("")) + ".trace.json"
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, trace_out)
    print_record(record)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
