"""Calibration: the static cost model vs. live SyscallMeter counts.

``yancperf --calibrate`` boots the quickstart topology (three switches,
one host each), runs a handful of representative operations under fresh
:class:`~repro.perf.meter.SyscallMeter` contexts, and checks each one
against the statically-derived polynomial evaluated at the workload's
actual loop multiplicity ``n``.

The contract is one-sided by design: the model is an *upper bound*
(every branch assumed taken, one shared ``n`` across a function's
loops), so overestimation is expected — but a **live count above the
static bound means the model lost track of a metered operation** on
that path, and the run fails.  A zero static bound for a function that
demonstrably issues syscalls fails for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CalibrationRow:
    """One scenario's static-vs-live comparison."""

    function: str
    n: int  # the workload's actual loop multiplicity
    static: str  # rendered cost polynomial
    bound: int  # the polynomial evaluated at n
    live: int  # syscalls the SyscallMeter actually counted
    ok: bool
    note: str = ""

    def to_json(self) -> dict:
        return {
            "function": self.function,
            "n": self.n,
            "static": self.static,
            "bound": self.bound,
            "live": self.live,
            "ok": self.ok,
            "note": self.note,
        }


def run_calibration(paths: list[str]) -> list[CalibrationRow]:
    """Boot the quickstart topology and cross-check five hot functions."""
    from repro import FLOOD, Match, Output, YancController, build_linear
    from repro.analysis.sweep import Sweep
    from repro.analysis.yancperf.model import CostIndex
    from repro.perf.meter import SyscallMeter
    from repro.shell import Shell
    from repro.yancfs.client import YancClient, flow_spec_files

    index = CostIndex(Sweep(paths))

    net = build_linear(3, hosts_per_switch=1)
    ctl = YancController(net).start()
    #: Setup traffic (staging flows, filling event buffers) rides a
    #: throwaway meter so only the measured call is billed.
    quiet = YancClient(ctl.host.root_sc.spawn(meter=SyscallMeter()))

    rows: list[CalibrationRow] = []

    def measure(class_name: str | None, func_name: str, scenario) -> None:
        qualname = f"{class_name}.{func_name}" if class_name else func_name
        decl = index.find(class_name, func_name)
        if decl is None:
            rows.append(
                CalibrationRow(qualname, 0, "?", 0, 0, False, "not in analyzed tree")
            )
            return
        cost = index.cost(decl)
        meter = SyscallMeter()
        sc = ctl.host.root_sc.spawn(meter=meter)
        before = meter.syscalls
        n = scenario(sc)
        live = meter.syscalls - before
        bound = cost.evaluate(max(n, 1))
        ok = bound > 0 and live <= bound
        note = "" if ok else ("static bound is zero" if bound <= 0 else "live exceeds static bound")
        rows.append(CalibrationRow(qualname, n, cost.render(), bound, live, ok, note))

    def create_flow(sc) -> int:
        match = Match(dl_type=0x0800)
        actions = [Output(FLOOD)]
        YancClient(sc).create_flow("sw1", "cal_flow", match, actions, priority=7)
        return len(flow_spec_files(match, actions, priority=7))  # the one loop: a write per spec file

    def create_flows_batched(sc) -> int:
        entries = [(f"cal_batch{k}", Match(dl_type=0x0800, in_port=k + 1), [Output(FLOOD)]) for k in range(4)]
        YancClient(sc).create_flows_batched("sw1", entries, priority=3)
        return len(entries)  # the one loop: a chain per flow, live io_uring_setup + io_uring_enter

    def read_flow(sc) -> int:
        quiet.create_flow("sw2", "cal_rf", Match(dl_type=0x0800, nw_proto=6), [Output(FLOOD)], priority=5)
        YancClient(sc).read_flow("sw2", "cal_rf")
        return len(quiet.sc.listdir(quiet.flow_path("sw2", "cal_rf")))

    def read_events(sc) -> int:
        quiet.subscribe_events("sw3", "calapp")
        for seq in range(3):
            quiet.write_packet_in(
                "sw3", "calapp", seq, in_port=1, reason="no_match",
                buffer_id=seq, total_len=4, data=b"ping",
            )
        return len(YancClient(sc).read_events("sw3", "calapp"))

    def cmd_ls(sc) -> int:
        Shell(sc).cmd_ls(["-l", "/net/switches"])
        return len(quiet.sc.listdir("/net/switches"))

    measure("YancClient", "create_flow", create_flow)
    measure("YancClient", "create_flows_batched", create_flows_batched)
    measure("YancClient", "read_flow", read_flow)
    measure("YancClient", "read_events", read_events)
    measure("Shell", "cmd_ls", cmd_ls)
    return rows


def render_calibration(rows: list[CalibrationRow]) -> str:
    """Text table, one scenario per line, with the pass/fail verdict."""
    failed = [row for row in rows if not row.ok]
    lines = [
        "yancperf calibration: static upper bound vs. live SyscallMeter counts"
    ]
    name_width = max((len(row.function) for row in rows), default=8)
    static_width = max((len(row.static) for row in rows), default=6)
    lines.append(
        f"{'function':<{name_width}}  {'n':>3}  {'static':<{static_width}}  "
        f"{'bound':>6}  {'live':>6}  verdict"
    )
    for row in rows:
        verdict = "ok" if row.ok else f"FAIL ({row.note})"
        lines.append(
            f"{row.function:<{name_width}}  {row.n:>3}  {row.static:<{static_width}}  "
            f"{row.bound:>6}  {row.live:>6}  {verdict}"
        )
    lines.append(
        f"yancperf: {len(rows) - len(failed)}/{len(rows)} scenario(s) within the static bound"
    )
    return "\n".join(lines)


__all__ = ["CalibrationRow", "render_calibration", "run_calibration"]
