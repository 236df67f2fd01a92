"""yancperf: interprocedural syscall-cost analysis over the shared
yancpath abstract interpreter.

Three front doors:

* :func:`analyze_yancperf` — the five amplification finding kinds
  (``syscall-in-loop``, ``path-reresolve``, ``linear-table-scan``,
  ``chatty-rpc``, ``readdir-then-stat``);
* :func:`~repro.analysis.yancperf.report.cost_report` — the ranked
  per-function cost table;
* :func:`~repro.analysis.yancperf.calibrate.run_calibration` — static
  bound vs. live :class:`~repro.perf.meter.SyscallMeter` counts.

:func:`run_cli` picks one of them from the ``yancperf`` command line.
"""

import json

from repro.analysis.yancperf.checker import KINDS, STORM_THRESHOLD, analyze_yancperf
from repro.analysis.yancperf.model import CostExpr, CostIndex, WEIGHTS



def cli_flags(parser) -> None:
    """yancperf's extra command-line options."""
    parser.add_argument("--report", action="store_true", help="rank functions by estimated syscalls per call")
    parser.add_argument("--top", type=int, default=30, metavar="N", help="rows shown by --report (default 30)")
    parser.add_argument(
        "--calibrate",
        action="store_true",
        help="boot the quickstart topology and check static bounds against live meter counts",
    )


def run_cli(cmd, args) -> int:
    """The yancperf subcommand: findings, ``--report`` or ``--calibrate``."""
    from repro.analysis.cli import ExitCode, run_tool, usage_error

    if args.report and args.calibrate:
        return usage_error("yancperf", "--report and --calibrate are mutually exclusive")
    if args.report:
        from repro.analysis.yancperf.report import cost_report, render_report

        rows = cost_report(args.paths or cmd.paths)
        shown, text, ok = rows[: args.top], render_report(rows, top=args.top), True
    elif args.calibrate:
        from repro.analysis.yancperf.calibrate import render_calibration, run_calibration

        rows = shown = run_calibration(args.paths or cmd.paths)
        text, ok = render_calibration(rows), all(row.ok for row in rows)
    else:
        return run_tool(cmd, args)
    print(json.dumps([row.to_json() for row in shown], indent=2) if args.json else text)
    return ExitCode.CLEAN if ok else ExitCode.FINDINGS


__all__ = [
    "KINDS",
    "STORM_THRESHOLD",
    "WEIGHTS",
    "CostExpr",
    "CostIndex",
    "analyze_yancperf",
]
