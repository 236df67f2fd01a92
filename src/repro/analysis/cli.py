"""The analysis command line: ``python -m repro.analysis [SUBCOMMAND] [...]``.

Seven subcommands share one entry point, one parser builder and one
table (:data:`COMMANDS`; each row's ``description`` is its ``--help``):

* ``python -m repro.analysis [paths...]`` — **yanclint**, the static
  checker (the historical default, no subcommand word needed);
* ``python -m repro.analysis race workload.py [args...]`` — **yancrace**,
  a workload under the happens-before race detector;
* ``python -m repro.analysis yancpath [paths...]`` — **yancpath**, the
  whole-program path & typestate analyzer;
* ``python -m repro.analysis yancperf [paths...]`` — **yancperf**, the
  syscall-cost analyzer, its ``--report`` ranking and ``--calibrate``;
* ``python -m repro.analysis yanccrash [paths...]`` — **yanccrash**, the
  crash-consistency analyzer; ``--explore workload.py`` model-checks
  every crash prefix of the workload's durable-op trace instead;
* ``python -m repro.analysis yancsec [paths...]`` — **yancsec**, the
  capability & tenant-isolation analyzer; ``--monitor workload.py`` runs
  the workload under the runtime reference monitor instead;
* ``python -m repro.analysis all [paths...]`` — yanclint's rules and all
  four judges over **one** :class:`~repro.analysis.sweep.Sweep`: one
  load, one interpretation, one ``(rule, path, line)`` baseline;
  ``--json`` prints one record list per tool.

The four interpreter-based tools share :func:`run_tool`; ``race``,
``--explore`` and ``--monitor`` share :func:`run_workload`, where the
positionals after the workload are the workload's own ``sys.argv[1:]``.

Every subcommand follows the 0/1/2/3 exit-code discipline of :class:`ExitCode`.
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import runpy
import sys
from dataclasses import dataclass
from typing import Callable

from repro.analysis import baselines, yancperf
from repro.analysis.core import Finding
from repro.analysis.race import RaceDetector
from repro.analysis.runner import analyze_sweep, lint_flags, run_lint
from repro.analysis.sweep import JUDGES, Sweep
from repro.analysis.yanccrash.recorder import CrashRecorder
from repro.analysis.yancsec.monitor import SecurityMonitor


class ExitCode(enum.IntEnum):
    """The 0/1/2/3 discipline every analysis subcommand follows."""

    CLEAN = 0
    FINDINGS = 1  # races / diagnostics at warning or above, not covered by a baseline
    USAGE = 2  # unknown rule, bad arguments
    INTERNAL = 3  # the analyzer itself, or the workload, crashed


def usage_error(tool: str, *lines: str) -> int:
    """Report a usage problem on stderr; returns ``ExitCode.USAGE``."""
    for line in lines:
        print(f"{tool}: {line}", file=sys.stderr)
    return ExitCode.USAGE


def finding_records(findings: list[Finding]) -> list[dict]:
    """The JSON-ready form of static findings (what ``--json`` prints)."""
    return [f.__dict__ | {"severity": f.severity.label} for f in findings]


def _static_key(record: dict) -> tuple:
    """Rule ids are unique across tools, so one identity serves them all."""
    return (record.get("rule", ""), record.get("path", ""), record.get("line", 0))


def _static_render(rec: dict, marker: str) -> str:
    return (
        f"{rec['path']}:{rec['line']}:{rec['col']}: "
        f"{rec['severity']} [{rec['rule']}]{marker} {rec['message']}"
    )


def report_findings(
    tool: str,
    records: list[dict],
    args: argparse.Namespace,
    *,
    key: Callable[[dict], tuple] = _static_key,
    render: Callable[[dict, str], str] = _static_render,
    payload: object = None,
) -> int:
    """Shared emission + verdict: ``--baseline`` filtering, ``--out``, JSON/text.

    ``records`` are JSON-ready finding dicts; ``key`` makes them
    comparable against a baseline file; ``render`` formats one record for
    the text output (second argument is the ``" (baseline)"`` marker or
    ``""``); ``payload`` is what ``--json`` prints when that is not the
    record list itself.  Returns ``FINDINGS`` when any record survives the
    baseline, else ``CLEAN`` — the usage/internal codes come from the
    caller and :func:`main` respectively.
    """
    baseline_keys = baselines.load_baseline(args.baseline, key)
    fresh = baselines.split_fresh(records, baseline_keys, key)
    baselines.write_records(args.out, records)
    if args.json:
        print(json.dumps(records if payload is None else payload, indent=2))
    else:
        for rec in records:
            marker = " (baseline)" if key(rec) in baseline_keys else ""
            print(render(rec, marker))
        suppressed = len(records) - len(fresh)
        tail = f" ({suppressed} in baseline)" if suppressed else ""
        print(f"{tool}: {len(fresh)} finding(s){tail}")
    return ExitCode.FINDINGS if fresh else ExitCode.CLEAN


def run_workload(cmd: "Command", args: argparse.Namespace) -> int:
    """Run ``args.workload`` as ``__main__`` under the row's trace-point
    subscriber and report what it saw; ``args.paths`` are the workload's
    own ``sys.argv[1:]``.

    A subscriber brings ``install``/``uninstall``/``reset``, ``report()``
    (JSON-ready records plus epilogue lines, asked for once it is off the
    bus), ``record_key``, ``render`` and optionally ``ENV``, a variable set
    to ``1`` while the workload runs.  ``sys.argv``, the variable and the
    bus are restored, and the subscriber reset, on every exit path; a
    non-zero ``SystemExit`` from the workload is ``ExitCode.INTERNAL``
    (any other exception reaches :func:`main`).
    """
    subscriber = cmd.subscriber()
    env = getattr(subscriber, "ENV", None)
    saved_argv, saved_env = sys.argv, os.environ.get(env) if env else None
    status = None
    subscriber.install()
    try:
        sys.argv = [args.workload, *args.paths]
        if env:
            os.environ[env] = "1"
        try:
            runpy.run_path(args.workload, run_name="__main__")
        except SystemExit as exc:
            status = exc.code
        finally:
            sys.argv = saved_argv
            if saved_env is not None:
                os.environ[env] = saved_env
            elif env:
                os.environ.pop(env, None)
            subscriber.uninstall()
        if status not in (None, 0):
            print(f"{cmd.prog}: workload exited with {status}", file=sys.stderr)
            return ExitCode.INTERNAL
        records, epilogue = subscriber.report()
    finally:
        subscriber.reset()
    code = report_findings(cmd.prog, records, args, key=subscriber.record_key, render=subscriber.render)
    if not args.json:
        for line in epilogue:
            print(line)
    return code


def run_tool(cmd: "Command", args: argparse.Namespace) -> int:
    """The row's judge over one sweep — or, when a workload is named, the
    row's subscriber over one run of it."""
    if getattr(args, "workload", None):
        return run_workload(cmd, args)
    findings = JUDGES[cmd.name].analyze(args.paths or cmd.paths)
    return report_findings(cmd.prog, finding_records(findings), args)


def _all(cmd: "Command", args: argparse.Namespace) -> int:
    sweep = Sweep(args.paths or cmd.paths)
    sections = {"yanclint": analyze_sweep(sweep)}
    sections |= {name: sweep.report(judge) for name, judge in JUDGES.items()}
    merged = sorted(set().union(*sections.values()), key=Finding.sort_key)
    payload = {tool: finding_records(findings) for tool, findings in sections.items()}
    return report_findings(cmd.prog, finding_records(merged), args, payload=payload)


@dataclass(frozen=True)
class Command:
    """One row of the subcommand table."""

    name: str  # the subcommand word ("" = the default, yanclint)
    prog: str  # usage/summary label; its first word is the console script
    description: str
    paths: list[str] | None  # default source paths; None = the positional is a workload
    run: Callable[["Command", argparse.Namespace], int] = run_tool
    flags: Callable[[argparse.ArgumentParser], None] | None = None  # extra options
    subscriber: type | None = None  # what a workload runs under (see run_workload)
    workload_flag: str | None = None  # the option naming that workload, when not the positional


_SRC = ["src", "examples"]

COMMANDS = (
    Command(
        "",
        "yanclint",
        "Static invariant checker for the yanc reproduction (determinism, "
        "vfs-bypass, error-discipline, schema coverage, hygiene).",
        ["src", "tests", "examples"],
        run_lint,
        lint_flags,
    ),
    Command(
        "race",
        "yancrace",
        "Run a Python workload under the happens-before race detector and report "
        "unsynchronized accesses, torn commits, and reads of uncommitted flow state.",
        None,
        subscriber=RaceDetector,
    ),
    Command(
        "yancpath",
        "yancpath",
        "Whole-program path & typestate analysis: every syscall site's path is checked "
        "against a namespace grammar derived from yancfs/schema.py, plus §3.4 "
        "commit-protocol and fd-lifecycle typestate checks.",
        _SRC,
    ),
    Command(
        "yancperf",
        "yancperf",
        "Interprocedural syscall-cost analysis: per-function cost polynomials "
        "(loop-depth multipliers, callee rollup) plus syscall-amplification findings "
        "(syscall-in-loop, path-reresolve, linear-table-scan, chatty-rpc, readdir-then-stat).",
        _SRC,
        yancperf.run_cli,
        yancperf.cli_flags,
    ),
    Command(
        "yanccrash",
        "yanccrash",
        "Crash-consistency analysis for the commit/publication surfaces: a static "
        "persistence-effect pass (publish-before-data, non-atomic-publish, "
        "commit-outside-chain, unrecovered-staging) plus, with --explore, a crash-point "
        "model checker that replays every crash prefix of a workload's durable-op trace.",
        _SRC,
        subscriber=CrashRecorder,
        workload_flag="--explore",
    ),
    Command(
        "yancsec",
        "yancsec",
        "Capability & tenant-isolation analysis: a taint lattice over tenant-reachable "
        "reads plus per-function credential summaries judge every syscall site "
        "(tainted-path, root-ambient, missing-acl, slice-escape, unauthenticated-rpc); "
        "with --monitor, a runtime reference monitor on the Syscalls choke points runs a "
        "workload and reports isolation violations and access tuples.",
        _SRC,
        subscriber=SecurityMonitor,
        workload_flag="--monitor",
    ),
    Command(
        "all",
        "yanclint all",
        "yanclint's rules plus the yancpath, yancperf, yanccrash and yancsec judges "
        "over one load and one interpretation of the sources.",
        _SRC,
        _all,
    ),
)


def build_parser(cmd: Command) -> argparse.ArgumentParser:
    """The one parser shape: positionals, the shared flags, the row's extras."""
    parser = argparse.ArgumentParser(prog=cmd.prog, description=cmd.description)
    if cmd.paths is None:
        parser.add_argument("workload", help="Python script to execute (e.g. examples/quickstart.py)")
        parser.add_argument("paths", nargs="*", metavar="args", help="arguments passed to the workload")
    else:
        parser.add_argument(
            "paths", nargs="*", help=f"files or directories to analyze (default: {' '.join(cmd.paths)})"
        )
    parser.add_argument("--json", action="store_true", help="emit findings as JSON")
    if cmd.name:  # the default command, yanclint, has no baseline: the shipped tree is simply clean
        parser.add_argument("--baseline", help="JSON findings file; only findings not in it fail the run")
        parser.add_argument("--out", help="write the findings JSON to this file as well")
    if cmd.workload_flag:
        parser.add_argument(
            cmd.workload_flag,
            dest="workload",
            metavar="WORKLOAD",
            help=f"run this Python workload under a {cmd.subscriber.__name__} instead of "
            "analyzing sources; positional arguments are passed to the workload",
        )
    if cmd.flags is not None:
        cmd.flags(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    cmd = next((c for c in COMMANDS[1:] if argv[:1] == [c.name]), COMMANDS[0])
    try:
        return cmd.run(cmd, build_parser(cmd).parse_args(argv[1:] if cmd.name else argv))
    except SystemExit:
        raise  # argparse usage errors keep their exit code (2)
    except Exception as exc:  # noqa: BLE001 — CLI boundary: crash means code 3, not a traceback-as-UX
        print(f"repro.analysis: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ExitCode.INTERNAL


def entry() -> int:
    """The one console-script entry: ``yancpath [...]`` is ``yanclint yancpath [...]``."""
    script = os.path.basename(sys.argv[0])
    word = [c.name for c in COMMANDS[1:] if c.prog == script]
    return main(word + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
