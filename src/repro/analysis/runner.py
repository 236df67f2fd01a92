"""yanclint orchestration: run rules over files, filter, sort, format —
and yanclint's own row of the subcommand table (:func:`lint_flags`,
:func:`run_lint`)."""

from __future__ import annotations

import json

from repro.analysis.core import Finding, ProjectRule, Severity, all_rules


def analyze_sweep(
    sweep,
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Run every (selected) rule over a sweep's parsed sources; returns
    sorted findings, loader findings included."""
    findings: list[Finding] = []
    for rule_id, rule in all_rules().items():
        if select is not None and rule_id not in select:
            continue
        if ignore is not None and rule_id in ignore:
            continue
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(sweep))
        else:
            for src in sweep.sources:
                findings.extend(rule.check(src))
    by_path = {src.path: src for src in sweep.sources}
    kept = list(sweep.load_findings)
    for finding in findings:
        src = by_path.get(finding.path)
        if src is not None and src.is_suppressed(finding.rule, finding.line):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


def analyze_paths(
    paths: list[str],
    *,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Collect, parse, and analyze ``paths`` (files or directories)."""
    from repro.analysis.sweep import Sweep  # deferred: `import repro.analysis` stays light

    return analyze_sweep(Sweep(paths), select=select, ignore=ignore)


def format_findings(findings: list[Finding]) -> str:
    """Human-readable diagnostics plus a one-line summary."""
    lines = [f.format() for f in findings]
    errors = sum(1 for f in findings if f.severity >= Severity.ERROR)
    warnings = sum(1 for f in findings if f.severity == Severity.WARNING)
    if findings:
        lines.append(f"yanclint: {len(findings)} finding(s) ({errors} error(s), {warnings} warning(s))")
    else:
        lines.append("yanclint: clean")
    return "\n".join(lines)


def exit_code(findings: list[Finding]) -> int:
    """Nonzero when any finding is at WARNING severity or above."""
    return 1 if any(f.severity >= Severity.WARNING for f in findings) else 0


def lint_flags(parser) -> None:
    """yanclint's extra command-line options."""
    parser.add_argument("--select", help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true", help="print the rule registry and exit")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="diagnostic output format")


def run_lint(cmd, args) -> int:
    """The yanclint subcommand; returns the process exit code."""
    from repro.analysis.cli import ExitCode, finding_records, usage_error

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id:<18} {rule.severity.label:<8} {rule.description}")
        return ExitCode.CLEAN
    select = set(args.select.split(",")) if args.select else None
    ignore = set(args.ignore.split(",")) if args.ignore else None
    known = set(all_rules())
    unknown = ((select or set()) | (ignore or set())) - known
    if unknown:
        return usage_error(
            "yanclint",
            f"unknown rule(s): {', '.join(sorted(unknown))}",
            f"known rules: {', '.join(sorted(known))}",
        )
    findings = analyze_paths(args.paths or cmd.paths, select=select, ignore=ignore)
    if args.json or args.format == "json":
        print(json.dumps(finding_records(findings), indent=2))
    else:
        print(format_findings(findings))
    return exit_code(findings)
