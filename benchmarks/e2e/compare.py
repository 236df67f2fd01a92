#!/usr/bin/env python3
"""Compare benchmark records: base runs against new runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json [A2.json B2.json ...]

Arguments come in pairs, base then new, each a file written by
``run.py --out`` (all four workloads, or one).  Prints one row per
workload and end-to-end metric — base median, new median, their ratio,
the metric's bound, the run-to-run spread and a verdict:

``worse``       the new median is worse than the base median by more than the bound
``improved``    every new run reads better than every base run, by more than the spread
``unresolved``  the spread between runs of one side exceeds the bound, so neither can be said
``unchanged``   otherwise

``improved`` and ``unresolved`` need at least three runs a side.  The exit
code is non-zero when any row is ``worse`` or the new side failed a larger
share of its operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END  # noqa: E402


def load(path: str) -> dict[str, dict]:
    """workload -> its end-to-end record, from a merged or a single-workload file."""
    with open(path) as handle:
        data = json.load(handle)
    if "workloads" in data:
        return {name: entry["end_to_end"] for name, entry in data["workloads"].items() if "end_to_end" in entry}
    if data.get("trace"):
        return {}
    return {data["workload"]: data}


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median (the range, for three runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, the larger run-to-run spread of the two sides)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_median - base_median) / base_median
    noise = max(spread(base), spread(new))
    enough = min(len(base), len(new)) >= 3
    if enough and min(sign * v for v in new) > max(sign * v for v in base) and worse_by > bound:
        return "worse", noise
    if enough and max(sign * v for v in new) < min(sign * v for v in base) and -worse_by > noise:
        return "improved", noise
    if enough and noise > bound:
        return "unresolved", noise
    if worse_by > bound:
        return "worse", noise
    return "unchanged", noise


def compare(base_files: list[str], new_files: list[str]) -> tuple[list[tuple], bool]:
    """Rows of the comparison table, and whether anything regressed."""
    sides = []
    for files in (base_files, new_files):
        runs: dict[str, list[dict]] = {}
        for path in files:
            for workload, record in load(path).items():
                runs.setdefault(workload, []).append(record)
        sides.append(runs)
    base_runs, new_runs = sides
    rows = []
    regressed = False
    for workload in base_runs:
        if workload not in new_runs:
            continue
        for metric in END_TO_END:
            base = [run["metrics"][metric.name]["value"] for run in base_runs[workload]]
            new = [run["metrics"][metric.name]["value"] for run in new_runs[workload]]
            outcome, noise = verdict(base, new, metric.better, metric.bound)
            base_median, new_median = statistics.median(base), statistics.median(new)
            rows.append((workload, metric.name, metric.unit, base_median, new_median, new_median / base_median, metric.bound, noise, outcome))
            regressed |= outcome == "worse"
        shares = [
            sum(run["failed"] for run in runs[workload]) / sum(run["attempted"] for run in runs[workload])
            for runs in (base_runs, new_runs)
        ]
        outcome = "worse" if shares[1] > shares[0] else "unchanged"
        rows.append((workload, "failed_share", "ratio", shares[0], shares[1], float("nan"), 0.0, 0.0, outcome))
        regressed |= outcome == "worse"
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    files = sys.argv[1:] if argv is None else argv
    if not files or len(files) % 2 or files[0] in ("-h", "--help"):
        print(__doc__)
        return 2
    rows, regressed = compare(files[0::2], files[1::2])
    print(f"{'workload':<17} {'metric':<17} {'unit':<6} {'base':>13} {'new':>13} {'ratio':>7} {'bound':>6} {'spread':>7}  verdict")
    for workload, name, unit, base, new, ratio, bound, noise, outcome in rows:
        print(f"{workload:<17} {name:<17} {unit:<6} {base:>13.4f} {new:>13.4f} {ratio:>7.3f} {bound:>6.2f} {noise:>7.3f}  {outcome}")
    counts = {outcome: sum(1 for row in rows if row[-1] == outcome) for outcome in ("improved", "unchanged", "unresolved", "worse")}
    print("  ".join(f"{outcome}: {count}" for outcome, count in counts.items()))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
