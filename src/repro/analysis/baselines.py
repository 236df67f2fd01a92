"""Baseline bookkeeping behind every subcommand's ``--baseline``/``--out``.

A baseline is a JSON list of finding records checked into the repo; a
sweep only *fails* on findings whose key is not in it.  Records are keyed
differently per kind of tool (static findings by ``(rule, path, line)``,
race findings by their sites since they have no stable line, ...), so the
key function travels with the one caller, ``cli.report_findings`` — this
module owns just the load/compare/write mechanics so the semantics
cannot drift between tools.
"""

from __future__ import annotations

import json
from typing import Callable


def load_baseline(path: str | None, key: Callable[[dict], tuple]) -> set[tuple]:
    """The key set of a baseline file; empty when no baseline is given."""
    if not path:
        return set()
    with open(path, encoding="utf-8") as fh:
        return {key(record) for record in json.load(fh)}


def split_fresh(
    records: list[dict], baseline_keys: set[tuple], key: Callable[[dict], tuple]
) -> list[dict]:
    """The records not covered by the baseline (the ones that fail a run)."""
    return [record for record in records if key(record) not in baseline_keys]


def write_records(path: str | None, records: list[dict]) -> None:
    """Write the full record list as an indented JSON baseline file."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


__all__ = ["load_baseline", "split_fresh", "write_records"]
