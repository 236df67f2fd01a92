#!/usr/bin/env python3
"""Which functions in ``src/`` does nothing run?  A coverage sweep by ``sys.setprofile``.

    PYTHONPATH=src python benchmarks/sweep_unreached.py [--list] [--json FILE]

The reach set is what the project runs for a user, not its unit tests:

* every ``examples/*.py``;
* each end-to-end workload, ``benchmarks/e2e/run.py --workload NAME --quick``;
* the experiment benches CI runs, ``bench_e*.py`` and ``bench_ablations.py``
  under pytest with timing disabled.

Each runs in its own interpreter (``PYTHONHASHSEED=0``, no ``YANC*``
switches) under a profile hook that records the code object of every
Python call.  A function is *outermost* when no other function encloses
it: a module-level function, or a method of a class that is not inside a
function; whatever it nests is counted in its lines and not on its own.
The sweep prints how many outermost functions under ``src/repro``, outside
``analysis/`` (the tools judge source, so no run above reaches most of
them), no run called, and their lines (decorators included); ``--list``
prints each one as ``path:line name (lines)``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
WORKLOADS = ("reactive_fattree", "forward_fattree", "bulk_campus", "monitor_clos")


def reach_set() -> list[list[str]]:
    """Every run of the sweep, as the child command that performs it."""
    runs = [["script", str(path)] for path in sorted((REPO / "examples").glob("*.py"))]
    runs += [["script", str(REPO / "benchmarks" / "e2e" / "run.py"), "--workload", name, "--quick"] for name in WORKLOADS]
    benches = sorted(str(path) for path in (REPO / "benchmarks").glob("bench_e*.py"))
    runs.append(["pytest", *benches, str(REPO / "benchmarks" / "bench_ablations.py"), "--benchmark-disable", "-q", "-p", "no:cacheprovider"])
    return runs


def child(out: str, kind: str, args: list[str]) -> None:
    """Run one member of the reach set under the profile hook; write the ``[file, first line]`` of every code object called."""
    seen: set = set()

    def hook(frame, event, _arg) -> None:
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        if kind == "script":
            sys.argv = list(args)
            runpy.run_path(args[0], run_name="__main__")
        else:
            import pytest

            pytest.main(args)
    except SystemExit:
        pass
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    called = sorted({(code.co_filename, code.co_firstlineno) for code in seen if code.co_filename.startswith(str(SRC))})
    Path(out).write_text(json.dumps(called))


def outermost(path: Path) -> list[tuple[int, int, str]]:
    """``(first line, lines, qualified name)`` of every outermost function in ``path``; the first line is a decorator's when there is one."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for item in ast.iter_child_nodes(node):
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([item.lineno] + [decorator.lineno for decorator in item.decorator_list])
                found.append((first, item.end_lineno - first + 1, prefix + item.name))
            elif isinstance(item, ast.ClassDef):
                visit(item, f"{prefix}{item.name}.")

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--list", action="store_true", help="print every unreached function")
    parser.add_argument("--json", help="also write the unreached functions to this file")
    parser.add_argument("--child", nargs=2, metavar=("OUT", "KIND"), help=argparse.SUPPRESS)
    args, rest = parser.parse_known_args()
    if args.child:
        child(args.child[0], args.child[1], rest)
        return 0
    env = {key: value for key, value in os.environ.items() if not key.startswith("YANC")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(REPO / "src")
    called: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        for index, (kind, *command) in enumerate(reach_set()):
            out = Path(scratch) / f"{index}.json"
            subprocess.run([sys.executable, __file__, "--child", str(out), kind, *command], cwd=REPO, env=env, stdout=subprocess.DEVNULL, check=False)
            if not out.exists():
                print(f"run failed: {kind} {' '.join(command)}", file=sys.stderr)
                return 1
            called |= {(path, line) for path, line in json.loads(out.read_text())}
    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "analysis") in path.parents:
            continue
        for first, lines, name in outermost(path):
            if (str(path), first) not in called:
                unreached.append((str(path.relative_to(REPO)), first, name, lines))
    if args.list:
        for path, first, name, lines in unreached:
            print(f"{path}:{first} {name} ({lines})")
    print(f"unreached outermost functions outside analysis/: {len(unreached)} ({sum(row[3] for row in unreached)} lines)")
    if args.json:
        Path(args.json).write_text(json.dumps(unreached, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
