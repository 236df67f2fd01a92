"""Every example prints exactly its committed output, ``examples/expected/<name>.txt``.

The examples are deterministic (the simulator's clock, not the wall
clock, orders everything), so a change that moves what one prints shows
up as a diff of its golden file.  Each runs in its own
interpreter with ``PYTHONHASHSEED=0`` and none of the ``YANC*``
switches, so neither the hash seed nor a runtime tool the caller turned
on can colour the output.  To accept an intended change, regenerate the
file::

    PYTHONHASHSEED=0 PYTHONPATH=src python examples/<name>.py > examples/expected/<name>.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted(path.stem for path in (REPO / "examples").glob("*.py"))


def test_every_example_has_a_golden_file_and_every_golden_file_an_example():
    assert sorted(path.stem for path in (REPO / "examples" / "expected").glob("*.txt")) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_prints_its_golden_output(name):
    env = {key: value for key, value in os.environ.items() if not key.startswith("YANC")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run([sys.executable, str(REPO / "examples" / f"{name}.py")], cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (REPO / "examples" / "expected" / f"{name}.txt").read_text()
