"""A memory ratchet: a controller left running retains no more as it runs.

A Clos fabric with the topology and accounting daemons churns one-shot
objects (packet-in messages, samples) forever.  Whatever it keeps must be
bounded, so over the last 20 of 40 simulated seconds the heap, as
``tracemalloc`` sees it, may grow by at most 0.05 MB per second.  A
resolution memo that pins deleted paths grows ~0.2 MB per second here.

Two bounded string memos (``VirtualFileSystem._parts_memo`` and
``Syscalls._abs_memo``, 4,096 entries each, emptied when full) saw by
megabytes; they are emptied before each reading so the reading shows what
is retained.  The resolution memo saws too, by design (it sweeps whenever
it has doubled), so growth is read off the lower envelope: the smallest
reading of the last ten seconds against that of the ten before.

The runtime tools (``YANCSAN=1``, ``YANCRACE=1``, ``YANCSEC=1``) keep every
inode they observe for the length of a test, by design, so this test
measures the program with them unsubscribed; every other test runs the
same daemons under them.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import YancController, build_clos
from repro.apps import AccountingDaemon, TopologyDaemon
from repro.perf import tracepoints
from repro.vfs.syscalls import Syscalls

WARM_UP_S = 20
MEASURED_S = 20
MAX_GROWTH_MB_PER_S = 0.05


@pytest.fixture
def program_alone():
    """Unsubscribe whatever runtime tools are on the bus for this test."""
    tools = list(tracepoints.subscribers)
    for tool in tools:
        tracepoints.unsubscribe(tool)
    yield
    for tool in tools:
        tracepoints.subscribe(tool)


def test_a_running_controller_retains_no_more_as_it_runs(program_alone):
    tracemalloc.start()
    try:
        ctl = YancController(build_clos(2, 4, hosts_per_leaf=2)).start()
        host = ctl.host
        TopologyDaemon(host.process(name="topod"), ctl.sim).start()
        AccountingDaemon(host.process(name="acctd"), ctl.sim, interval=1.0).start()
        ctl.run(WARM_UP_S)
        contexts = [obj for obj in gc.get_objects() if isinstance(obj, Syscalls)]
        readings = []
        for _ in range(MEASURED_S):
            ctl.run(1.0)
            host.vfs._parts_memo.clear()
            for sc in contexts:
                sc._abs_memo.clear()
            gc.collect()
            readings.append(tracemalloc.get_traced_memory()[0] / 2**20)
    finally:
        tracemalloc.stop()
    half = MEASURED_S // 2
    growth = (min(readings[half:]) - min(readings[:half])) / half
    assert growth <= MAX_GROWTH_MB_PER_S, [round(mb, 2) for mb in readings]
