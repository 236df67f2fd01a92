"""A work ratchet: the interpreter calls behind one fan-out and one flow write.

``syscalls_per_op`` cannot see what a crossing does; these counts can.
Each operation runs on a fresh :class:`~repro.runtime.ControllerHost`
(after one warm-up of the same shape) under ``sys.setprofile``, counting
Python-level calls.  The bounds are 1.1x the counts measured when a ring
entry stopped re-walking its object's path, re-entering the notify hub for
unwatched inodes and reading the clock through three frames (1304 and
941 calls); the code before that read 1755 and 1405, so a regression of
that size fails here before the end-to-end benchmark sees it.  The ring
entries are pinned exactly: an object's chain is its per-syscall steps
plus the directory's ``open(O_DIRECTORY)`` and ``close``.

A beacon fanned out to the topology daemon, the router and arpd, each
buffer carrying its app's declaration, is one object, not three: the
probe is a listing and a ``getxattr`` per buffer, and only topod's
buffer admits LLDP.  Its bound is 1.1x the 634 calls it made when the
declarations came in; before them the fan-out wrote all three objects
in 60 ring entries and 1,408 calls.

Trace-point subscribers (the runtime tools a tier-1 axis installs) are
set aside while counting: the ratchet prices the program, not its
observers.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.apps import ArpResponder, RouterDaemon, TopologyDaemon
from repro.dataplane import Match, Output
from repro.perf import tracepoints
from repro.runtime import ControllerHost
from repro.vfs.cred import ROOT
from repro.yancfs.client import YancClient, flow_spec_files, write_objects_batched
from repro.yancfs.translate import fan_out_packet_in

_APPS = ["a", "b", "c"]
_MATCH = Match(in_port=1, dl_type=0x0800, nw_proto=6, tp_src=1, tp_dst=80, dl_vlan=2)


@contextmanager
def _unobserved():
    """No trace-point subscriber for the duration (each is put back after)."""
    held = list(tracepoints.subscribers)
    for subscriber in held:
        tracepoints.unsubscribe(subscriber)
    try:
        yield
    finally:
        for subscriber in held:
            tracepoints.subscribe(subscriber)


def _calls(operation) -> int:
    """Python-level calls ``operation()`` makes, its own included."""
    calls = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    with _unobserved():
        sys.setprofile(profile)
        try:
            operation()
        finally:
            sys.setprofile(None)
    return calls


@pytest.fixture
def yc() -> YancClient:
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    for app in _APPS:
        yc.subscribe_events("s1", app)
    return yc


def _fan_out(yc: YancClient, seq: int) -> int:
    return yc.write_packet_in_batched("s1", _APPS, seq, in_port=1, reason="no_match", buffer_id=seq, total_len=4, data=b"ping")


def _flow(yc: YancClient, name: str) -> int:
    files = flow_spec_files(_MATCH, [Output(1), Output(2)], priority=5, idle_timeout=1, hard_timeout=2)
    assert len(files) + 1 == 12  # the spec files and the version
    return write_objects_batched(yc.sc, [(yc.flow_path("s1", name), files, "version")])


@pytest.mark.parametrize(
    "operation, objects, per_object, bound",
    [
        (_fan_out, 3, 1 + 3 * 5 + 1, 1.1 * 1304),  # mkdir, five files, rename
        (_flow, 1, 1 + 3 * 12, 1.1 * 941),  # mkdir, eleven spec files and the version
    ],
    ids=["packet_in_fan_out_to_3_apps", "flow_of_12_files"],
)
def test_the_work_behind_an_object_write_stays_ratcheted(yc, operation, objects, per_object, bound):
    assert operation(yc, 0) == objects  # warm-up: the ring, the memo, the first paths
    sqe = yc.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: operation(yc, 1))
    assert yc.sc.meter.counters.get("uring.sqe") - sqe == objects * (per_object + 2)
    assert calls <= bound, f"{calls} Python calls, bound {bound:.0f}"


_BEACON = TopologyDaemon._beacon("s2", 3)


@pytest.fixture
def declared() -> YancClient:
    yc = ControllerHost().client(cred=ROOT)
    yc.create_switch("s1")
    for app in (TopologyDaemon, RouterDaemon, ArpResponder):
        yc.subscribe_events("s1", app.app_name, app.dl_types)
    return yc


def _beacon_fan_out(yc: YancClient, seq: int) -> int:
    published, _dropped = fan_out_packet_in(yc.sc, yc, "s1", seq, in_port=1, reason="action", total_len=len(_BEACON), data=_BEACON)
    return published


def test_a_beacon_fan_out_writes_only_the_buffer_that_declared_lldp(declared):
    assert _beacon_fan_out(declared, 0) == 1  # warm-up
    sqe = declared.sc.meter.counters.get("uring.sqe")
    calls = _calls(lambda: _beacon_fan_out(declared, 1))
    assert declared.sc.meter.counters.get("uring.sqe") - sqe == 3 * 2 + (1 + 3 * 5 + 1) + 2 == 25
    assert declared.sc.listdir(declared.events_path("s1", "topod")) == ["pi_0", "pi_1"]
    assert declared.sc.listdir(declared.events_path("s1", "router")) == declared.sc.listdir(declared.events_path("s1", "arpd")) == []
    assert calls <= 1.1 * 634, f"{calls} Python calls, bound {1.1 * 634:.0f}"
