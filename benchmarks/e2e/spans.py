"""Per-layer spans recorded from outside the program.

Tracing inside ``src/`` is a later change (ROADMAP item 2); until then the
benchmark wraps each layer's entry points from here.  A layer is a
``src/repro`` package name.  ``Tracer.install()`` replaces the listed
methods and module functions with recording wrappers and
``Tracer.remove()`` puts the originals back.

Install *before* building the workload: the program stores bound methods
as callbacks (``conn.on_data = binding.on_data``, ``sim.every(...,
self.sample)``), and a bound method captured before the class was patched
keeps calling the original.

A span is (name, layer, start_ns, end_ns, parent span, op id).  A layer's
self time is its spans' duration minus the part covered by child spans;
it is accumulated as spans close, so the span list itself may be capped
(it is only kept at all when a trace file was asked for).  Time spent in
functions that are not wrapped is self time of the nearest wrapped
caller, which is why a few private methods that are a layer's only way in
(``SwitchAgent._on_data``, ``Process._dispatch``) are listed too.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = (
    "sim",
    "dataplane",
    "netpkt",
    "openflow",
    "controlchannel",
    "drivers",
    "yancfs",
    "vfs",
    "vfs.uring",
    "vfs.notify",
    "proc",
    "apps",
    "libyanc",
    "shell",
)

#: Spans kept for the trace file; self times and call counts cover all spans.
MAX_SPANS_KEPT = 250_000


def _public(cls, *, skip: tuple[str, ...] = ()) -> list[str]:
    """Plain public methods defined on ``cls`` itself (no generators)."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and name not in skip
        and inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
    ]


def _trace_points() -> list[tuple[str, object, list[str]]]:
    """(layer, class or module, attribute names) for every wrapped entry point."""
    from repro.apps import accounting, arp, base, router, topology
    from repro.controlchannel.channel import ControlConnection
    from repro.dataplane.flowtable import FlowTable
    from repro.dataplane.host import HostSim
    from repro.dataplane.switch import PortSim, SwitchSim
    from repro.drivers.openflow_driver import OpenFlowDriver, SwitchBinding
    from repro.libyanc.fastpath import LibYanc
    from repro.libyanc.shmring import ShmRing
    from repro.netpkt import packet
    from repro.openflow import of10, of13
    from repro.openflow.agent import SwitchAgent
    from repro.proc.process import Process, ProcessTable
    from repro.shell.toolbox import Shell
    from repro.sim.clock import Simulator
    from repro.vfs.notify import Inotify, NotifyHub
    from repro.vfs.syscalls import Syscalls
    from repro.vfs.uring import IoUring
    from repro.yancfs import schema
    from repro.yancfs.client import YancClient

    points: list[tuple[str, object, list[str]]] = [
        ("sim", Simulator, ["step", "run", "run_until", "run_for"]),
        ("dataplane", PortSim, ["handle_frame"]),
        ("dataplane", HostSim, ["handle_frame", "send_udp", "ping"]),
        ("dataplane", SwitchSim, ["install_flow", "delete_flows", "packet_out"]),
        ("dataplane", FlowTable, ["lookup", "install", "delete", "modify", "expire"]),
        ("netpkt", packet, ["parse_frame", "build_frame"]),
        ("netpkt", packet.ParsedFrame, ["repack"]),
        ("openflow", of10, ["encode", "decode"]),
        ("openflow", of13, ["encode", "decode"]),
        ("openflow", SwitchAgent, ["start", "detach", "packet_in", "flow_removed", "port_status", "_on_data"]),
        ("controlchannel", ControlConnection, ["send", "_deliver", "close"]),
        ("drivers", SwitchBinding, ["send", "on_data", "close"]),
        (
            "drivers",
            OpenFlowDriver,
            ["attach_switch", "detach_switch", "on_event", "handle_message", "_poll_stats"],
        ),
        # Path builders are string formatting, cheaper than a span.
        (
            "yancfs",
            YancClient,
            _public(YancClient, skip=("switch_path", "flow_path", "port_path", "events_path", "view_path", "in_view")),
        ),
        ("vfs", Syscalls, _public(Syscalls, skip=("getcwd", "spawn"))),
        ("vfs.uring", IoUring, ["prep", "prep_write_file", "submit", "completions"]),
        ("vfs.notify", NotifyHub, ["emit", "emit_dirent"]),
        ("vfs.notify", Inotify, ["add_watch", "rm_watch", "read"]),
        ("proc", Process, ["start", "stop", "watch", "unwatch", "on_readable", "_dispatch"]),
        ("proc", ProcessTable, ["spawn", "register", "charge_cpu"]),
        ("libyanc", LibYanc, _public(LibYanc)),
        ("libyanc", ShmRing, ["put", "put_copy", "get", "drain"]),
        ("shell", Shell, ["run"]),
    ]
    # The schema's policy hooks run inside vfs calls; they are yancfs work.
    hooks = ("may_create", "may_remove", "child_factory", "on_child_attached", "populate", "on_close_write", "set_validated_content")
    for cls in vars(schema).values():
        if inspect.isclass(cls) and cls.__module__ == schema.__name__:
            points.append(("yancfs", cls, [name for name in hooks if name in vars(cls)]))
    for module in (base, topology, router, arp, accounting):
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and issubclass(cls, base.YancApp):
                points.append(("apps", cls, _public(cls)))
    return points


class Tracer:
    """Records spans while ``active``; otherwise the wrappers call straight through."""

    def __init__(self, *, keep_spans: bool = False) -> None:
        self.active = False
        self.op_id = -1
        self.keep_spans = keep_spans
        self.spans: list[tuple | None] = []
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._child_ns: list[int] = []  # one accumulator per open span
        self._open: list[int] = []  # indices of the open spans that are kept
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        child_ns = self._child_ns
        open_spans = self._open
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            kept = self.keep_spans and len(spans) < MAX_SPANS_KEPT
            if kept:
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append(None)
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                below = child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration
                self_ns[layer] += duration - below
                calls[layer] += 1
                if kept:
                    spans[open_spans.pop()] = (name, layer, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every trace point.  Call before the workload is built."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for layer, owner, names in _trace_points():
            for name in names:
                original = vars(owner)[name]
                label = f"{getattr(owner, '__name__', owner)}.{name}".removeprefix("repro.")
                wrapper = self.wrap(original, label, layer)
                if inspect.ismodule(owner):
                    # Imported by name elsewhere: rebind every copy.
                    for module in list(sys.modules.values()):
                        if getattr(module, "__name__", "").startswith("repro") and vars(module).get(name) is original:
                            self._set(module, name, wrapper, original)
                else:
                    self._set(owner, name, wrapper, original)
        # Periodic tasks enter a process through the closure _guarded returns.
        from repro.proc.process import Process

        guarded = Process._guarded

        def traced_guarded(process, fn):
            return self.wrap(guarded(process, fn), "proc.Process.task", "proc")

        self._set(Process, "_guarded", traced_guarded, guarded)

    def _set(self, owner, name: str, wrapper, original) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def remove(self) -> None:
        """Put every original back."""
        self.active = False
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump the kept spans (and the totals over all spans) as JSON."""
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
                    "spans_kept": len(self.spans),
                    "spans_total": sum(self.calls.values()),
                    "self_ns": self.self_ns,
                    "calls": self.calls,
                    "spans": [span for span in self.spans if span is not None],
                },
                out,
            )
