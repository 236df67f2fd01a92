"""The distributed controller: worker machines over a remote-mounted /net.

Reproduces the paper's section 6 proof of concept: the master runs yancfs
and the drivers; each worker machine mounts the master's ``/net`` over the
remote FS and runs ordinary applications against it.  "Distributing the
computational workload among multiple machines" is then just assigning
work items to workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distfs.client import RemoteFs
from repro.distfs.rpc import RpcChannel
from repro.distfs.server import FileServer
from repro.runtime import ControllerHost
from repro.sim import Simulator
from repro.vfs.cred import Credentials
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient


@dataclass
class WorkerMachine:
    """One worker: its own VFS with the master's /net mounted remotely."""

    name: str
    vfs: VirtualFileSystem
    sc: Syscalls
    fs: RemoteFs
    channel: RpcChannel
    compute_time: float = 0.0
    items_done: int = 0

    @property
    def client(self) -> YancClient:
        """A yanc client over the remote mount."""
        return YancClient(self.sc, "/net")

    @property
    def busy_time(self) -> float:
        """Total time this worker spent: local compute plus RPC waiting."""
        return self.compute_time + self.channel.time_spent

    def charge_compute(self, seconds: float) -> None:
        """Account local CPU time for a work item."""
        self.compute_time += seconds


class ControllerCluster:
    """A master controller host plus N remote worker machines."""

    def __init__(
        self,
        master: ControllerHost,
        *,
        sim: Simulator | None = None,
        rpc_latency: float = 2e-4,
        consistency: str = "cached",
        cache_ttl: float = 0.5,
    ) -> None:
        self.master = master
        self.sim = sim or master.sim
        self.rpc_latency = rpc_latency
        self.consistency = consistency
        self.cache_ttl = cache_ttl
        self.server = FileServer(master.process(name="fileserverd", role="driver"), master.mount_point)
        self.workers: list[WorkerMachine] = []

    def add_worker(self, name: str = "", *, cred: Credentials | None = None) -> WorkerMachine:
        """Boot a worker machine and mount the master's /net on it.

        ``cred`` is the identity the worker authenticates to the master
        with (default: root — an admin box).  The file server executes
        every RPC under it, so a tenant worker stays a tenant remotely.
        """
        name = name or f"worker{len(self.workers) + 1}"
        vfs = VirtualFileSystem(clock=self.sim.clock)
        sc = Syscalls(vfs, cred=cred) if cred is not None else Syscalls(vfs)
        channel = RpcChannel(
            self.server.handle,
            latency=self.rpc_latency,
            counters=vfs.counters,
            name=name,
            cred=sc.cred,
        )
        fs = RemoteFs(
            channel,
            consistency=self.consistency,
            cache_ttl=self.cache_ttl,
            clock=self.sim.clock,
        )
        sc.mkdir("/net")
        sc.mount("/net", fs, source=f"{self.master.name}:{self.master.mount_point}")
        worker = WorkerMachine(name=name, vfs=vfs, sc=sc, fs=fs, channel=channel)
        self.workers.append(worker)
        return worker

    def map_items(self, items: list, work_fn, *, compute_cost: float = 0.0) -> float:
        """Distribute ``items`` round-robin; returns the makespan.

        ``work_fn(worker, item)`` runs each item against the worker's
        remote-mounted tree.  The makespan is the busiest worker's total
        time (compute + RPC), i.e. the wall-clock a real cluster would
        need with perfect overlap across machines.
        """
        if not self.workers:
            raise RuntimeError("add_worker() first")
        start_busy = [worker.busy_time for worker in self.workers]
        server_busy_before = self.server.busy_time
        for index, item in enumerate(items):
            worker = self.workers[index % len(self.workers)]
            worker.charge_compute(compute_cost)
            work_fn(worker, item)
            worker.items_done += 1
        spans = [worker.busy_time - before for worker, before in zip(self.workers, start_busy)]
        # The master's file server is shared: its total service time is a
        # floor on the makespan no amount of workers can beat.
        server_span = self.server.busy_time - server_busy_before
        return max(max(spans, default=0.0), server_span)

    def flush_all(self) -> int:
        """Flush write-behind buffers on every worker."""
        return sum(worker.fs.flush() for worker in self.workers)
