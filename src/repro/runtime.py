"""Assembly helpers: one call from "nothing" to a running yanc controller.

The pieces (VFS, yancfs, drivers, dataplane, apps) are deliberately
independent; this module wires the common shapes together so examples,
tests, and benchmarks stay short.
"""

from __future__ import annotations

from repro.analysis import race, sanitizer
from repro.dataplane.network import Network
from repro.drivers import OF10_VERSION, OpenFlowDriver
from repro.perf.meter import SyscallMeter
from repro.proc.process import Process, ProcessTable
from repro.sim import Simulator
from repro.vfs.cred import ROOT, Credentials, app_credentials, driver_credentials
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs
from repro.yancfs.schema import ACL_COLLAB_DIR, YancFs


class ControllerHost:
    """One controller machine: a VFS with yancfs at /net and procfs at /proc.

    Applications are *processes* on this host: spawn one with
    :meth:`process` and it gets a PID, its own credentials, fd table, and
    syscall meter, a cgroup slot, and a ``/proc/<pid>`` directory — all
    against the shared tree, exactly the multi-process, multi-language
    story of the paper (each process only needs file I/O).

    Least privilege is the default (§5.1): unless the caller passes an
    explicit ``cred``, every spawned process gets distinct non-root
    credentials (a stable per-name uid in the shared ``apps`` group) and a
    private home at ``/net/apps/<name>/`` stamped with a matching ACL.
    """

    def __init__(self, sim: Simulator | None = None, *, name: str = "ctl", mount_point: str = "/net") -> None:
        from repro.analysis.yancsec import monitor as secmon

        for tool in (sanitizer, race, secmon):
            tool.install_from_env()  # a no-op unless YANCSAN / YANCRACE / YANCSEC asks for it
        self.sim = sim or Simulator()
        self.name = name
        self.vfs = VirtualFileSystem(clock=self.sim.clock)
        self.root_sc = Syscalls(self.vfs, cred=ROOT)
        self.mount_point = mount_point
        self.fs: YancFs = mount_yancfs(self.root_sc, mount_point)
        self.procs = ProcessTable(self.root_sc, self.sim)
        self._anon_apps = 0
        with self.root_sc.meter.pause():  # host assembly, not app traffic
            self.root_sc.makedirs("/proc")
            self.root_sc.mount("/proc", self.procs.procfs, source="proc")
            # Standard writable spools, like an OS image would ship: apps
            # and drivers log/spool here without ambient root authority.
            for spool in ("/var", "/var/log", "/var/run", "/tmp"):
                self.root_sc.makedirs(spool)
                self.root_sc.set_acl(spool, ACL_COLLAB_DIR)
        # Fan out to every installed monitor, not just the env-driven one:
        # the CLI's --monitor pass installs its own observer.
        secmon.register_root(mount_point)

    def process(
        self,
        *,
        cred: Credentials | None = None,
        meter: SyscallMeter | None = None,
        name: str = "",
        role: str = "app",
    ) -> Process:
        """Spawn an application process on this host (PID assigned).

        Without an explicit ``cred`` the process runs under per-name
        non-root credentials; passing ``cred=ROOT`` marks an *admin*
        process (the reference monitor holds apps, not admins, to the
        no-uid-0 rule).
        """
        if cred is None:
            if not name:
                self._anon_apps += 1
                principal = f"{role}{self._anon_apps}"
            else:
                principal = name
            cred = driver_credentials(principal) if role == "driver" else app_credentials(principal)
            self._ensure_home(principal, cred)
        elif cred.is_root:
            role = "admin"
        proc = self.procs.spawn(cred=cred, meter=meter, name=name)
        proc.sc.role = role
        return proc

    def _ensure_home(self, principal: str, cred: Credentials) -> None:
        """Create ``/net/apps/<principal>/`` owned by the app's uid."""
        home = f"{self.mount_point}/apps/{principal}"
        with self.root_sc.meter.pause():
            if not self.root_sc.exists(home):
                self.root_sc.makedirs(home)
                self.root_sc.chown(home, cred.uid, cred.gid)

    def client(self, *, cred: Credentials | None = None, meter: SyscallMeter | None = None, name: str = "") -> YancClient:
        """Spawn a process and wrap it in a :class:`YancClient`."""
        return YancClient(self.process(cred=cred, meter=meter, name=name), self.mount_point)


class YancController:
    """A controller host plus drivers plus an attached dataplane."""

    def __init__(self, network: Network | None = None, *, sim: Simulator | None = None) -> None:
        self.sim = sim or (network.sim if network is not None else Simulator())
        self.net = network if network is not None else Network(self.sim)
        if network is not None and network.sim is not self.sim:
            raise ValueError("network and controller must share one simulator")
        self.host = ControllerHost(self.sim)
        self.drivers: list[OpenFlowDriver] = []

    def add_driver(self, *, version: int = OF10_VERSION) -> OpenFlowDriver:
        """Start a driver process for one protocol version."""
        driver = OpenFlowDriver(
            self.host.process(name=f"of{version}d", role="driver"),
            self.sim,
            version=version,
        )
        self.drivers.append(driver)
        return driver

    def attach_all(self, driver: OpenFlowDriver | None = None) -> None:
        """Attach every dataplane switch to a driver (default: first)."""
        if driver is None:
            driver = self.drivers[0] if self.drivers else self.add_driver()
        for switch in self.net.switches.values():
            driver.attach_switch(switch)

    def start(self, *, settle: float = 0.05) -> "YancController":
        """Attach everything, start flow expiry, and let sessions settle."""
        if not self.drivers:
            self.add_driver()
        self.attach_all(self.drivers[0])
        for switch in self.net.switches.values():
            switch.start_expiry()
        self.sim.run_for(settle)
        return self

    def run(self, duration: float = 1.0) -> int:
        """Advance simulated time."""
        return self.sim.run_for(duration)

    def client(self, *, cred: Credentials | None = None, meter: SyscallMeter | None = None, name: str = "") -> YancClient:
        """An application-side client on the controller host."""
        return self.host.client(cred=cred, meter=meter, name=name)

    def fs_name_of(self, switch_name: str) -> str:
        """The FS directory name a dataplane switch appears under.

        Drivers only learn the dpid from the wire, so they name
        directories ``sw<dpid>`` (admins are free to rename them later,
        §3.2).
        """
        return f"sw{self.net.switches[switch_name].dpid}"

    def expected_topology(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Ground-truth adjacency translated into FS switch names."""
        out = {}
        for (a, pa), (b, pb) in self.net.switch_port_peers().items():
            out[(self.fs_name_of(a), pa)] = (self.fs_name_of(b), pb)
        return out
