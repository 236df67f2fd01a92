"""yancsec runtime pass: a reference monitor on the ``Syscalls`` boundary.

Every VFS operation in this repo funnels through ``Syscalls`` — the same
property the paper leans on for §5 isolation ("each process only needs
file I/O").  With ``YANCSEC=1`` the monitor subscribes to the ``syscall``
trace point (:mod:`repro.perf.tracepoints`) and judges *every*
successful path-taking call — mediation is complete by construction,
not a hand-picked list of methods — enforcing three invariants while a
workload runs:

``root-app``
    A process spawned in the *app* role must never execute a syscall with
    uid 0.  Apps get per-name credentials from :func:`repro.vfs.cred.
    app_credentials`; an app-role context running as root means ambient
    authority leaked back in.

``cross-tenant-read``
    ``/net/apps/<name>/`` is a private home.  A non-root process whose uid
    differs from the home owner's must not read below it.

``ambient-write``
    Writes by app-role processes must land inside a registered controller
    tree (``/net`` by default) or a shared spool (``/var``, ``/tmp``);
    writes into another principal's home are flagged under the same kind.

The monitor also records every successful access as a ``(uid, namespace,
path-prefix)`` tuple — the dynamic ground truth the static pass
(:mod:`repro.analysis.yancsec.checker`) is calibrated against, exactly as
yancrace pairs its lockset pass with the runtime detector.

Ring-submitted operations dispatch through the same ``Syscalls`` methods
and are judged like direct calls; ``io_uring_setup`` is judged too, so an
app-role context running as uid 0 is caught at ring creation, before any
batched submission executes.
"""

from __future__ import annotations

import atexit
import sys
from dataclasses import asdict, dataclass

from repro.perf import tracepoints
from repro.vfs.syscalls import SYSCALLS, Syscalls

__all__ = [
    "SecFinding",
    "SecurityMonitor",
    "active",
    "enabled",
    "install_from_env",
    "register_root",
    "reset_all",
]

#: Spool prefixes every host ships writable (see ``ControllerHost``).
_SHARED_PREFIXES = ("/var", "/tmp", "/proc", "/dev")


@dataclass(frozen=True)
class SecFinding:
    """One reference-monitor violation."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"yancsec [{self.kind}] {self.detail}"


def _prefix(path: str, depth: int = 2) -> str:
    """The first ``depth`` components of ``path`` — the access-tuple key."""
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts[:depth])


class SecurityMonitor:
    """Records access tuples and flags isolation violations at runtime."""

    def __init__(self) -> None:
        #: Violations in discovery order (deduplicated by ``_seen``).
        self.findings: list[SecFinding] = []
        #: Successful accesses as (uid, namespace name, path prefix).
        self.accesses: set[tuple[int, str, str]] = set()
        self._seen: set[tuple[object, ...]] = set()
        #: Controller mount points (``ControllerHost`` registers its own).
        self._roots: list[str] = []
        self._allowed: list[str] = list(_SHARED_PREFIXES)
        #: ``/net/apps/<name>`` -> owner uid, learned from observed chowns.
        self._home_uids: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------

    def install(self) -> None:
        """Subscribe to the trace-point bus and start monitoring."""
        tracepoints.subscribe(self)

    def uninstall(self) -> None:
        """Stop receiving events; findings stay until :meth:`reset`."""
        tracepoints.unsubscribe(self)

    def reset(self) -> None:
        """Forget findings and accesses.

        Registrations (roots, allowed prefixes, learned home owners) are
        deliberately kept: hosts outlive per-test resets when built in
        long-lived fixtures, and their mount points stay valid.
        """
        self.findings.clear()
        self.accesses.clear()
        self._seen.clear()

    def check(self) -> list[SecFinding]:
        """All violations recorded since the last :meth:`reset`."""
        return list(self.findings)

    # -- the CLI workload protocol (repro.analysis.cli.run_workload) ---

    ENV = "YANCSEC"  # set while the workload runs: its code may key optional taps off it

    def report(self) -> tuple[list[dict], list[str]]:
        """JSON-ready violations plus the access tuples as the epilogue."""
        accesses = sorted(self.accesses)
        uids = sorted({uid for uid, _, _ in accesses})
        lines = [f"yancsec: {len(accesses)} access tuple(s) across {len(uids)} uid(s) {uids}"]
        lines += [f"  uid={uid} ns={ns or '-'} {prefix}" for uid, ns, prefix in accesses]
        return [asdict(f) for f in self.check()], lines

    @staticmethod
    def record_key(rec: dict) -> tuple:
        return (rec.get("kind", ""), rec.get("detail", ""))

    @staticmethod
    def render(rec: dict, marker: str) -> str:
        return f"yancsec [{rec['kind']}]{marker} {rec['detail']}"

    # -- per-host registration -----------------------------------------

    def register_root(self, mount_point: str) -> None:
        """Declare ``mount_point`` a controller tree (homes live below it)."""
        if mount_point not in self._roots:
            self._roots.append(mount_point)
        if mount_point not in self._allowed:
            self._allowed.append(mount_point)

    # -- trace-point handler and its sinks -------------------------------

    def on_syscall_exit(self, sc: Syscalls, op: str, paths: tuple, args: tuple, result: object, exc: BaseException | None) -> None:
        """Judge one successful syscall (failed ones touched nothing)."""
        if exc is not None:
            return
        if op == "io_uring_setup":
            self._on_uring(sc)
        elif op == "chown":
            self._on_chown(sc, paths[0], args[1])
        write = SYSCALLS[op].writes(args)  # a path-taking call that does not write reads
        for path in paths:
            self._on_path(sc, op, path, write)
        if op == "readdirplus":  # it also opened every file it returned
            for name, data in result:
                if data is not None:
                    self._on_path(sc, op, f"{paths[0]}/{name}", False)

    def _emit(self, kind: str, detail: str, key: tuple[object, ...]) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(SecFinding(kind, detail))

    def _home_of(self, path: str) -> tuple[str | None, int | None]:
        for root in self._roots:
            apps = root + "/apps/"
            if path.startswith(apps):
                name = path[len(apps) :].split("/", 1)[0]
                home = apps + name
                return home, self._home_uids.get(home)
        return None, None

    def _on_path(self, sc: Syscalls, op: str, path: str, write: bool) -> None:
        cred = sc.cred
        role = getattr(sc, "role", None)
        ns_name = getattr(sc.ns, "name", "ns?")
        self.accesses.add((cred.uid, ns_name, _prefix(path)))
        if role == "app" and cred.uid == 0:
            self._emit(
                "root-app",
                f"{op}({path}): app-role process executing as uid 0",
                key=("root-app", op, _prefix(path)),
            )
        home, owner = self._home_of(path)
        if home is not None and path != home and owner is not None and owner != cred.uid and not cred.is_root:
            if write:
                self._emit(
                    "ambient-write",
                    f"{op}({path}): uid {cred.uid} writes into {home} (owner uid {owner})",
                    key=("home-write", home, cred.uid),
                )
            else:
                self._emit(
                    "cross-tenant-read",
                    f"{op}({path}): uid {cred.uid} reads {home} (owner uid {owner})",
                    key=("home-read", home, cred.uid),
                )
        elif write and role == "app" and not cred.is_root and not self._is_allowed(path):
            self._emit(
                "ambient-write",
                f"{op}({path}): app uid {cred.uid} writes outside the controller tree and spools",
                key=("stray-write", _prefix(path), cred.uid),
            )

    def _is_allowed(self, path: str) -> bool:
        return any(path == p or path.startswith(p + "/") for p in self._allowed)

    def _on_chown(self, sc: Syscalls, path: str, uid: int) -> None:
        for root in self._roots:
            apps = root + "/apps/"
            if path.startswith(apps) and "/" not in path[len(apps) :]:
                self._home_uids[path] = uid

    def _on_uring(self, sc: Syscalls) -> None:
        if getattr(sc, "role", None) == "app" and sc.cred.uid == 0:
            self._emit(
                "root-app",
                "io_uring_setup: app-role process creating a syscall ring as uid 0",
                key=("root-app", "io_uring_setup"),
            )


def _report_at_exit(mon: SecurityMonitor) -> None:
    """Outside pytest (whose autouse fixture checks after every test),
    report any violations still recorded at teardown."""
    findings = mon.check()
    if findings:
        print(f"yancsec: {len(findings)} violation(s) at teardown", file=sys.stderr)
        for finding in findings:
            print(f"  {finding}", file=sys.stderr)


_ENV = tracepoints.EnvTool("YANCSEC", SecurityMonitor, on_install=lambda mon: atexit.register(_report_at_exit, mon))
enabled, install_from_env, active, reset_all = _ENV.enabled, _ENV.install_from_env, _ENV.active, _ENV.reset_all


def register_root(mount_point: str) -> None:
    """Declare ``mount_point`` a controller tree on every installed monitor.

    Hosts call this so that *all* observers — the env-driven monitor and
    any explicitly installed one (e.g. the CLI's ``--monitor`` pass) —
    agree on where homes live and where app writes are legitimate.
    """
    for mon in tracepoints.subscribed(SecurityMonitor):
        mon.register_root(mount_point)
