"""Process runtime: PIDs, crash containment, supervised restart, /proc."""

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.proc import NEVER, ON_CRASH, ProcState, Process, ProcessTable, RestartPolicy
from repro.shell import Shell
from repro.vfs.notify import EventMask
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.sim import Simulator


class WatcherApp(Process):
    """Watches one directory; crashes on demand to exercise supervision."""

    proc_name = "watcher"

    def __init__(self, sc, sim, path, *, name=""):
        super().__init__(sc, sim, name=name)
        self.path = path
        self.events = []
        self.fail_next = False

    def on_start(self):
        self.watch(self.path, EventMask.IN_CREATE, ("dir",))

    def on_event(self, ctx, event):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected fault")
        self.events.append(event.name)


@pytest.fixture
def rt():
    sim = Simulator()
    vfs = VirtualFileSystem(clock=lambda: sim.now)
    sc = Syscalls(vfs)
    table = ProcessTable(sc, sim)
    sc.makedirs("/proc")
    sc.mount("/proc", table.procfs, source="proc")
    sc.mkdir("/spool")
    return sim, sc, table


def spawn_watcher(table, sim, sc, *, name=""):
    app = WatcherApp(table.spawn(), sim, "/spool", name=name)
    return app.start()


# -- pids, ps, /proc ---------------------------------------------------------


def test_pids_are_sequential_and_ps_reports_state(rt):
    sim, sc, table = rt
    a = spawn_watcher(table, sim, sc, name="alpha")
    b = spawn_watcher(table, sim, sc, name="beta")
    assert table.pids() == [a.pid, b.pid] == [1, 2]
    assert table.get(a.pid) is a
    assert table.ps() == [(1, "alpha", "blocked"), (2, "beta", "blocked")]
    b.stop()
    assert table.ps()[1] == (2, "beta", "exited")


def test_proc_files_readable_with_shell(rt):
    sim, sc, table = rt
    app = spawn_watcher(table, sim, sc, name="alpha")
    sh = Shell(sc)
    assert str(app.pid) in sh.run("ls /proc").split()
    status = sh.run(f"cat /proc/{app.pid}/status")
    assert "Name:\talpha" in status
    assert f"Pid:\t{app.pid}" in status
    assert "State:\tblocked" in status
    assert "Watches:\t1" in status
    assert sh.run(f"cat /proc/{app.pid}/cmdline") == "alpha\n"
    assert sh.run(f"cat /proc/{app.pid}/cgroup") == "0::/\n"


def test_proc_status_is_live_not_a_snapshot(rt):
    sim, sc, table = rt
    app = spawn_watcher(table, sim, sc)
    sh = Shell(sc)
    assert "State:\tblocked" in sh.run(f"cat /proc/{app.pid}/status")
    app.stop()
    assert "State:\texited" in sh.run(f"cat /proc/{app.pid}/status")


def test_reap_retires_the_proc_entry(rt):
    sim, sc, table = rt
    app = spawn_watcher(table, sim, sc)
    app.stop()
    table.reap(app)
    assert table.get(app.pid) is None
    assert str(app.pid) not in Shell(sc).run("ls /proc").split()


def test_exec_takeover_keeps_the_pid(rt):
    sim, sc, table = rt
    donor = table.spawn(name="donor")
    pid = donor.pid
    app = WatcherApp(donor, sim, "/spool", name="image")
    assert app.pid == pid
    assert table.get(pid) is app
    assert "Name:\timage" in Shell(sc).run(f"cat /proc/{pid}/status")


# -- crash containment -------------------------------------------------------


def test_crash_is_contained_and_recorded(rt):
    sim, sc, table = rt
    flaky = spawn_watcher(table, sim, sc, name="flaky")
    steady = spawn_watcher(table, sim, sc, name="steady")
    flaky.fail_next = True
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    # the raising handler crashed its process, not the simulator
    assert flaky.state is ProcState.CRASHED
    assert isinstance(flaky.last_error, RuntimeError)
    assert flaky._watch_ctx == {}
    assert table.counters.get("proc.crashes") == 1
    # the other process saw the same event and keeps running
    assert steady.events == ["one"]
    sc.write_bytes("/spool/two", b"x")
    sim.run()
    assert steady.events == ["one", "two"]
    assert flaky.events == []


def test_unsupervised_crash_stays_down(rt):
    sim, sc, table = rt
    flaky = spawn_watcher(table, sim, sc)
    flaky.fail_next = True
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    assert flaky.state is ProcState.CRASHED
    assert flaky.restarts == 0


def test_never_policy_is_explicitly_respected(rt):
    sim, sc, table = rt
    flaky = spawn_watcher(table, sim, sc)
    table.supervise(flaky, NEVER)
    flaky.fail_next = True
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    assert flaky.state is ProcState.CRASHED
    assert flaky.restarts == 0


# -- supervised restart ------------------------------------------------------


def test_restart_delay_backs_off_exponentially_to_the_cap():
    policy = RestartPolicy(mode="on-crash", backoff=0.1, backoff_cap=0.4)
    assert [policy.restart_delay(n) for n in (1, 2, 3, 4, 5)] == [0.1, 0.2, 0.4, 0.4, 0.4]


def test_supervised_restart_reestablishes_watches(rt):
    sim, sc, table = rt
    flaky = spawn_watcher(table, sim, sc, name="flaky")
    table.supervise(flaky, ON_CRASH)
    flaky.fail_next = True
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    # restarted: on_start ran again, watch is back, new events flow
    assert flaky.state is ProcState.BLOCKED
    assert flaky.crashes == 1 and flaky.restarts == 1
    assert table.counters.get("proc.restarts") == 1
    sc.write_bytes("/spool/two", b"x")
    sim.run()
    assert flaky.events == ["two"]
    assert "Crashes:\t1" in Shell(sc).run(f"cat /proc/{flaky.pid}/status")


def test_restart_backoff_timing_and_restart_budget(rt):
    sim, sc, table = rt
    proc = table.spawn(name="bomb")
    policy = RestartPolicy(mode="on-crash", backoff=0.1, backoff_cap=0.4, max_restarts=3)
    table.supervise(proc, policy)
    starts = []

    def on_start():
        starts.append(sim.now)
        proc.schedule(0.0, boom)

    def boom():
        raise RuntimeError("boom")

    proc.on_start = on_start
    proc.start()
    sim.run()
    # crash at t=0, then restarts 0.1, 0.2, 0.4 seconds apart (capped),
    # and the fourth crash exhausts the restart budget
    assert starts == pytest.approx([0.0, 0.1, 0.3, 0.7])
    assert proc.crashes == 4
    assert proc.restarts == 3
    assert proc.state is ProcState.CRASHED


def test_stopped_process_is_not_restarted(rt):
    sim, sc, table = rt
    flaky = spawn_watcher(table, sim, sc)
    table.supervise(flaky, RestartPolicy(mode="on-crash", backoff=5.0))
    flaky.fail_next = True
    sc.write_bytes("/spool/one", b"x")
    sim.run_for(1.0)
    assert flaky.state is ProcState.CRASHED
    flaky.stop()  # operator intervened while the restart was pending
    sim.run()
    assert flaky.state is ProcState.EXITED
    assert flaky.restarts == 0


def test_no_fd_leaks_across_crash_and_restart(rt):
    sim, sc, table = rt
    san = Sanitizer().install()
    try:
        san.reset()
        flaky = spawn_watcher(table, sim, sc)
        table.supervise(flaky, ON_CRASH)
        for _ in range(3):
            flaky.fail_next = True
            sc.write_bytes(f"/spool/f{sim.now}", b"x")
            sim.run()
        assert flaky.crashes == 3 and flaky.restarts == 3
        assert san.check() == []
    finally:
        san.uninstall()


def test_the_ring_is_lazy_persistent_and_closed_with_the_loop(rt):
    sim, sc, table = rt
    proc = table.spawn(name="writer").start()
    setups = lambda: proc.sc.meter.counters.get("syscall.io_uring_setup")  # noqa: E731
    assert setups() == 0  # spawning and starting cost no ring
    ring = proc.ring
    assert proc.ring is ring is proc.sc.ring and setups() == 1  # the context's one ring, like its inotify and epoll descriptors
    ring.batch().prep("mkdir", "/spool/queued")
    proc.stop()
    assert not sc.exists("/spool/queued")  # what a batch queued runs only at its own submit
    fresh = proc.start().ring
    assert fresh is not ring and setups() == 2
    batch = fresh.batch()
    batch.prep("mkdir", "/spool/made")
    assert [cqe.op for cqe in batch.submit()] == ["mkdir"] and sc.exists("/spool/made")
    proc.schedule(0.0, lambda: 1 / 0)
    sim.run()
    assert proc.state is ProcState.CRASHED and proc.ring is not fresh  # a crash drops it as a stop does


# -- scheduling and accounting -----------------------------------------------


def test_tasks_stop_with_the_process(rt):
    sim, sc, table = rt
    proc = table.spawn(name="ticker").start()
    ticks = []
    proc.every(0.5, lambda: ticks.append(sim.now))
    sim.run_for(2.0)
    assert len(ticks) == 4
    proc.stop()
    sim.run_for(2.0)
    assert len(ticks) == 4  # periodic work died with the process


def test_dispatch_charges_cpu_to_the_cgroup(rt):
    sim, sc, table = rt
    app = spawn_watcher(table, sim, sc)
    group = table.cgroups.group_of(f"pid:{app.pid}")
    assert group.used("cpu") == 0.0
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    assert app.events == ["one"]
    assert group.used("cpu") > 0.0
    assert group.used("syscalls") > 0.0


def test_cgroup_limit_throttles_without_crashing(rt):
    sim, sc, table = rt
    app = spawn_watcher(table, sim, sc)
    table.cgroups.create("/jail", limits={"cpu": 1e-12})
    table.assign_cgroup(app, "/jail")
    sc.write_bytes("/spool/one", b"x")
    sim.run()
    # the breach is recorded, never raised into the dispatch loop
    assert app.running
    assert app.state is ProcState.BLOCKED
    assert table.counters.get("proc.throttled") >= 1
    assert app.last_error is not None


# -- /proc/counters ---------------------------------------------------------------


def test_proc_counters_exposes_machine_counters(rt):
    sim, sc, table = rt
    spawn_watcher(table, sim, sc)
    text = sc.read_text("/proc/counters")
    lines = dict(line.rsplit(" ", 1) for line in text.splitlines())
    assert int(lines["proc.spawned"]) >= 1
    assert all(value.isdigit() for value in lines.values())
    assert list(lines) == sorted(lines)  # stable, sorted rendering


def test_proc_counters_shows_shmring_overflow_drops(rt):
    from repro.libyanc import ShmRing

    sim, sc, table = rt
    del sim
    # A ring wired to the machine's counters, overflowed twice: the drops
    # must be readable through the file system, not just the ring object.
    ring = ShmRing(2, counters=sc.vfs.counters)
    assert ring.put(b"a") and ring.put(b"b")
    assert not ring.put(b"c") and not ring.put(b"d")
    text = sc.read_text("/proc/counters")
    lines = dict(line.rsplit(" ", 1) for line in text.splitlines())
    assert lines["shm.dropped"] == "2"
    assert lines["shm.put"] == "4"
    assert ring.dropped == 2


def test_proc_counters_shows_resolution_memo_hits(rt):
    sim, sc, table = rt
    del sim, table

    def path_hits() -> int:
        lines = dict(line.rsplit(" ", 1) for line in Shell(sc).run("cat /proc/counters").splitlines())
        return int(lines["dcache.path_hits"])

    sc.stat("/spool")
    sc.stat("/spool")  # served by the memo: there is a hit to report
    first = path_hits()
    assert first >= 1
    # The second cat resolves the path the first one did: that hit is new.
    assert path_hits() > first


def test_proc_counters_reads_are_live(rt):
    sim, sc, table = rt
    del sim
    assert "demo.widget" not in sc.read_text("/proc/counters")
    table.counters.add("demo.widget", 3)
    assert "demo.widget 3" in sc.read_text("/proc/counters")
    table.counters.add("demo.widget", 2)
    # No open fd caching: every read re-renders the current values.
    assert "demo.widget 5" in sc.read_text("/proc/counters")
