"""Cost models and the syscall meter."""

from repro.perf import FUSE_COST_MODEL, SHM_COST_MODEL, PerfCounters, SyscallMeter
from repro.perf.cost import CostModel


def test_fuse_model_charges_context_switches():
    t = FUSE_COST_MODEL.syscall_time(10)
    assert t == 10 * FUSE_COST_MODEL.syscall_cost + 40 * FUSE_COST_MODEL.ctxsw_cost


def test_shm_model_is_free_per_call():
    assert SHM_COST_MODEL.syscall_time(1000) == 0.0


def test_copy_time_linear_in_bytes():
    model = CostModel(name="t", byte_copy_cost=1e-9)
    assert model.copy_time(2000) == 2 * model.copy_time(1000)


def test_meter_counts_syscalls_and_ctxsw():
    meter = SyscallMeter()
    meter.enter("read")
    meter.enter("write", nbytes=100)
    assert meter.syscalls == 2
    assert meter.context_switches == 2 * FUSE_COST_MODEL.ctxsw_per_syscall
    assert meter.counters.get("bytes.copied") == 100


def test_meter_per_name_counters():
    meter = SyscallMeter()
    meter.enter("open")
    meter.enter("open")
    meter.enter("close")
    assert meter.counters.get("syscall.open") == 2
    assert meter.counters.get("syscall.close") == 1


def test_meter_pause_suppresses_accounting():
    meter = SyscallMeter()
    with meter.pause():
        meter.enter("read")
    assert meter.syscalls == 0


def test_meter_pause_nests():
    meter = SyscallMeter()
    with meter.pause():
        with meter.pause():
            meter.enter("read")
        meter.enter("read")
    meter.enter("read")
    assert meter.syscalls == 1


def test_charge_prices_delta_only():
    counters = PerfCounters()
    counters.add("syscall.read", 5)
    mark = counters.snapshot()
    counters.add("syscall.read", 3)
    assert FUSE_COST_MODEL.charge(counters, mark) == FUSE_COST_MODEL.syscall_time(3)


def test_meter_reset():
    meter = SyscallMeter()
    meter.enter("read")
    meter.reset()
    assert meter.syscalls == 0 and meter.context_switches == 0
