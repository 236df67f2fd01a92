"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis import race, sanitizer
from repro.analysis.yancsec import monitor as yancsec_monitor
from repro.runtime import YancController
from repro.sim import Simulator
from repro.vfs.syscalls import Syscalls
from repro.vfs.vfs import VirtualFileSystem
from repro.yancfs.client import YancClient, mount_yancfs


#: The runtime tools the environment can switch on, by the name their findings carry.
_ENV_TOOLS = (("yancsan", sanitizer), ("yancrace", race), ("yancsec", yancsec_monitor))


@pytest.fixture(autouse=True)
def env_tools_check():
    """With YANCSAN=1 / YANCRACE=1 / YANCSEC=1, run every test under the
    sanitizer (fd leak, unvalidated write, notify inconsistency,
    flow-commit break), the happens-before race detector (unsynchronized
    access, torn commit, read of uncommitted flow state) and the reference
    monitor (app running as root, cross-tenant read, ambient write), and
    fail it on any finding."""
    tools = [(name, tool) for name, module in _ENV_TOOLS if (tool := module.install_from_env()) is not None]
    for _name, tool in tools:
        tool.reset()
    yield
    report = []
    for name, tool in tools:
        findings = tool.check()
        tool.reset()
        if findings:
            report.append(f"{name} findings:\n" + "\n".join(str(f) for f in findings))
    assert not report, "\n".join(report)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def vfs(sim: Simulator) -> VirtualFileSystem:
    return VirtualFileSystem(clock=lambda: sim.now)


@pytest.fixture
def sc(vfs: VirtualFileSystem) -> Syscalls:
    return Syscalls(vfs)


@pytest.fixture
def yanc_sc(sc: Syscalls) -> Syscalls:
    """A root process with a fresh yancfs mounted at /net."""
    mount_yancfs(sc)
    return sc


@pytest.fixture
def yc(yanc_sc: Syscalls) -> YancClient:
    return YancClient(yanc_sc)


@pytest.fixture
def linear_controller() -> YancController:
    """A started controller over a 3-switch line (1 host per switch)."""
    from repro.dataplane.topology import build_linear

    net = build_linear(3, hosts_per_switch=1)
    return YancController(net).start()
