"""Big-switch virtualization and namespace isolation."""

import pytest

from repro.apps import TopologyDaemon
from repro.dataplane import Match, Output, build_linear
from repro.runtime import YancController
from repro.vfs import Credentials, FileNotFound, FsError, PermissionDenied
from repro.views import BigSwitchVirtualizer, Slicer, grant_view, tenant_process, view_namespace
from repro.yancfs import YancClient

TENANT = Credentials(uid=1500, gid=1500)


@pytest.fixture
def fabric():
    ctl = YancController(build_linear(3)).start()
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ctl.run(1.5)
    return ctl


@pytest.fixture
def big(fabric):
    # virtual port 1 = h1's port on sw1; virtual port 2 = h3's port on sw3
    virt = BigSwitchVirtualizer(
        fabric.host.process(), fabric.sim, view="big", port_map={1: ("sw1", 2), 2: ("sw3", 2)}
    ).start()
    fabric.run(0.2)
    return fabric, virt, fabric.client().in_view("big")


def test_big_switch_presented_with_virtual_ports(big):
    _ctl, _virt, view = big
    assert view.switches() == ["big"]
    assert view.ports("big") == ["port_1", "port_2"]


def test_flow_compiles_to_fabric_path(big):
    ctl, virt, view = big
    view.create_flow("big", "cross", Match(in_port=1, dl_type=0x800), [Output(2)], priority=9)
    ctl.run(0.5)
    assert virt.flows_compiled == 1
    # the path sw1 -> sw2 -> sw3 got one segment each
    master = ctl.client()
    for switch in ("sw1", "sw2", "sw3"):
        assert any(name.startswith("virt_big_cross") for name in master.flows(switch))


def test_compiled_path_actually_forwards(big):
    ctl, _virt, view = big
    view.create_flow("big", "fwd", Match(in_port=1, dl_type=0x800), [Output(2)], priority=9)
    view.create_flow("big", "rev", Match(in_port=2, dl_type=0x800), [Output(1)], priority=9)
    view.create_flow("big", "fwd-arp", Match(in_port=1, dl_type=0x806), [Output(2)], priority=9)
    view.create_flow("big", "rev-arp", Match(in_port=2, dl_type=0x806), [Output(1)], priority=9)
    ctl.run(0.5)
    h1, h3 = ctl.net.hosts["h1"], ctl.net.hosts["h3"]
    seq = h1.ping(h3.ip)
    ctl.run(2.0)
    assert h1.reachable(seq)


def test_flow_to_unknown_virtual_port_rejected(big):
    ctl, virt, view = big
    view.create_flow("big", "bogus", Match(in_port=1), [Output(9)], priority=9)
    ctl.run(0.5)
    assert virt.flows_rejected == 1
    status = view.sc.read_text(view.flow_path("big", "bogus") + "/state.status")
    assert status.startswith("rejected")


def test_flow_delete_removes_segments(big):
    ctl, _virt, view = big
    view.create_flow("big", "f", Match(in_port=1, dl_type=0x800), [Output(2)], priority=9)
    ctl.run(0.5)
    view.delete_flow("big", "f")
    ctl.run(0.5)
    master = ctl.client()
    for switch in ("sw1", "sw2", "sw3"):
        assert not any(name.startswith("virt_big_f") for name in master.flows(switch))


def test_packet_in_surfaces_with_virtual_port(big):
    ctl, virt, view = big
    view.subscribe_events("big", "tenant")
    ctl.run(0.2)
    h1 = ctl.net.hosts["h1"]
    h1.send_udp("10.0.0.250", 1, 2, b"miss")  # no flows: punted at sw1 port 2
    ctl.run(0.5)
    events = view.read_events("big", "tenant")
    assert len(events) == 1
    assert events[0].in_port == 1  # translated to the virtual port
    assert virt.events_forwarded == 1


def test_view_packet_out_mapped_to_fabric_port(big):
    ctl, _virt, view = big
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet
    h3 = ctl.net.hosts["h3"]
    raw = Ethernet(dst=h3.mac, src=ctl.net.hosts["h1"].mac, eth_type=ETH_TYPE_IPV4, payload=b"x" * 30).pack()
    view.packet_out("big", [2], raw, tag="tenant")
    ctl.run(0.5)
    assert any(len(f.raw) == len(raw) for f in h3.received)


def test_view_flood_reaches_every_mapped_port_but_the_in_port(big):
    """Regression: the virtualizer's own copy of the spool-name parser only
    knew ``p<N>``, so a tenant's flood was consumed and silently discarded."""
    ctl, _virt, view = big
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet
    h1, h3 = ctl.net.hosts["h1"], ctl.net.hosts["h3"]
    raw = Ethernet(dst=h3.mac, src=h1.mac, eth_type=ETH_TYPE_IPV4, payload=b"y" * 31).pack()
    view.packet_out("big", ["flood"], raw, in_port=1, tag="tenant")
    ctl.run(0.5)
    assert [f.raw for f in h3.received if len(f.raw) == len(raw)] == [raw]  # virtual port 2
    assert not any(len(f.raw) == len(raw) for f in h1.received)  # virtual port 1 is where it came in
    assert view.sc.listdir(view.switch_path("big") + "/packet_out") == []


# -- namespaces -----------------------------------------------------------------------


def test_view_namespace_hides_everything_else(fabric):
    ctl = fabric
    Slicer(ctl.host.process(), ctl.sim, view="v", switches=["sw1"], headerspace=Match(dl_vlan=5)).start()
    ctl.run(0.2)
    ns = view_namespace(ctl.host.vfs, "/net/views/v")
    from repro.vfs import Syscalls

    proc = Syscalls(ctl.host.vfs, ns=ns)
    assert proc.listdir("/net/switches") == ["sw1"]
    assert proc.listdir("/net/views") == []
    # the master path space is simply gone
    with pytest.raises(FileNotFound):
        proc.read_text("/net/switches/sw2/id")


def test_tenant_process_non_root_required(fabric):
    ctl = fabric
    ctl.client().create_view("v")
    from repro.vfs import InvalidArgument, ROOT

    with pytest.raises(InvalidArgument):
        tenant_process(ctl.host.vfs, "/net/views/v", ROOT)


def test_grant_view_enables_tenant_writes(fabric):
    ctl = fabric
    Slicer(ctl.host.process(), ctl.sim, view="v", switches=["sw1"], headerspace=Match(dl_vlan=5)).start()
    ctl.run(0.2)
    tenant = tenant_process(ctl.host.vfs, "/net/views/v", TENANT)
    tyc = YancClient(tenant)
    with pytest.raises(PermissionDenied):
        tyc.create_flow("sw1", "f", Match(dl_vlan=5), [Output(1)], priority=5)
    grant_view(ctl.host.root_sc, "/net/views/v", TENANT.uid, TENANT.gid)
    tyc.create_flow("sw1", "f", Match(dl_vlan=5), [Output(1)], priority=5)
    ctl.run(0.5)
    assert "v_v_f" in ctl.client().flows("sw1")


def test_tenant_cannot_touch_master_even_with_path(fabric):
    """Ownership is defense in depth under the namespace jail."""
    ctl = fabric
    ctl.client().create_view("v")
    grant_view(ctl.host.root_sc, "/net/views/v", TENANT.uid, TENANT.gid)
    tenant = tenant_process(ctl.host.vfs, "/net/views/v", TENANT)
    # even /net/switches (the view's own, granted) is the only thing there:
    # creating a switch dir at master scope is impossible by construction
    with pytest.raises(FsError):
        tenant.mkdir("/net/views/leak")  # views dir inside the view is tenant's...
        tenant.mkdir("/net/views/leak/escape/../../..")  # and .. cannot escape


def test_two_tenants_fully_isolated(fabric):
    ctl = fabric
    for name, uid in (("a", 2001), ("b", 2002)):
        Slicer(ctl.host.process(), ctl.sim, view=name, switches=["sw1"], headerspace=Match(dl_vlan=uid)).start()
    ctl.run(0.2)
    grant_view(ctl.host.root_sc, "/net/views/a", 2001, 2001)
    grant_view(ctl.host.root_sc, "/net/views/b", 2002, 2002)
    tenant_a = tenant_process(ctl.host.vfs, "/net/views/a", Credentials(uid=2001, gid=2001))
    tenant_b = tenant_process(ctl.host.vfs, "/net/views/b", Credentials(uid=2002, gid=2002))
    YancClient(tenant_a).create_flow("sw1", "mine", Match(dl_vlan=2001), [Output(1)], priority=5)
    ctl.run(0.3)
    # B's namespace has no path to A's flow, and A's files are not B's
    assert YancClient(tenant_b).flows("sw1") == []
    with pytest.raises(FileNotFound):
        tenant_b.read_text("/net/views/a/switches/sw1/flows/mine/priority")
