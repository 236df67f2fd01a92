"""The slicer: mirroring, translation, rejection, forwarding, stacking."""

import pytest

from repro.apps import TopologyDaemon
from repro.dataplane import Match, Output, build_linear
from repro.runtime import YancController
from repro.views import MAX_TENANT_PRIORITY, Slicer
from repro.yancfs import YancClient

SSH = Match(dl_type=0x800, nw_proto=6, tp_dst=22)


@pytest.fixture
def sliced():
    ctl = YancController(build_linear(3)).start()
    TopologyDaemon(ctl.host.process(), ctl.sim).start()
    ctl.run(1.5)
    slicer = Slicer(ctl.host.process(), ctl.sim, view="ssh", switches=["sw1", "sw2"], headerspace=SSH).start()
    ctl.run(0.2)
    tenant = ctl.client().in_view("ssh")
    return ctl, slicer, tenant


def test_view_mirrors_sliced_switches_only(sliced):
    _ctl, _slicer, tenant = sliced
    assert tenant.switches() == ["sw1", "sw2"]


def test_view_mirrors_ports_and_dpid(sliced):
    ctl, _slicer, tenant = sliced
    assert tenant.ports("sw1") == ctl.client().ports("sw1")
    assert tenant.switch_dpid("sw1") == 1


def test_mirrored_switch_is_published_with_its_id():
    """Regression: the slicer renamed the mirrored switch into place and
    only then wrote its ``id`` — a tenant scanning ``switches/`` could see
    a switch with no identity, which ``create_switch(dpid=)`` exists to prevent."""
    from repro.perf import tracepoints

    class Tape:
        def __init__(self) -> None:
            self.ops: list[tuple] = []

        def on_syscall_enter(self, sc, op, paths, args) -> None:
            self.ops.append((op, paths))

    ctl = YancController(build_linear(2)).start()
    tape = Tape()
    tracepoints.subscribe(tape)
    try:
        Slicer(ctl.host.process(), ctl.sim, view="ssh", switches=["sw1"], headerspace=SSH).start()
    finally:
        tracepoints.unsubscribe(tape)
    base = "/net/views/ssh/switches"
    published = tape.ops.index(("rename", (f"{base}/.sw1", f"{base}/sw1")))
    assert ("open", (f"{base}/.sw1/id",)) in tape.ops[:published]
    assert ("open", (f"{base}/sw1/id",)) not in tape.ops[published:]
    assert ctl.client().in_view("ssh").switch_dpid("sw1") == 1


def test_view_mirrors_intra_slice_peer_links(sliced):
    _ctl, _slicer, tenant = sliced
    # sw1<->sw2 (port 1 on each) is inside the slice; sw2<->sw3 is not
    target = tenant.peer_of("sw1", 1)
    assert target is not None and "/views/ssh/" in target and "sw2" in target
    # only the sw2 port facing sw1 has a peer inside the view
    peers = [tenant.peer_of("sw2", p) for p in tenant.ports("sw2")]
    assert sum(1 for p in peers if p) == 1


def test_tenant_flow_translated_with_intersection(sliced):
    ctl, slicer, tenant = sliced
    tenant.create_flow("sw1", "mine", Match(tp_dst=22), [Output(1)], priority=10)
    ctl.run(0.5)
    master = ctl.client()
    spec = master.read_flow("sw1", "v_ssh_mine")
    assert spec.match == SSH  # intersection filled in dl_type/nw_proto
    assert slicer.flows_translated == 1
    assert len(ctl.net.switches["sw1"].table) >= 1


def test_out_of_slice_flow_rejected_in_place(sliced):
    ctl, slicer, tenant = sliced
    tenant.create_flow("sw1", "web", Match(tp_dst=80), [Output(1)], priority=10)
    ctl.run(0.5)
    status = tenant.sc.read_text(tenant.flow_path("sw1", "web") + "/state.status")
    assert status.startswith("rejected")
    assert "v_ssh_web" not in ctl.client().flows("sw1")
    assert slicer.flows_rejected == 1


def test_tenant_priority_clamped(sliced):
    ctl, _slicer, tenant = sliced
    tenant.create_flow("sw1", "greedy", Match(tp_dst=22), [Output(1)], priority=0xFFFF)
    ctl.run(0.5)
    spec = ctl.client().read_flow("sw1", "v_ssh_greedy")
    assert spec.priority == MAX_TENANT_PRIORITY


def test_tenant_flow_delete_cleans_master(sliced):
    ctl, _slicer, tenant = sliced
    tenant.create_flow("sw1", "f", Match(tp_dst=22), [Output(1)], priority=10)
    ctl.run(0.5)
    assert "v_ssh_f" in ctl.client().flows("sw1")
    tenant.delete_flow("sw1", "f")
    ctl.run(0.5)
    assert "v_ssh_f" not in ctl.client().flows("sw1")


def test_recommit_updates_master_flow(sliced):
    ctl, _slicer, tenant = sliced
    tenant.create_flow("sw1", "f", Match(tp_dst=22), [Output(1)], priority=10)
    ctl.run(0.5)
    tenant.sc.write_text(tenant.flow_path("sw1", "f") + "/priority", "20")
    tenant.commit_flow("sw1", "f")
    ctl.run(0.5)
    assert ctl.client().read_flow("sw1", "v_ssh_f").priority == 20


def test_headerspace_packet_in_forwarded_to_tenant(sliced):
    ctl, slicer, tenant = sliced
    tenant.subscribe_events("sw1", "tenant-app")
    ctl.run(0.2)
    h1 = ctl.net.hosts["h1"]
    # SSH SYN: inside the headerspace
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Tcp
    from repro.netpkt.packet import build_frame

    ssh = build_frame(
        Ethernet(dst=ctl.net.hosts["h2"].mac, src=h1.mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=h1.ip, dst=ctl.net.hosts["h2"].ip, proto=6),
        Tcp(src_port=1000, dst_port=22),
    )
    web = build_frame(
        Ethernet(dst=ctl.net.hosts["h2"].mac, src=h1.mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=h1.ip, dst=ctl.net.hosts["h2"].ip, proto=6),
        Tcp(src_port=1000, dst_port=80),
    )
    h1.send_raw(ssh)
    h1.send_raw(web)
    ctl.run(0.5)
    events = tenant.read_events("sw1", "tenant-app")
    assert len(events) == 1  # only the in-headerspace packet crossed
    assert slicer.events_forwarded == 1


def test_tenant_packet_out_forwarded_when_in_headerspace(sliced):
    ctl, _slicer, tenant = sliced
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Tcp
    from repro.netpkt.packet import build_frame

    h2 = ctl.net.hosts["h2"]
    frame = build_frame(
        Ethernet(dst=h2.mac, src=ctl.net.hosts["h1"].mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ctl.net.hosts["h1"].ip, dst=h2.ip, proto=6),
        Tcp(src_port=1, dst_port=22),
    )
    tenant.packet_out("sw2", [3], frame, tag="tenant")
    ctl.run(0.5)
    from repro.netpkt import Tcp

    tcp_frames = [f for f in h2.received if isinstance(f.inner, Tcp)]
    assert len(tcp_frames) == 1


def test_tenant_packet_out_blocked_outside_headerspace(sliced):
    ctl, _slicer, tenant = sliced
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Tcp
    from repro.netpkt.packet import build_frame

    h2 = ctl.net.hosts["h2"]
    frame = build_frame(
        Ethernet(dst=h2.mac, src=ctl.net.hosts["h1"].mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ctl.net.hosts["h1"].ip, dst=h2.ip, proto=6),
        Tcp(src_port=1, dst_port=80),
    )
    tenant.packet_out("sw2", [3], frame, tag="tenant")
    ctl.run(0.5)
    from repro.netpkt import Tcp

    assert not any(isinstance(f.inner, Tcp) for f in h2.received)


def test_counter_mirroring(sliced):
    ctl, _slicer, tenant = sliced
    tenant.create_flow("sw1", "f", Match(tp_dst=22), [Output(1)], priority=10)
    ctl.run(0.5)
    # hand-crank the master counters and let the sync task copy them
    master = ctl.client()
    sc = ctl.host.root_sc
    sc.write_text("/net/switches/sw1/flows/v_ssh_f/counters/packet_count", "77")
    ctl.run(1.2)
    assert tenant.flow_counters("sw1", "f")["packet_count"] == 77
    del master


def test_views_stack(sliced):
    """A slicer on top of a slicer (§4.2: stacked arbitrarily)."""
    ctl, _outer, tenant = sliced
    inner_slicer = Slicer(
        ctl.host.process(),
        ctl.sim,
        view="inner",
        switches=["sw1"],
        headerspace=Match(dl_type=0x800, nw_proto=6, tp_dst=22, nw_dst=__import__("ipaddress").IPv4Network("10.0.0.0/24")),
        root="/net/views/ssh",
    ).start()
    ctl.run(0.3)
    inner = YancClient(ctl.host.process(), "/net/views/ssh/views/inner")
    assert inner.switches() == ["sw1"]
    inner.create_flow("sw1", "deep", Match(tp_dst=22), [Output(1)], priority=5)
    ctl.run(0.6)
    # the flow surfaced through both translations onto the master switch
    master_flows = ctl.client().flows("sw1")
    assert "v_ssh_v_inner_deep" in master_flows
    spec = ctl.client().read_flow("sw1", "v_ssh_v_inner_deep")
    assert spec.match.nw_dst == __import__("ipaddress").IPv4Network("10.0.0.0/24")
    assert inner_slicer.flows_translated == 1
