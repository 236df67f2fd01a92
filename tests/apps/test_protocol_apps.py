"""ARP responder, DHCP server, learning switch, static flow pusher."""

import pytest

from repro.apps import (
    ArpResponder,
    DhcpServer,
    LearningSwitchApp,
    StaticFlowPusher,
    TopologyDaemon,
    make_discover,
    parse_spec,
)
from repro.dataplane import Match, build_linear
from repro.netpkt import ETH_TYPE_ARP, ip, parse_frame
from repro.runtime import YancController
from repro.yancfs.translate import MAX_PENDING_EVENTS


def test_parse_spec_basics():
    spec = parse_spec(
        """
        # comment
        match.dl_type = 0x800
        action.out = 2

        priority = 10
        """
    )
    assert spec == {"match.dl_type": "0x800", "action.out": "2", "priority": "10"}


def test_parse_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_spec("no equals sign here")


def test_static_flow_pusher_pushes(linear_controller):
    ctl = linear_controller
    pusher = StaticFlowPusher(ctl.host.process())
    pusher.push("sw1", "ssh", "match.dl_type=0x800\nmatch.nw_proto=6\nmatch.tp_dst=22\naction.out=2\npriority=40")
    ctl.run(0.2)
    entries = ctl.net.switches["sw1"].table.entries()
    assert len(entries) == 1
    assert entries[0].match.tp_dst == 22


def test_static_flow_pusher_everywhere(linear_controller):
    ctl = linear_controller
    pusher = StaticFlowPusher(ctl.host.process())
    count = pusher.push_everywhere("flood", "action.out=flood\npriority=1")
    ctl.run(0.2)
    assert count == 3
    assert all(len(sw.table) == 1 for sw in ctl.net.switches.values())


def test_static_flow_pusher_from_file(linear_controller):
    ctl = linear_controller
    sc = ctl.host.process()
    sc.write_text("/tmp/flow.conf", "match.dl_type=0x806\naction.out=controller\npriority=60")
    pusher = StaticFlowPusher(sc)
    pusher.push_from_file("sw2", "arp_punt", "/tmp/flow.conf")
    ctl.run(0.2)
    assert len(ctl.net.switches["sw2"].table) == 1


def test_learning_switch_single_switch():
    net = build_linear(1, hosts_per_switch=2)
    ctl = YancController(net).start()
    app = LearningSwitchApp(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    seq = h1.ping(h2.ip)
    ctl.run(2.0)
    assert h1.reachable(seq)
    assert app.flows_installed >= 1
    assert str(h1.mac) in {str(m) for m in app.tables["sw1"]}


def test_learning_switch_installs_dst_flows():
    net = build_linear(1, hosts_per_switch=2)
    ctl = YancController(net).start()
    LearningSwitchApp(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    seq = h1.ping(h2.ip)
    ctl.run(2.0)
    assert h1.reachable(seq)
    yc = ctl.client()
    assert any(name.startswith("l2-") for name in yc.flows("sw1"))


def test_arp_responder_answers_from_learned_bindings():
    net = build_linear(1, hosts_per_switch=2)
    ctl = YancController(net).start()
    LearningSwitchApp(ctl.host.process(), ctl.sim).start()
    arpd = ArpResponder(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1, h2 = net.hosts["h1"], net.hosts["h2"]
    # prime: h2's binding learned from its own ARP during first ping
    seq = h1.ping(h2.ip)
    ctl.run(2.0)
    assert h1.reachable(seq)
    assert arpd.bindings[h2.ip] == h2.mac
    # second resolution answered by the controller
    h1.arp_table.clear()
    before = arpd.replies_sent
    seq2 = h1.ping(h2.ip)
    ctl.run(2.0)
    assert h1.reachable(seq2)
    assert arpd.replies_sent > before


def test_a_stalled_arp_responder_is_not_starved_by_beacons_it_never_handles():
    """§3.5: arpd's buffer admits ARP alone, so beacons flowing past the bound while it is stalled cannot crowd out a request."""
    net = build_linear(2)
    ctl = YancController(net).start()
    topod = TopologyDaemon(ctl.host.process(), ctl.sim, beacon_interval=0.01).start()
    arpd = ArpResponder(ctl.host.process(), ctl.sim).start()
    arpd.stop()  # stalled: its buffers stay subscribed, and nothing drains them
    ctl.run(0.01 * (MAX_PENDING_EVENTS + 10))
    assert topod.beacons_received > 2 * MAX_PENDING_EVENTS  # one per switch per round
    driver = ctl.drivers[0]
    dropped = ctl.host.vfs.counters.get(f"events.dropped.{driver.proc_name}")
    net.hosts["h1"].ping(net.hosts["h2"].ip)  # an unknown neighbour: an ARP request first
    ctl.run(0.05)
    events = ctl.client().read_events(ctl.fs_name_of("sw1"), "arpd", consume=False)
    assert [parse_frame(event.data).eth.eth_type for event in events] == [ETH_TYPE_ARP]
    assert ctl.host.vfs.counters.get(f"events.dropped.{driver.proc_name}") == dropped == 0
    assert ctl.host.vfs.counters.get(f"events.filtered.{driver.proc_name}") > 2 * MAX_PENDING_EVENTS


def test_arp_responder_loads_recorded_hosts(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_host("h-static", mac="02:00:00:00:00:77", ip_addr="10.0.0.77")
    arpd = ArpResponder(ctl.host.process(), ctl.sim).start()
    assert arpd.bindings[ip("10.0.0.77")] == "02:00:00:00:00:77"


def test_arp_responder_records_hosts(linear_controller):
    ctl = linear_controller
    ArpResponder(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.ping(h2.ip)  # generates an ARP request packet-in
    ctl.run(1.0)
    assert str(h1.mac) in ctl.client().hosts()


def test_dhcp_discover_offer_cycle(linear_controller):
    ctl = linear_controller
    dhcpd = DhcpServer(ctl.host.process(), ctl.sim, pool="10.1.0.0/28").start()
    ctl.run(0.2)
    h1 = ctl.net.hosts["h1"]
    h1.send_raw(make_discover(h1.mac))
    ctl.run(1.0)
    assert dhcpd.offers_sent == 1
    lease = dhcpd.leases[h1.mac]
    assert lease in dhcpd.pool
    # the offer frame reached the host's NIC (the host has no DHCP client
    # stack, so inspect the frame log rather than the UDP queue)
    from repro.netpkt import Udp

    offers = [f.inner for f in h1.received if isinstance(f.inner, Udp) and f.inner.dst_port == 68]
    assert offers and offers[0].payload == b"DHCPOFFER " + str(lease).encode()


def test_dhcp_same_client_keeps_lease(linear_controller):
    ctl = linear_controller
    dhcpd = DhcpServer(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1 = ctl.net.hosts["h1"]
    h1.send_raw(make_discover(h1.mac))
    ctl.run(0.5)
    first = dhcpd.leases[h1.mac]
    h1.send_raw(make_discover(h1.mac))
    ctl.run(0.5)
    assert dhcpd.leases[h1.mac] == first
    assert len(dhcpd.leases) == 1


def test_dhcp_distinct_clients_distinct_leases(linear_controller):
    ctl = linear_controller
    dhcpd = DhcpServer(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    h1.send_raw(make_discover(h1.mac))
    h2.send_raw(make_discover(h2.mac))
    ctl.run(0.5)
    assert len({dhcpd.leases[h1.mac], dhcpd.leases[h2.mac]}) == 2


def test_dhcp_records_lease_in_hosts_dir(linear_controller):
    ctl = linear_controller
    dhcpd = DhcpServer(ctl.host.process(), ctl.sim).start()
    ctl.run(0.2)
    h1 = ctl.net.hosts["h1"]
    h1.send_raw(make_discover(h1.mac))
    ctl.run(0.5)
    recorded = ctl.host.root_sc.read_text(f"/net/hosts/{h1.mac}/ip").strip()
    assert recorded == str(dhcpd.leases[h1.mac])


def test_dhcp_pool_exhaustion(linear_controller):
    ctl = linear_controller
    dhcpd = DhcpServer(ctl.host.process(), ctl.sim, pool="10.1.0.0/30").start()  # 1 usable after server ip
    ctl.run(0.2)
    from repro.netpkt import MacAddress

    h1 = ctl.net.hosts["h1"]
    for index in range(4):
        h1.send_raw(make_discover(MacAddress(0x0A_00_00_00_10_00 + index)))
    ctl.run(0.5)
    assert len(dhcpd.leases) <= 2
