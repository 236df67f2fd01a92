"""Firewall, load balancer, accounting daemon, auditor."""

import pytest

from repro.apps import (
    AccountingDaemon,
    Firewall,
    LoadBalancer,
    RouterDaemon,
    TopologyDaemon,
    run_audit,
)
from repro.apps.firewall import DENY_PRIORITY
from repro.dataplane import FLOOD, Match, Output, build_linear
from repro.runtime import YancController
from repro.vfs.errors import FsError


# -- firewall ---------------------------------------------------------------------


def test_firewall_installs_drop_flows(linear_controller):
    ctl = linear_controller
    fw = Firewall(ctl.host.process(), ctl.sim).start()
    fw.add_rule("no-telnet", Match(dl_type=0x800, nw_proto=6, tp_dst=23))
    ctl.run(0.3)
    for switch in ctl.net.switches.values():
        entries = switch.table.entries()
        assert len(entries) == 1
        assert entries[0].actions == []  # drop
        assert entries[0].priority == DENY_PRIORITY


def test_firewall_blocks_matching_traffic(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    for sw in yc.switches():
        yc.create_flow(sw, "flood", Match(), [Output(FLOOD)], priority=1)
    fw = Firewall(ctl.host.process(), ctl.sim).start()
    fw.add_rule("no-udp9", Match(dl_type=0x800, nw_proto=17, tp_dst=9))
    ctl.run(0.3)
    h1, h2 = ctl.net.hosts["h1"], ctl.net.hosts["h2"]
    seq = h1.ping(h2.ip)  # ICMP passes
    h1.send_udp(h2.ip, 1, 9, b"blocked")
    h1.send_udp(h2.ip, 1, 10, b"allowed")
    ctl.run(2.0)
    assert h1.reachable(seq)
    ports = [u.dst_port for _s, u in h2.udp_received]
    assert ports == [10]


def test_firewall_applies_to_new_switches(linear_controller):
    ctl = linear_controller
    fw = Firewall(ctl.host.process(), ctl.sim).start()
    fw.add_rule("r", Match(tp_dst=23, nw_proto=6, dl_type=0x800))
    ctl.run(0.2)
    new_switch = ctl.net.add_switch("late")
    ctl.drivers[0].attach_switch(new_switch)
    ctl.run(0.3)
    assert len(new_switch.table) == 1


def test_firewall_remove_rule(linear_controller):
    ctl = linear_controller
    fw = Firewall(ctl.host.process(), ctl.sim).start()
    fw.add_rule("r", Match(tp_dst=23, nw_proto=6, dl_type=0x800))
    ctl.run(0.3)
    fw.remove_rule("r")
    ctl.run(0.3)
    assert all(len(sw.table) == 0 for sw in ctl.net.switches.values())


def test_firewall_config_file(linear_controller):
    ctl = linear_controller
    sc = ctl.host.process()
    sc.write_text(
        "/tmp/firewall.conf",
        """
        [no-ssh]
        match.dl_type = 0x800
        match.nw_proto = 6
        match.tp_dst = 22
        [no-telnet]
        match.dl_type = 0x800
        match.nw_proto = 6
        match.tp_dst = 23
        """,
    )
    fw = Firewall(sc, ctl.sim, config_path="/tmp/firewall.conf").start()
    ctl.run(0.3)
    assert len(fw.rules) == 2
    assert len(ctl.net.switches["sw1"].table) == 2


# -- load balancer -----------------------------------------------------------------


@pytest.fixture
def lb_rig():
    """One switch, one client, two backends."""
    net = build_linear(1, hosts_per_switch=3)
    ctl = YancController(net).start()
    client, b1, b2 = net.hosts["h1"], net.hosts["h2"], net.hosts["h3"]
    lb = LoadBalancer(ctl.host.process(), ctl.sim, vip="10.99.0.1").start()
    host_ports = net.host_ports()
    lb.add_backend(str(b1.ip), str(b1.mac), "sw1", host_ports["h2"][1])
    lb.add_backend(str(b2.ip), str(b2.mac), "sw1", host_ports["h3"][1])
    ctl.run(0.2)
    return ctl, lb, client, b1, b2


def test_lb_first_packet_rewritten_to_backend(lb_rig):
    ctl, lb, client, b1, _b2 = lb_rig
    client.arp_table[__import__("ipaddress").IPv4Address("10.99.0.1")] = b1.mac  # skip ARP for the VIP
    client.send_udp("10.99.0.1", 5555, 80, b"request")
    ctl.run(1.0)
    assert lb.connections_balanced == 1
    assert len(b1.udp_received) == 1
    assert b1.udp_received[0][1].payload == b"request"


def test_lb_round_robin_across_clients(lb_rig):
    ctl, lb, client, b1, b2 = lb_rig
    import ipaddress

    vip = ipaddress.IPv4Address("10.99.0.1")
    client.arp_table[vip] = b1.mac
    client.send_udp("10.99.0.1", 5555, 80, b"c1")
    ctl.run(0.5)
    # second "client": spoof a different source IP from the same host
    from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, Udp
    from repro.netpkt.packet import build_frame

    spoofed = build_frame(
        Ethernet(dst=b1.mac, src=client.mac, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ipaddress.IPv4Address("10.0.0.200"), dst=vip, proto=17),
        Udp(src_port=1, dst_port=80, payload=b"c2"),
    )
    client.send_raw(spoofed)
    ctl.run(0.5)
    backends_hit = {len(b1.udp_received) > 0, len(b2.udp_received) > 0}
    assert backends_hit == {True}
    assert lb.connections_balanced == 2
    assert len(lb.assignments) == 2


def test_lb_sticky_per_client(lb_rig):
    ctl, lb, client, b1, _b2 = lb_rig
    import ipaddress

    client.arp_table[ipaddress.IPv4Address("10.99.0.1")] = b1.mac
    client.send_udp("10.99.0.1", 5555, 80, b"one")
    ctl.run(0.5)
    first = lb.assignments[client.ip]
    client.send_udp("10.99.0.1", 5556, 80, b"two")
    ctl.run(0.5)
    assert lb.assignments[client.ip] is first


# -- accounting --------------------------------------------------------------------


def test_accounting_samples_ports_and_flows(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(2)], priority=2)
    acct = AccountingDaemon(ctl.host.process(), ctl.sim, interval=0.5).start()
    ctl.run(1.6)
    records = acct.records()
    assert acct.samples_taken >= 2
    assert any("flow:f" in line for line in records)
    assert any("port_1" in line for line in records)


def test_accounting_log_is_plain_unix_file(linear_controller):
    ctl = linear_controller
    acct = AccountingDaemon(ctl.host.process(), ctl.sim, interval=0.5).start()
    ctl.run(1.0)
    content = ctl.host.root_sc.read_text("/var/log/yanc-accounting.log")
    assert content.strip()


def loop_sample(yc, now: float) -> list[str]:
    """The sample as it was, a system call per step: the reference the ring's two submissions must reproduce."""
    lines = []
    for switch in yc.switches():
        try:
            for port_name in yc.ports(switch):
                counters = yc.port_counters(switch, port_name)
                lines.append(
                    f"{now:.3f} {switch} {port_name} "
                    f"rx={counters.get('rx_packets', 0)} tx={counters.get('tx_packets', 0)} "
                    f"rxb={counters.get('rx_bytes', 0)} txb={counters.get('tx_bytes', 0)}"
                )
            for flow_name in yc.flows(switch):
                counters = yc.flow_counters(switch, flow_name)
                lines.append(f"{now:.3f} {switch} flow:{flow_name} pkts={counters.get('packet_count', 0)} bytes={counters.get('byte_count', 0)}")
        except FsError:
            continue
    return lines


def test_accounting_logs_what_a_call_per_step_logged_in_two_ring_crossings(linear_controller):
    ctl = linear_controller
    yc, sc = ctl.client(), ctl.host.root_sc
    for switch in yc.switches():
        for index in range(3):
            yc.create_flow(switch, f"f{index}", Match(dl_type=0x800, nw_proto=17, tp_dst=1000 + index), [Output(FLOOD)], priority=2)
    ctl.net.hosts["h1"].ping(ctl.net.hosts["h3"].ip)
    ctl.run(2.5)  # stats sweeps write the counters
    sc.rmdir(f"{yc.flow_path('sw2', 'f1')}/counters")  # sw2 is logged up to f1, as a call per step stops there
    sc.write_text(f"{yc.port_path('sw3', 1)}/counters/rx_packets", "")  # an empty counter reads 0
    acct = AccountingDaemon(ctl.host.process(), ctl.sim, interval=60.0).start()
    meter = acct.sc.meter
    before = meter.syscalls
    acct.sample()
    crossings = meter.syscalls - before - meter.counters.get("syscall.io_uring_setup")  # the process's ring is set up on first use
    assert crossings == 1 + 2 + 3  # list switches/, two submissions, append the log
    records = acct.records()
    assert records == loop_sample(yc, ctl.sim.now)
    assert [line.split()[1:3] for line in records if line.split()[1] == "sw2"][-1] == ["sw2", "flow:f0"]
    assert [line.split()[3] for line in records if line.split()[1:3] == ["sw3", "port_1"]] == ["rx=0"]


# -- auditor -----------------------------------------------------------------------


def test_audit_clean_network(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_flow("sw1", "good", Match(dl_type=0x800), [Output(2)], priority=4)
    report = run_audit(ctl.host.process(), clock=ctl.sim.now)
    assert report.clean
    assert report.switches_checked == 3
    assert report.flows_checked == 1


def test_audit_flags_actionless_flow(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_flow("sw1", "noop", Match(dl_type=0x800), [], priority=4)
    report = run_audit(ctl.host.process())
    assert any("no actions" in finding for finding in report.findings)


def test_audit_accepts_firewall_drops(linear_controller):
    ctl = linear_controller
    fw = Firewall(ctl.host.process(), ctl.sim).start()
    fw.add_rule("blk", Match(dl_type=0x800, tp_dst=23, nw_proto=6))
    ctl.run(0.2)
    report = run_audit(ctl.host.process())
    assert report.clean


def test_audit_flags_duplicates(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_flow("sw1", "a", Match(dl_type=0x800), [Output(1)], priority=4)
    yc.create_flow("sw1", "b", Match(dl_type=0x800), [Output(2)], priority=4)
    report = run_audit(ctl.host.process())
    assert any("duplicates" in finding for finding in report.findings)


def test_audit_flags_match_all_flow(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.create_flow("sw1", "everything", Match(), [Output(1)], priority=4)
    report = run_audit(ctl.host.process())
    assert any("matches everything" in finding for finding in report.findings)


def test_audit_flags_asymmetric_peer(linear_controller):
    ctl = linear_controller
    yc = ctl.client()
    yc.set_peer("sw1", 1, "sw2", 1)  # one direction only
    report = run_audit(ctl.host.process())
    assert any("asymmetric" in finding for finding in report.findings)


def test_audit_writes_report_file(linear_controller):
    ctl = linear_controller
    sc = ctl.host.process()
    run_audit(sc, report_path="/var/audit.txt", clock=1.5)
    text = sc.read_text("/var/audit.txt")
    assert "yanc audit @ t=1.500" in text


def test_audit_from_cron(linear_controller):
    from repro.proc import Cron

    ctl = linear_controller
    sc = ctl.host.process()
    cron = Cron(ctl.sim)
    reports = []
    cron.add_job("audit", 1.0, lambda: reports.append(run_audit(sc, clock=ctl.sim.now)))
    ctl.run(3.5)
    cron.stop()
    assert len(reports) == 3
    assert all(r.clean for r in reports)
