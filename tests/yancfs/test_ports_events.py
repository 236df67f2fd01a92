"""Ports (with peer symlinks, §3.3) and event buffers (§3.5)."""

import pytest

from repro.vfs import InvalidArgument, NotPermitted


@pytest.fixture
def two_switches(yanc_sc, yc):
    yc.create_switch("sw1")
    yc.create_switch("sw2")
    yc.create_port("sw1", 1)
    yc.create_port("sw1", 2)
    yc.create_port("sw2", 1)
    return yanc_sc


def test_port_mkdir_populates(two_switches):
    children = set(two_switches.listdir("/net/switches/sw1/ports/port_1"))
    assert {"counters", "config.port_down", "config.port_status", "hw_addr", "name"} <= children


def test_port_down_idiom(two_switches, yc):
    """The paper's `echo 1 > port_2/config.port_down`."""
    two_switches.write_text("/net/switches/sw1/ports/port_2/config.port_down", "1")
    assert yc.port_is_down("sw1", 2)
    with pytest.raises(InvalidArgument):
        two_switches.write_text("/net/switches/sw1/ports/port_2/config.port_down", "maybe")


def test_peer_symlink_roundtrip(two_switches, yc):
    yc.set_peer("sw1", 1, "sw2", 1)
    assert yc.peer_of("sw1", 1) == "/net/switches/sw2/ports/port_1"
    # the link resolves to a real port directory
    assert "counters" in two_switches.listdir("/net/switches/sw1/ports/port_1/peer")


def test_peer_symlink_replaceable(two_switches, yc):
    yc.set_peer("sw1", 1, "sw2", 1)
    yc.set_peer("sw1", 1, "sw1", 2)  # re-point
    assert yc.peer_of("sw1", 1) == "/net/switches/sw1/ports/port_2"


def test_only_peer_symlinks_allowed_in_ports(two_switches):
    with pytest.raises(NotPermitted):
        two_switches.symlink("/net/switches/sw2", "/net/switches/sw1/ports/port_1/uplink")


def test_no_symlinks_in_switch_dir(two_switches):
    with pytest.raises(NotPermitted):
        two_switches.symlink("/net", "/net/switches/sw1/shortcut")


def test_bad_hw_addr_rejected(two_switches):
    with pytest.raises(InvalidArgument):
        two_switches.write_text("/net/switches/sw1/ports/port_1/hw_addr", "zz:zz")
    two_switches.write_text("/net/switches/sw1/ports/port_1/hw_addr", "02:00:00:00:00:09")


def test_ports_dir_only_holds_port_dirs(two_switches):
    with pytest.raises(NotPermitted):
        two_switches.write_text("/net/switches/sw1/ports/notes.txt", "x")


# -- event buffers ------------------------------------------------------------------


def test_subscribe_creates_private_buffer(two_switches, yc):
    path = yc.subscribe_events("sw1", "router")
    assert path == "/net/switches/sw1/events/router"
    assert two_switches.listdir("/net/switches/sw1/events") == ["router"]


def test_events_dir_only_holds_buffers(two_switches):
    with pytest.raises(NotPermitted):
        two_switches.write_text("/net/switches/sw1/events/file", "x")


def test_packet_in_write_and_read(two_switches, yc):
    yc.subscribe_events("sw1", "app")
    yc.write_packet_in("sw1", "app", 1, in_port=3, reason="no_match", buffer_id=9, total_len=64, data=b"\x00" * 20)
    events = yc.read_events("sw1", "app")
    assert len(events) == 1
    event = events[0]
    assert (event.switch, event.in_port, event.reason, event.buffer_id, event.total_len) == ("sw1", 3, "no_match", 9, 64)
    assert event.data == b"\x00" * 20
    # consumed: buffer is empty again
    assert two_switches.listdir("/net/switches/sw1/events/app") == []


def test_read_events_ordering(two_switches, yc):
    yc.subscribe_events("sw1", "app")
    for seq in (1, 2, 10):  # pi_10 must sort after pi_2 numerically
        yc.write_packet_in("sw1", "app", seq, in_port=seq, reason="no_match", buffer_id=0, total_len=0, data=b"")
    assert [e.in_port for e in yc.read_events("sw1", "app")] == [1, 2, 10]


def test_read_events_peek_mode(two_switches, yc):
    yc.subscribe_events("sw1", "app")
    yc.write_packet_in("sw1", "app", 1, in_port=1, reason="no_match", buffer_id=0, total_len=0, data=b"")
    assert len(yc.read_events("sw1", "app", consume=False)) == 1
    assert len(yc.read_events("sw1", "app")) == 1  # still there


def test_buffers_are_private(two_switches, yc):
    """Section 3.5: each app gets a private buffer."""
    yc.subscribe_events("sw1", "alpha")
    yc.subscribe_events("sw1", "beta")
    yc.write_packet_in("sw1", "alpha", 1, in_port=1, reason="no_match", buffer_id=0, total_len=0, data=b"")
    assert len(yc.read_events("sw1", "alpha")) == 1
    assert yc.read_events("sw1", "beta") == []


def test_unsubscribe_discards_pending(two_switches, yc):
    yc.subscribe_events("sw1", "app")
    yc.write_packet_in("sw1", "app", 1, in_port=1, reason="no_match", buffer_id=0, total_len=0, data=b"")
    yc.unsubscribe_events("sw1", "app")
    assert "app" not in two_switches.listdir("/net/switches/sw1/events")


def test_an_incomplete_event_neither_loses_nor_blocks_its_neighbours(two_switches, yc):
    """A foreign writer that mkdirs ``pi_2`` and is still filling it in (the IN_CREATE half of the buffer mask)."""
    sc = two_switches
    buffer = yc.subscribe_events("sw1", "app")
    for seq in (1, 3):
        yc.write_packet_in("sw1", "app", seq, in_port=seq, reason="no_match", buffer_id=0, total_len=0, data=b"x")
    sc.mkdir(f"{buffer}/pi_2")
    sc.write_text(f"{buffer}/pi_2/in_port", "2")
    sc.mkdir(f"{buffer}/pi_4")  # every field created, one not yet written
    for field in ("in_port", "reason", "buffer_id", "data"):
        sc.write_text(f"{buffer}/pi_4/{field}", "4")
    sc.write_text(f"{buffer}/pi_4/total_len", "")

    assert [e.seq for e in yc.read_events("sw1", "app")] == [1, 3]
    assert sorted(sc.listdir(buffer)) == ["pi_2", "pi_4"]  # left in place, not consumed

    for field, text in (("reason", "no_match"), ("buffer_id", "0"), ("total_len", "0"), ("data", "y")):
        sc.write_text(f"{buffer}/pi_2/{field}", text)
    sc.write_text(f"{buffer}/pi_4/total_len", "4")
    assert [(e.seq, e.in_port) for e in yc.read_events("sw1", "app")] == [(2, 2), (4, 4)]
    assert sc.listdir(buffer) == []
