"""Figure 3 (right): the flow directory and its commit protocol."""

import pytest

from repro.dataplane import FLOOD, Match, Output, SetNwDst
from repro.netpkt import cidr, ip
from repro.vfs import EventMask, FsError, InvalidArgument, NotPermitted


@pytest.fixture
def sw(yanc_sc, yc):
    yc.create_switch("sw1")
    return yanc_sc


def test_flow_mkdir_populates_counters_and_version(sw):
    sw.mkdir("/net/switches/sw1/flows/arp_flow")
    children = set(sw.listdir("/net/switches/sw1/flows/arp_flow"))
    assert {"counters", "version"} <= children
    assert sw.read_text("/net/switches/sw1/flows/arp_flow/version") == "0"
    assert set(sw.listdir("/net/switches/sw1/flows/arp_flow/counters")) == {"packet_count", "byte_count"}


def test_figure3_flow_files(sw, yc):
    """The exact files of the figure: match.*, action.out, priority,
    timeout, version, counters/."""
    yc.create_flow(
        "sw1",
        "arp_flow",
        Match(dl_type=0x0806, dl_src="02:00:00:00:00:01"),
        [Output(FLOOD)],
        priority=100,
        idle_timeout=30,
    )
    files = set(sw.listdir("/net/switches/sw1/flows/arp_flow"))
    assert {"counters", "match.dl_type", "match.dl_src", "action.out", "priority", "timeout", "version"} <= files


def test_wildcard_is_absence_of_match_file(sw, yc):
    """Section 3.4: 'Absence of a match file implies a wildcard.'"""
    yc.create_flow("sw1", "all", Match(), [Output(1)])
    files = sw.listdir("/net/switches/sw1/flows/all")
    assert not any(name.startswith("match.") for name in files)
    assert yc.read_flow("sw1", "all").match == Match()


def test_cidr_notation_in_match_files(sw, yc):
    """Section 3.4: 'fields such as IP source take the CIDR notation.'"""
    yc.create_flow("sw1", "pfx", Match(nw_src=cidr("10.0.0.0/24")), [Output(1)])
    assert sw.read_text("/net/switches/sw1/flows/pfx/match.nw_src") == "10.0.0.0/24"
    assert yc.read_flow("sw1", "pfx").match.nw_src == cidr("10.0.0.0/24")


def test_version_commit_increments(sw, yc):
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(1)], commit=False)
    assert yc.read_flow("sw1", "f").version == 0
    assert yc.commit_flow("sw1", "f") == 1
    assert yc.commit_flow("sw1", "f") == 2


def test_version_rejects_garbage(sw, yc):
    yc.create_flow("sw1", "f", Match(), [Output(1)])
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/version", "not-a-number")
    assert sw.read_text("/net/switches/sw1/flows/f/version") == "1"


def test_unknown_flow_file_rejected(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/random_name", "x")


def test_flow_subdirectory_rejected(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(NotPermitted):
        sw.mkdir("/net/switches/sw1/flows/f/subdir")


def test_flow_symlink_rejected(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(NotPermitted):
        sw.symlink("/anywhere", "/net/switches/sw1/flows/f/link")


def test_bad_match_content_rolls_back(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    sw.write_text("/net/switches/sw1/flows/f/match.nw_src", "10.0.0.0/24")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/match.nw_src", "999.999.0.0/99")
    assert sw.read_text("/net/switches/sw1/flows/f/match.nw_src") == "10.0.0.0/24"


def test_bad_action_content_rejected(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/action.out", "not-a-port")


def test_priority_range_enforced(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/priority", "70000")
    sw.write_text("/net/switches/sw1/flows/f/priority", "65535")


def test_negative_timeout_rejected(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/timeout", "-1")


def test_the_idle_timeout_has_one_spelling(sw):
    """``timeout`` is the idle timeout (figure 3); a second spelling is not a flow file."""
    sw.mkdir("/net/switches/sw1/flows/f")
    with pytest.raises(InvalidArgument):
        sw.write_text("/net/switches/sw1/flows/f/idle_timeout", "30")
    sw.write_text("/net/switches/sw1/flows/f/timeout", "30")


def test_state_files_free_form(sw):
    sw.mkdir("/net/switches/sw1/flows/f")
    sw.write_text("/net/switches/sw1/flows/f/state.status", "anything goes here")


def test_read_flow_multiple_actions_ordered(sw, yc):
    yc.create_flow("sw1", "multi", Match(dl_type=0x800), [SetNwDst(ip("9.9.9.9")), Output(3)])
    spec = yc.read_flow("sw1", "multi")
    assert spec.actions == (SetNwDst(ip("9.9.9.9")), Output(3))


def test_flow_rmdir_recursive(sw, yc):
    yc.create_flow("sw1", "f", Match(dl_type=0x800), [Output(1)])
    sw.rmdir("/net/switches/sw1/flows/f")
    assert yc.flows("sw1") == []


def test_version_watch_sees_commit(sw, yc):
    """The driver's trigger: a watch on the flow dir sees the version write."""
    yc.create_flow("sw1", "f", Match(), [Output(1)], commit=False)
    ino = sw.inotify_init()
    sw.inotify_add_watch(ino, "/net/switches/sw1/flows/f", EventMask.IN_CLOSE_WRITE)
    yc.commit_flow("sw1", "f")
    names = [e.name for e in sw.inotify_read(ino)]
    assert "version" in names
