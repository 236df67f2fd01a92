"""YancClient path helpers and composite operations."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataplane import Match, Output
from repro.yancfs import YancClient
from repro.yancfs.client import parse_packet_out_name


def test_path_helpers(yc):
    assert yc.switch_path("sw1") == "/net/switches/sw1"
    assert yc.flow_path("sw1", "f") == "/net/switches/sw1/flows/f"
    assert yc.port_path("sw1", 3) == "/net/switches/sw1/ports/port_3"
    assert yc.port_path("sw1", "port_3") == "/net/switches/sw1/ports/port_3"
    assert yc.events_path("sw1", "app") == "/net/switches/sw1/events/app"


def test_view_path_nesting(yc):
    assert yc.view_path("a") == "/net/views/a"
    assert yc.view_path("a", "b") == "/net/views/a/views/b"
    nested = yc.in_view("a", "b")
    assert nested.root == "/net/views/a/views/b"
    assert nested.switch_path("sw1") == "/net/views/a/views/b/switches/sw1"


def test_in_view_client_operates_in_subtree(yc):
    yc.create_view("outer")
    inner_client = yc.in_view("outer").create_view("inner")
    assert inner_client.root == "/net/views/outer/views/inner"
    assert yc.sc.exists("/net/views/outer/views/inner/switches")


def test_views_lists_direct_children_only(yc):
    assert yc.views() == []
    yc.create_view("b")
    yc.create_view("a").create_view("nested")
    assert yc.views() == ["a", "b"]
    assert yc.in_view("a").views() == ["nested"]


def test_delete_switch_removes_the_whole_subtree(yc):
    # §3.2: rmdir on a switch is recursive — flows and ports go with it.
    yc.create_switch("sw1", dpid=1)
    yc.create_flow("sw1", "f1", Match(in_port=1), [Output(2)])
    yc.create_switch("sw2")
    yc.delete_switch("sw1")
    assert yc.switches() == ["sw2"]
    assert not yc.sc.exists(yc.flow_path("sw1", "f1"))


def test_custom_root_normalization(yanc_sc):
    client = YancClient(yanc_sc, "/net/")
    assert client.root == "/net"


def test_switch_dpid_default_zero(yc):
    yc.create_switch("sw-nodpid")
    assert yc.switch_dpid("sw-nodpid") == 0


def test_create_flow_without_optional_fields(yc):
    yc.create_switch("sw1")
    yc.create_flow("sw1", "bare", Match(dl_type=0x800), [Output(1)])
    spec = yc.read_flow("sw1", "bare")
    assert spec.priority == 0x8000  # OpenFlow default
    assert spec.idle_timeout == 0.0
    assert spec.hard_timeout == 0.0
    files = yc.sc.listdir(yc.flow_path("sw1", "bare"))
    assert "priority" not in files  # optional attributes stay absent


def test_hosts_roundtrip(yc):
    yc.create_host("h1", mac="02:00:00:00:00:01", ip_addr="10.0.0.1", attached_to="sw1:2")
    assert yc.hosts() == ["h1"]
    assert yc.sc.read_text("/net/hosts/h1/attached_to") == "sw1:2"


def test_flow_counters_missing_flow_raises(yc):
    yc.create_switch("sw1")
    from repro.vfs import FileNotFound

    with pytest.raises(FileNotFound):
        yc.flow_counters("sw1", "ghost")


def test_packet_out_tokens(yc):
    yc.create_switch("sw1")
    path = yc.packet_out("sw1", [3, "flood"], b"frame", in_port=2, buffer_id=9, tag="me")
    name = path.rsplit("/", 1)[-1]
    assert name.startswith("p3.flood.in2.b9.me.")
    assert yc.sc.read_bytes(path) == b"frame"


class _SpoolOnly:
    """Just enough syscall context for ``packet_out``: it writes one file."""

    def write_bytes(self, path: str, data: bytes) -> None:
        self.written = (path, data)


_PORTS = st.lists(st.integers(0, 0xFFFF) | st.sampled_from(["flood", "all"]), max_size=4)
_OPTIONAL = st.none() | st.integers(0, 0xFFFFFFFF)
# any tag an app may pick, as long as it does not itself spell a destination token
_TAGS = st.text(string.ascii_lowercase + string.digits + "_-", min_size=1, max_size=8).filter(lambda tag: parse_packet_out_name(tag) == ((), None, None))


@given(ports=_PORTS, in_port=_OPTIONAL, buffer_id=_OPTIONAL, tag=_TAGS)
def test_spool_name_parses_back_to_what_packet_out_was_given(ports, in_port, buffer_id, tag):
    """One formatter (``YancClient.packet_out``), one parser: every consumer reads the same destination."""
    yc = YancClient(_SpoolOnly())
    path = yc.packet_out("sw1", ports, b"frame", in_port=in_port, buffer_id=buffer_id, tag=tag)
    assert parse_packet_out_name(path.rsplit("/", 1)[-1]) == (tuple(ports), in_port, buffer_id)
    assert yc.sc.written == (path, b"frame")


def test_spool_name_unknown_tokens_are_ignored():
    assert parse_packet_out_name("nonsense.tag.1") == ((), None, None)
    assert parse_packet_out_name("p2.px.inx.b.bogus.in3.all.7") == ((2, "all"), 3, None)


def test_read_events_skips_nothing_on_empty(yc):
    yc.create_switch("sw1")
    yc.subscribe_events("sw1", "app")
    assert yc.read_events("sw1", "app") == []


def test_commit_flow_on_fresh_dir(yc):
    yc.create_switch("sw1")
    yc.sc.mkdir(yc.flow_path("sw1", "manual"))
    assert yc.commit_flow("sw1", "manual") == 1
