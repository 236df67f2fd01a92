"""The FlowKey contract: a value type that hashes once, when it is built.

A key keeps its fields as given and compares and hashes through one tuple
of plain ints computed at construction, so a flow table's dict probes never
call the address objects' own ``__hash__``/``__eq__``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.netpkt import ETH_TYPE_IPV4, Ethernet, IPv4, MacAddress, Udp, ip, parse_frame
from repro.netpkt.ipv4 import IPPROTO_UDP
from repro.netpkt.packet import FlowKey, build_frame

_FIELDS = ("dl_src", "dl_dst", "dl_type", "dl_vlan", "dl_vlan_pcp", "nw_src", "nw_dst", "nw_proto", "nw_tos", "tp_src", "tp_dst")

MAC_A = MacAddress("02:00:00:00:00:01")
MAC_B = MacAddress("02:00:00:00:00:02")


def _keys() -> st.SearchStrategy[FlowKey]:
    maybe = lambda strat: st.one_of(st.none(), strat)  # noqa: E731
    small = st.integers(min_value=0, max_value=2)
    return st.builds(
        FlowKey,
        dl_src=st.sampled_from([MAC_A, MAC_B]),
        dl_dst=st.sampled_from([MAC_A, MAC_B]),
        dl_type=st.sampled_from([0x0800, 0x0806]),
        dl_vlan=maybe(small),
        dl_vlan_pcp=maybe(small),
        nw_src=maybe(st.sampled_from([ip("10.0.0.1"), ip("10.0.0.2")])),
        nw_dst=maybe(st.sampled_from([ip("10.0.0.1"), ip("10.0.0.2")])),
        nw_proto=maybe(st.sampled_from([6, 17])),
        nw_tos=maybe(small),
        tp_src=maybe(small),
        tp_dst=maybe(small),
    )


def _fields(key: FlowKey) -> tuple:
    return tuple(getattr(key, name) for name in _FIELDS)


@given(a=_keys(), b=_keys())
def test_equal_iff_every_field_is_equal(a, b):
    assert (a == b) is (_fields(a) == _fields(b))
    assert (a != b) is (_fields(a) != _fields(b))
    if a == b:
        assert hash(a) == hash(b)


@given(key=_keys())
def test_the_hash_is_stable_and_a_rebuilt_key_is_the_same_dict_key(key):
    again = FlowKey(*_fields(key))
    assert hash(key) == hash(key) == hash(again)
    assert {key: "entry"}[again] == "entry"


def test_fields_keep_their_types_and_the_cached_ones_stay_out_of_repr():
    key = FlowKey(MAC_A, MAC_B, ETH_TYPE_IPV4, nw_src=ip("10.0.0.1"), nw_dst=ip("10.0.0.2"))
    assert key.dl_src is MAC_A and key.nw_src == ip("10.0.0.1")
    assert "_values" not in repr(key) and "_hash" not in repr(key)


def _udp_frame(dst: str = "10.0.0.2") -> bytes:
    return build_frame(
        Ethernet(dst=MAC_B, src=MAC_A, eth_type=ETH_TYPE_IPV4),
        IPv4(src=ip("10.0.0.1"), dst=ip(dst), proto=IPPROTO_UDP),
        Udp(src_port=4000, dst_port=5000, payload=b"x"),
    )


def test_a_parsed_key_and_a_directly_built_key_are_the_same_dict_key():
    built = FlowKey(
        dl_src=MacAddress(str(MAC_A)),
        dl_dst=MacAddress(str(MAC_B)),
        dl_type=ETH_TYPE_IPV4,
        nw_src=ip("10.0.0.1"),
        nw_dst=ip("10.0.0.2"),
        nw_proto=IPPROTO_UDP,
        nw_tos=0,
        tp_src=4000,
        tp_dst=5000,
    )
    parsed = parse_frame(_udp_frame()).key
    assert parsed == built and hash(parsed) == hash(built)
    assert {(parsed, 1): "winner"}[built, 1] == "winner"


def test_comparing_with_a_non_key_returns_not_implemented():
    key = parse_frame(_udp_frame()).key
    assert key.__eq__(_fields(key)) is NotImplemented
    assert key.__eq__(key._values) is NotImplemented
    assert key != "key" and key != _fields(key)


def test_repack_yields_a_fresh_key():
    frame = parse_frame(_udp_frame())
    before = frame.key
    frame.ipv4.dst = ip("10.0.0.9")
    frame.repack()
    after = frame.key
    assert after is not before and after != before
    assert after.nw_dst == ip("10.0.0.9")
    assert after == parse_frame(frame.raw).key and hash(after) == hash(parse_frame(frame.raw).key)
