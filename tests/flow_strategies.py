"""Hypothesis strategies for flow specs, shared by the dataplane and write-pipeline property tests."""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

from hypothesis import strategies as st

from repro.dataplane import FLOOD, Match, Output
from repro.dataplane.actions import Action, SetDlDst, SetNwSrc, SetTpDst, SetVlan, StripVlan
from repro.netpkt import MacAddress

MACS = [MacAddress(i) for i in range(1, 4)]
IPS = [IPv4Address(f"10.0.{i}.{j}") for i in range(2) for j in range(1, 3)]


def matches() -> st.SearchStrategy[Match]:
    maybe = lambda strat: st.one_of(st.none(), strat)  # noqa: E731
    return st.builds(
        Match,
        in_port=maybe(st.integers(min_value=1, max_value=3)),
        dl_src=maybe(st.sampled_from(MACS)),
        dl_dst=maybe(st.sampled_from(MACS)),
        dl_type=maybe(st.sampled_from([0x0800, 0x0806])),
        dl_vlan=maybe(st.integers(min_value=0, max_value=5)),
        nw_src=maybe(st.sampled_from([IPv4Network("10.0.0.0/16"), IPv4Network("10.0.0.0/24"), IPv4Network("10.0.0.1/32")])),
        nw_dst=maybe(st.sampled_from([IPv4Network("10.0.0.0/16"), IPv4Network("10.0.1.0/24")])),
        nw_proto=maybe(st.sampled_from([6, 17])),
        tp_src=maybe(st.integers(min_value=1, max_value=4)),
        tp_dst=maybe(st.sampled_from([22, 80])),
    )


def action_lists() -> st.SearchStrategy[list[Action]]:
    """Zero to four actions, repeats included (the second of a kind becomes ``action.<kind>.<n>``)."""
    one = st.one_of(
        st.builds(Output, st.sampled_from([1, 2, 3, FLOOD])),
        st.builds(SetDlDst, st.sampled_from(MACS)),
        st.builds(SetNwSrc, st.sampled_from(IPS)),
        st.builds(SetTpDst, st.sampled_from([22, 80])),
        st.builds(SetVlan, st.integers(min_value=1, max_value=5)),
        st.just(StripVlan()),
    )
    return st.lists(one, max_size=4)
