"""MAC addresses and CIDR helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netpkt import BROADCAST_MAC, MacAddress, cidr, ip


def test_mac_from_string_roundtrip():
    mac = MacAddress("00:1a:2b:3c:4d:5e")
    assert str(mac) == "00:1a:2b:3c:4d:5e"


def test_mac_from_bytes():
    assert MacAddress(b"\x00\x00\x00\x00\x00\x01") == MacAddress(1)


def test_mac_packed():
    assert MacAddress("ff:ff:ff:ff:ff:ff").packed == b"\xff" * 6


def test_mac_malformed_string():
    with pytest.raises(ValueError):
        MacAddress("not-a-mac")


def test_mac_wrong_byte_count():
    with pytest.raises(ValueError):
        MacAddress(b"\x00\x01")


def test_mac_int_out_of_range():
    with pytest.raises(ValueError):
        MacAddress(1 << 48)


def test_mac_broadcast_and_multicast():
    assert BROADCAST_MAC.is_broadcast
    assert BROADCAST_MAC.is_multicast
    assert MacAddress("01:00:5e:00:00:01").is_multicast
    assert not MacAddress("02:00:00:00:00:01").is_multicast


def test_mac_equality_with_string():
    assert MacAddress("aa:bb:cc:dd:ee:ff") == "AA:BB:CC:DD:EE:FF"


def test_mac_ordering_and_hash():
    a, b = MacAddress(1), MacAddress(2)
    assert a < b
    assert len({a, MacAddress(1)}) == 1


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_int_roundtrip(value):
    assert int(MacAddress(value)) == value
    assert MacAddress(str(MacAddress(value))) == MacAddress(value)


def test_cidr_parses_prefix():
    network = cidr("10.0.0.0/8")
    assert ip("10.1.2.3") in network


def test_cidr_bare_address_is_host_route():
    assert cidr("10.0.0.1").prefixlen == 32


def test_cidr_rejects_host_bits():
    with pytest.raises(ValueError):
        cidr("10.0.0.1/8")


def test_ip_returns_an_address_as_it_is():
    address = ip("10.1.2.3")
    assert ip(address) is address
    assert ip(int(address)) == address
