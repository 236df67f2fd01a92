"""Link- and network-layer addresses.

IPv4 addressing reuses the standard library's :mod:`ipaddress` module (the
paper's match files take CIDR notation, which ``ip_network`` already
parses); MAC addresses get a small value type of their own.
"""

from __future__ import annotations

import ipaddress
import re
from functools import total_ordering

_MAC_RE = re.compile(r"^[0-9a-fA-F]{2}(:[0-9a-fA-F]{2}){5}$")


@total_ordering
class MacAddress:
    """A 48-bit IEEE MAC address.

    Accepts colon-separated strings, 6-byte sequences, integers, or another
    :class:`MacAddress`.  Instances are immutable, hashable, and ordered.
    """

    __slots__ = ("_value",)

    def __init__(self, value: "MacAddress | str | bytes | int") -> None:
        if isinstance(value, MacAddress):
            self._value = value._value
        elif isinstance(value, str):
            if not _MAC_RE.match(value):
                raise ValueError(f"malformed MAC address: {value!r}")
            self._value = int(value.replace(":", ""), 16)
        elif isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise ValueError(f"MAC address needs 6 bytes, got {len(value)}")
            self._value = int.from_bytes(value, "big")
        elif isinstance(value, int):
            if not 0 <= value < 1 << 48:
                raise ValueError(f"MAC address out of range: {value:#x}")
            self._value = value
        else:
            raise TypeError(f"cannot make a MAC address from {type(value).__name__}")

    @property
    def packed(self) -> bytes:
        """The 6 raw bytes, network order."""
        return self._value.to_bytes(6, "big")

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool(self._value >> 40 & 0x01)

    def __int__(self) -> int:
        return self._value

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        if isinstance(other, str):
            try:
                return self._value == MacAddress(other)._value
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if not isinstance(other, MacAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("MacAddress", self._value))


#: The Ethernet broadcast address.
BROADCAST_MAC = MacAddress("ff:ff:ff:ff:ff:ff")


def ip(value: str | int | ipaddress.IPv4Address) -> ipaddress.IPv4Address:
    """Coerce ``value`` to an :class:`ipaddress.IPv4Address` (one is returned as it is: they are immutable)."""
    return value if isinstance(value, ipaddress.IPv4Address) else ipaddress.IPv4Address(value)


def cidr(value: str | ipaddress.IPv4Network) -> ipaddress.IPv4Network:
    """Parse CIDR notation (``10.0.0.0/8``; a bare address means /32).

    Host bits are rejected (``10.0.0.1/8`` is an error), matching how the
    yanc match files treat malformed CIDR as invalid input.
    """
    return ipaddress.IPv4Network(value)
