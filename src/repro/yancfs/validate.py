"""Content validators for yanc attribute files.

Attribute files validate on close (the natural boundary of the
``echo value > file`` idiom): a write whose content does not parse is
rejected with EINVAL and the previous content is restored, so the tree
never holds an unparseable configuration.
"""

from __future__ import annotations

from typing import Callable

from repro.dataplane.actions import parse_action
from repro.dataplane.match import MATCH_FIELD_NAMES
from repro.netpkt.addr import MacAddress, cidr, ip
from repro.vfs.errors import InvalidArgument

Validator = Callable[[str], None]


def _int_in_range(low: int, high: int) -> Validator:
    def check(text: str) -> None:
        try:
            value = int(text.strip() or "0", 0)
        except ValueError:
            raise InvalidArgument(detail=f"not an integer: {text!r}") from None
        if not low <= value <= high:
            raise InvalidArgument(detail=f"value {value} outside [{low}, {high}]")

    return check


def non_negative_float(text: str) -> None:
    """Timeout files: a non-negative number of seconds."""
    try:
        value = float(text.strip() or "0")
    except ValueError:
        raise InvalidArgument(detail=f"not a number: {text!r}") from None
    if value < 0:
        raise InvalidArgument(detail="timeout must be >= 0")


def version_number(text: str) -> None:
    """The flow ``version`` file: a non-negative integer."""
    _int_in_range(0, 2**63 - 1)(text)


def counter_value(text: str) -> None:
    """Counter files: a non-negative integer (decimal or 0x-hex)."""
    _int_in_range(0, 2**64 - 1)(text)


def port_status(text: str) -> None:
    """The ``config.port_status`` file: ``up`` or ``down``."""
    value = text.strip()
    if value not in ("up", "down", ""):
        raise InvalidArgument(detail=f"port status must be 'up' or 'down', got {text!r}")


def action_vocabulary(text: str) -> None:
    """The switch ``actions`` file: a comma-separated list of action kinds."""
    for token in text.strip().split(","):
        token = token.strip()
        if token and not token.replace("_", "").isalnum():
            raise InvalidArgument(detail=f"malformed action kind {token!r}")


def boolean_flag(text: str) -> None:
    """Config flags such as ``config.port_down``: 0 or 1."""
    value = text.strip()
    if value not in ("0", "1", ""):
        raise InvalidArgument(detail=f"flag must be 0 or 1, got {text!r}")


def mac_address(text: str) -> None:
    """A MAC address in colon notation."""
    try:
        MacAddress(text.strip())
    except ValueError as exc:
        raise InvalidArgument(detail=str(exc)) from None


def ipv4_address(text: str) -> None:
    """A dotted-quad IPv4 address."""
    try:
        ip(text.strip())
    except ValueError as exc:
        raise InvalidArgument(detail=str(exc)) from None


def match_field(name: str) -> Validator:
    """Validator for ``match.<name>`` file content."""
    field = name[len("match.") :]
    if field not in MATCH_FIELD_NAMES:
        raise InvalidArgument(name, "unknown match field")

    def check(text: str) -> None:
        text = text.strip()
        if not text:
            raise InvalidArgument(detail=f"empty {name}")
        try:
            if field in ("dl_src", "dl_dst"):
                MacAddress(text)
            elif field in ("nw_src", "nw_dst"):
                cidr(text)
            else:
                int(text, 0)
        except ValueError as exc:
            raise InvalidArgument(detail=f"{name}: {exc}") from None

    return check


def action_field(name: str) -> Validator:
    """Validator for ``action.<name>`` file content.

    A trailing numeric segment orders multiple actions of one flow
    (``action.out``, ``action.out.1``, ...) and is not part of the kind.
    """
    base, _, suffix = name.rpartition(".")
    if base and suffix.isdigit():
        name = base

    def check(text: str) -> None:
        try:
            parse_action(name, text)
        except ValueError as exc:
            raise InvalidArgument(detail=str(exc)) from None

    return check


#: Validators for the well-known flow attribute files.
FLOW_ATTRIBUTE_VALIDATORS: dict[str, Validator] = {
    "priority": _int_in_range(0, 0xFFFF),
    "timeout": non_negative_float,  # idle timeout (paper figure 3)
    "hard_timeout": non_negative_float,
    "cookie": _int_in_range(0, 2**64 - 1),
    "version": version_number,
}

#: Validators for the well-known port attribute files.
PORT_ATTRIBUTE_VALIDATORS: dict[str, Validator] = {
    "config.port_down": boolean_flag,
    "config.port_status": port_status,
    "hw_addr": mac_address,
}

#: Validators for the switch attribute files (paper figure 3, left).
SWITCH_ATTRIBUTE_VALIDATORS: dict[str, Validator] = {
    "actions": action_vocabulary,
    "capabilities": _int_in_range(0, 2**32 - 1),
    "id": _int_in_range(0, 2**64 - 1),
    "num_buffers": _int_in_range(0, 2**32 - 1),
}

#: Attribute files that are deliberately free-form text.  The
#: ``schema-coverage`` lint rule requires every attribute file to either
#: carry a validator or appear here — so adding a schema file forces an
#: explicit decision about its vocabulary.
FREE_FORM_ATTRIBUTES = frozenset({"name", "type", "public_ip"})

#: Validators for host attribute files.
HOST_ATTRIBUTE_VALIDATORS: dict[str, Validator] = {
    "mac": mac_address,
    "ip": ipv4_address,
}


def flow_file_validator(name: str) -> Validator | None:
    """The validator for a file created inside a flow directory.

    Returns None for driver-written bookkeeping files; raises
    InvalidArgument for names no flow may contain.
    """
    if name in FLOW_ATTRIBUTE_VALIDATORS:
        return FLOW_ATTRIBUTE_VALIDATORS[name]
    if name.startswith("match."):
        return match_field(name)
    if name.startswith("action."):
        return action_field(name)
    if name.startswith("state."):
        return None  # driver-maintained status files are free-form
    raise InvalidArgument(name, "not a valid flow attribute file")
