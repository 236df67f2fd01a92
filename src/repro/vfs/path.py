"""Path string utilities (purely lexical)."""

from __future__ import annotations

from repro.vfs.errors import InvalidArgument


def split_path(path: str) -> list[str]:
    """Split an absolute path into components; rejects relative paths."""
    if not path or not path.startswith("/"):
        raise InvalidArgument(path, "path must be absolute")
    return [part for part in path.split("/") if part and part != "."]


def clean(path: str) -> str:
    """Collapse duplicate slashes and '.' components; preserve '..'.

    ``/net//switches/./s1`` and ``/net/switches/s1`` become the same string
    (one canonical key for metering and caching) without taking a stance on
    ``..``, which only the resolver can interpret correctly.
    """
    return "/" + "/".join(split_path(path))


def join(base: str, *parts: str) -> str:
    """Join path fragments with single slashes."""
    out = base.rstrip("/")
    for part in parts:
        out += "/" + part.strip("/")
    return out or "/"
