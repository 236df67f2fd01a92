"""The trace-point bus: one subscriber registry under every observed layer.

The paper's §5.2 point is that monitoring "comes free" because every
access crosses one boundary.  The layers that form that boundary —
``Syscalls``, the inode/handle layer, the notify hub, the RPC channel,
the ring, ``LibYanc``, the process run loop and the simulator — each
carry first-class *trace points*: places in their own code that report
what is happening to whoever subscribed here.  The dynamic analysis
tools (yancsan, yancrace, yanccrash's recorder, yancsec's monitor) are
nothing but subscribers.

**Idle cost.**  A trace point is guarded by one truthiness test on
:data:`subscribers` (``if _tracing:`` at the site, where ``_tracing`` is
this very list); with nobody subscribed that test is the only work the
bus adds.  The bus never issues a metered call itself.

**Events.**  A subscriber is any object; the bus calls its
``on_<point>`` method when it has one and skips it otherwise.  Two kinds
of point exist:

* *single events* — :func:`publish` at the site, e.g.
  ``on_set_content(inode, data)``;
* *enter/exit pairs* around a whole method — the method's first
  statement hands itself to :func:`around`, which publishes
  ``on_<point>_enter(*info)``, re-enters the method to run its body,
  and publishes ``on_<point>_exit(*info, result, exc)`` — exactly one of
  ``result``/``exc`` is meaningful, and the exit fires even when the
  body raises, so pairs always match up.

Subscribing or unsubscribing takes effect at the next event: a
subscriber added mid-call may see an exit whose enter it missed and
must tolerate that.
"""

from __future__ import annotations

import os
from typing import Any, Callable

#: The one registry.  Sites import this list itself (never a copy) and
#: test its truthiness inline.
subscribers: list[object] = []

class _Handlers(dict):
    """point -> the bound ``on_<point>`` handlers of the current subscribers.

    A dispatch memo derived from the registry (subscription order kept),
    filled on first use and dropped whenever the registry changes, so a
    busy bus does no attribute lookups.
    """

    def __missing__(self, point: str) -> tuple[Callable[..., Any], ...]:
        name = "on_" + point
        found = self[point] = tuple(getattr(s, name) for s in subscribers if hasattr(s, name))
        return found


_handlers = _Handlers()

#: The object whose traced method :func:`around` is re-entering right now.
_reentering: object = None


def subscribe(subscriber: object) -> None:
    """Start delivering events to ``subscriber`` (idempotent)."""
    if subscriber not in subscribers:
        subscribers.append(subscriber)
        _handlers.clear()


def unsubscribe(subscriber: object) -> None:
    """Stop delivering events to ``subscriber`` (no-op when absent)."""
    if subscriber in subscribers:
        subscribers.remove(subscriber)
        _handlers.clear()


def subscribed(kind: type) -> list:
    """The current subscribers that are instances of ``kind``."""
    return [subscriber for subscriber in subscribers if isinstance(subscriber, kind)]


class EnvTool:
    """The lifecycle of a subscriber an environment variable switches on.

    yancsan, yancrace and yancsec each bind one (``YANCSAN``, ``YANCRACE``,
    ``YANCSEC``) and export its methods as their module functions.
    """

    def __init__(self, var: str, kind: type, on_install: Callable[[Any], Any] | None = None) -> None:
        self.var = var
        self.kind = kind
        self.on_install = on_install
        self.tool = None

    def enabled(self) -> bool:
        """True when the environment variable asks for the tool."""
        return os.environ.get(self.var, "") not in ("", "0")

    def install_from_env(self) -> Any:
        """Install (once) the process-wide tool when enabled; None otherwise."""
        if not self.enabled():
            return None
        if self.tool is None:
            self.tool = self.kind()
            self.tool.install()
            if self.on_install is not None:
                self.on_install(self.tool)
        return self.tool

    def active(self) -> Any:
        """The environment-installed tool, if any."""
        return self.tool

    def reset_all(self) -> None:
        """Reset every subscribed tool of this kind (test isolation)."""
        for tool in subscribed(self.kind):
            tool.reset()


def publish(point: str, *args: Any) -> None:
    """Call ``on_<point>(*args)`` on every subscriber that defines it."""
    for handler in _handlers[point]:
        handler(*args)


def entering(obj: object) -> bool:
    """False exactly once: for the re-entry :func:`around` makes on ``obj``.

    A traced method opens with ``if _tracing and entering(self): return
    around(...)``; the re-entrant call falls through that line into the
    body, and every other call (nested ones included) is traced.
    """
    global _reentering
    if _reentering is obj:
        _reentering = None
        return False
    return True


def around(point: str, info: tuple, method: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run ``method(*args, **kwargs)`` between ``point``'s enter and exit events.

    ``info`` is what both events carry; ``info[0]`` is the object whose
    method this is (the one the site passed to :func:`entering`).
    """
    global _reentering
    for handler in _handlers[point + "_enter"]:
        handler(*info)
    _reentering = info[0]
    try:
        result = method(*args, **kwargs)
    except BaseException as exc:
        _reentering = None
        for handler in _handlers[point + "_exit"]:
            handler(*info, None, exc)
        raise
    _reentering = None
    for handler in _handlers[point + "_exit"]:
        handler(*info, result, None)
    return result


__all__ = ["EnvTool", "around", "entering", "publish", "subscribe", "subscribed", "subscribers", "unsubscribe"]
