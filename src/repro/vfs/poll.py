"""Readiness polling: epoll over event-queue descriptors.

The paper's applications are ordinary processes, and an ordinary process
does not poll each notification descriptor separately — it parks in one
``epoll_wait`` covering everything it watches and is woken once, whatever
fired.  :class:`Epoll` reproduces that: any :class:`Pollable` (an inotify
instance, a shared-memory ring) can be
registered, and a single wakeup callback covers the whole set.

Semantics follow Linux epoll where it matters here:

* **level-triggered wait** — :meth:`Epoll.wait` reports every registered
  pollable that currently has data, so a consumer that failed to drain
  fully is re-told on the next wait instead of hanging;
* **edge-triggered wakeup** — the ``wakeup`` callback fires only when the
  ready set goes empty -> non-empty, so a burst of deliveries costs one
  scheduled process wakeup, not one per event.
"""

from __future__ import annotations

from typing import Callable

from repro.vfs.errors import InvalidArgument

#: epoll_ctl(2) operations (same meaning as EPOLL_CTL_ADD / EPOLL_CTL_DEL).
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2


class Pollable:
    """What an :class:`Epoll` can watch: ``readable()``, and who to tell on the empty -> non-empty edge."""

    def __init__(self) -> None:
        self._pollers: list[Epoll] = []  # the Epoll instances watching this descriptor

    def readable(self) -> bool:
        """True when there is something to read (each subclass says when)."""
        raise NotImplementedError

    def poll_register(self, poller: "Epoll") -> None:
        """An :class:`Epoll` started watching this descriptor."""
        if poller not in self._pollers:
            self._pollers.append(poller)

    def poll_unregister(self, poller: "Epoll") -> None:
        """An :class:`Epoll` stopped watching this descriptor (no-op when it was not)."""
        if poller in self._pollers:
            self._pollers.remove(poller)

    def _notify_pollers(self) -> None:
        """Tell every watcher; a subclass calls this when it goes empty -> non-empty."""
        for poller in list(self._pollers):
            poller.notify_readable(self)


class Epoll:
    """One epoll instance: a set of pollables and a shared wakeup."""

    def __init__(self) -> None:
        #: id(pollable) -> (pollable, user data returned by wait()).
        self._entries: dict[int, tuple[object, object]] = {}
        #: Keys that signalled readiness since the last wait (insertion
        #: ordered, for deterministic wait() output).
        self._ready: dict[int, None] = {}
        self._closed = False
        #: Called once when the ready set goes empty -> non-empty; the
        #: process runtime points this at its wakeup scheduler.
        self.wakeup: Callable[[], None] | None = None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, pollable: object, data: object | None = None) -> None:
        """Register ``pollable``; ``data`` is what :meth:`wait` reports.

        Registering an already-watched pollable raises (epoll's EEXIST).
        """
        if self._closed:
            raise InvalidArgument(detail="epoll instance is closed")
        key = id(pollable)
        if key in self._entries:
            raise InvalidArgument(detail="pollable already registered")
        self._entries[key] = (pollable, pollable if data is None else data)
        pollable.poll_register(self)
        if pollable.readable():
            self.notify_readable(pollable)

    def remove(self, pollable: object) -> None:
        """Unregister ``pollable``; raises when it was never added."""
        key = id(pollable)
        if key not in self._entries:
            raise InvalidArgument(detail="pollable not registered")
        del self._entries[key]
        self._ready.pop(key, None)
        pollable.poll_unregister(self)

    def pollables(self) -> list[object]:
        """Every registered pollable, in registration order.

        Introspection for observers (yancrace maps a ready descriptor back
        to the clock its emitters released); not part of the epoll API.
        """
        return [pollable for pollable, _data in self._entries.values()]

    def notify_readable(self, pollable: object) -> None:
        """Pollable-side upcall: ``pollable`` went empty -> non-empty."""
        key = id(pollable)
        if key not in self._entries or self._closed:
            return
        was_idle = not self._ready
        self._ready[key] = None
        if was_idle and self.wakeup is not None:
            self.wakeup()

    def wait(self) -> list[object]:
        """Report the ``data`` of every pollable that has events queued.

        Level-triggered: anything still readable is reported even if its
        edge notification was consumed by an earlier wait.  Returns an
        empty list when nothing is ready (a real process would block).
        """
        signalled = list(self._ready)
        self._ready.clear()
        order = signalled + [key for key in self._entries if key not in set(signalled)]
        out = []
        for key in order:
            entry = self._entries.get(key)
            if entry is None:
                continue
            pollable, data = entry
            if pollable.readable():
                out.append(data)
        return out

    def close(self) -> None:
        """Unregister everything; further adds are rejected."""
        for pollable, _data in list(self._entries.values()):
            pollable.poll_unregister(self)
        self._entries.clear()
        self._ready.clear()
        self._closed = True
