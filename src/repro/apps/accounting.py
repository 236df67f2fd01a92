"""The accounting daemon: periodic usage records from tree counters.

One of the paper's "master applications" (figure 1 lists accounting next
to topology discovery).  It scans every switch's port and flow counters on
an interval and appends one line per sample to a log file on the *root*
file system — yanc state in, ordinary Unix log out.
"""

from __future__ import annotations

from typing import Iterator

from repro.apps.base import YancApp
from repro.vfs.errors import FsError
from repro.yancfs.client import counter_values, object_files

#: The directories of a switch whose objects carry ``counters/``, in log order.
_KINDS = ("ports", "flows")


class AccountingDaemon(YancApp):
    """Sample counters -> append usage records to a log file."""

    app_name = "acctd"

    def __init__(self, sc, sim, *, root: str = "/net", log_path: str = "/var/log/yanc-accounting.log", interval: float = 1.0) -> None:
        super().__init__(sc, sim, root=root)
        self.log_path = log_path
        self.interval = interval
        self.samples_taken = 0

    def on_start(self) -> None:
        log_dir = self.log_path.rsplit("/", 1)[0]
        if log_dir and not self.sc.exists(log_dir):
            self.sc.makedirs(log_dir)
        if not self.sc.exists(self.log_path):
            self.sc.write_text(self.log_path, "")
        self.every(self.interval, self.sample)

    def sample(self) -> None:
        """Take one fleet-wide counter sample.

        A listing of ``switches/``, then two ring submissions: one lists
        every switch's ``ports/`` and ``flows/``, one reads every
        ``counters/`` directory they name.  A switch is logged up to the
        first of those it could not read, as a call per step stops there.
        """
        now = self.sim.now
        try:
            switches = self.yc.switches()
        except FsError:
            return
        listed = self._read("listdir", [((switch, kind), f"{self.yc.switch_path(switch)}/{kind}") for switch in switches for kind in _KINDS])
        counters = self._read(
            "readdirplus",
            [
                ((switch, kind, name), f"{self.yc.switch_path(switch)}/{kind}/{name}/counters")
                for (switch, kind), names in listed.items()
                if names is not None
                for name in names
            ],
        )
        lines = [line for switch in switches for line in _switch_lines(now, switch, listed, counters)]
        if lines:
            self.sc.write_text(self.log_path, "\n".join(lines) + "\n", append=True)
            self.samples_taken += 1

    def _read(self, op: str, reads: list[tuple[tuple, str]]) -> dict[tuple, list | None]:
        """One ``op`` per ``(key, path)``, in one submission (the ring submits when full); each key's result, None where it failed."""
        batch = self.ring.batch()
        for key, path in reads:
            batch.prep(op, path, user_data=key)
        return {cqe.user_data: cqe.result if cqe.ok else None for cqe in batch.submit()}

    def records(self) -> list[str]:
        """All usage records logged so far."""
        try:
            return [line for line in self.sc.read_text(self.log_path).splitlines() if line]
        except FsError:
            return []


def _switch_lines(now: float, switch: str, listed: dict, counters: dict) -> Iterator[str]:
    """One switch's usage records: every port, then every flow, by name, up to the first directory that could not be read."""
    for kind in _KINDS:
        names = listed[switch, kind]
        if names is None:
            return
        for name in sorted(names):
            entries = counters[switch, kind, name]
            if entries is None:
                return
            values = counter_values(object_files(entries))
            if kind == "ports":
                yield (
                    f"{now:.3f} {switch} {name} "
                    f"rx={values.get('rx_packets', 0)} tx={values.get('tx_packets', 0)} "
                    f"rxb={values.get('rx_bytes', 0)} txb={values.get('tx_bytes', 0)}"
                )
            else:
                yield f"{now:.3f} {switch} flow:{name} pkts={values.get('packet_count', 0)} bytes={values.get('byte_count', 0)}"
