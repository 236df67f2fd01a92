"""Mount-time crash recovery for the yanc tree (fsck for §3.4/§3.5 state).

Every publication protocol in the tree stages state before making it
visible: maildir publishers assemble entries under a dot-prefixed temp
name and ``rename()`` them into place, and flow creation writes spec
files into a flow directory whose ``version`` file still reads ``0``
(drivers ignore version-0 flows).  A crash between staging and
publication therefore leaves exactly two kinds of debris:

* **stale dot-entries** — a dot-temp the publisher never renamed.
  Readers skip them by convention, but nothing ever removes them: a
  crashed publisher leaks its temp forever.
* **half-staged flows** — a flow directory whose ``version`` never left
  ``0`` (or was never written / is unparseable).  The §3.4 contract says
  such a flow was never visible, so discarding it loses nothing.

:func:`fsck` sweeps both.  It runs from :func:`~repro.yancfs.client.mount_yancfs`
on every mount (a fresh mount is empty, so the sweep is a handful of
``scandir`` calls).  The sweep is a function of the tree alone, so its
completeness is stated once, as a property over random trees: its
``dry_run`` report equals an independent reference walk, and after a real
sweep that walk finds no debris (``tests/yancfs/test_recovery.py``).

The sweep never touches committed state: an entry is removed only when
it is dot-prefixed or a version-0 flow directory, and every removal is
recorded in the returned :class:`FsckReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vfs.errors import DirectoryNotEmpty, FsError
from repro.vfs.stat import FileType

#: Path prefixes whose staged dot-entries this module's sweep recovers.
#: The yanccrash static pass reads these declarations project-wide when
#: judging ``unrecovered-staging``.
YANCCRASH_RECOVERS = ("/net",)


@dataclass
class FsckReport:
    """What one recovery sweep found (and, unless ``dry_run``, removed)."""

    root: str
    dry_run: bool = False
    #: Stale dot-entries (files or whole directories), absolute paths.
    stale_entries: list[str] = field(default_factory=list)
    #: Flow directories discarded because their version never left 0.
    torn_flows: list[str] = field(default_factory=list)
    #: Paths the sweep wanted to remove but could not (FsError text).
    failures: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the tree needed no recovery at all."""
        return not (self.stale_entries or self.torn_flows or self.failures)

    def removed(self) -> list[str]:
        """Everything the sweep removed (or would remove, in dry-run)."""
        return [*self.stale_entries, *self.torn_flows]


def flow_version(sc, flow_path: str) -> int:
    """A flow directory's committed version; 0 when missing/unparseable."""
    try:
        text = sc.read_text(f"{flow_path}/version")
    except FsError:
        return 0
    try:
        return int(text.strip() or "0", 0)
    except ValueError:
        return 0


def fsck(sc, root: str = "/net", *, dry_run: bool = False) -> FsckReport:
    """Sweep crash debris under ``root``; see the module docstring.

    ``dry_run`` reports what a recovery would remove without mutating
    the tree.
    """
    report = FsckReport(root=root, dry_run=dry_run)
    try:
        sc.stat(root)
    except FsError:
        return report  # nothing mounted here: vacuously recovered
    _sweep_dir(sc, root, report, in_flows=False)
    return report


def _sweep_dir(sc, path: str, report: FsckReport, *, in_flows: bool) -> None:
    try:
        entries = sc.scandir(path)
    except FsError:
        return
    for name, st in entries:  # yancperf: disable=syscall-in-loop (recovery IS a tree walk, once per mount)
        child = f"{path}/{name}"
        if name.startswith("."):
            report.stale_entries.append(child)
            _remove(sc, child, st.ftype is FileType.DIRECTORY, report)
            continue
        if st.ftype is not FileType.DIRECTORY:
            continue
        if in_flows and flow_version(sc, child) == 0:
            report.torn_flows.append(child)
            _remove(sc, child, True, report)
            continue
        _sweep_dir(sc, child, report, in_flows=(name == "flows"))


def _remove(sc, path: str, is_dir: bool, report: FsckReport) -> None:
    if report.dry_run:
        return
    try:
        if not is_dir:
            sc.unlink(path)
            return
        try:
            sc.rmdir(path)  # recursive for a yanc object directory
        except DirectoryNotEmpty:  # a plain one with content: emptied depth-first
            for name, st in sc.scandir(path):  # yancperf: disable=syscall-in-loop (a staged plain directory with content, once per mount)
                _remove(sc, f"{path}/{name}", st.ftype is FileType.DIRECTORY, report)
            sc.rmdir(path)
    except FsError as exc:
        report.failures.append(f"{path}: {exc}")


__all__ = ["FsckReport", "YANCCRASH_RECOVERS", "flow_version", "fsck"]
