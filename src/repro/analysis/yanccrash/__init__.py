"""yanccrash: crash-consistency analysis for the commit/publication surfaces.

The tree's durability story rests on two idioms: the §3.4 version-file
commit (spec writes are invisible until ``version`` leaves 0, and the
version increment is the atomic visibility point) and maildir
publication (assemble under a dot-temp, ``rename()`` into place).  Both
are *protocols*, not mechanisms — nothing stops a caller from renaming
before writing, committing a version in a different uring chain than
its spec writes, or staging a dot-temp nobody ever sweeps.  yanccrash
checks the protocols, two ways:

* :mod:`repro.analysis.yanccrash.checker` — a **static
  persistence-effect pass** over the yancpath abstract interpreter's
  per-function site sequences, judging program-order of durable effects
  into four finding kinds (``publish-before-data``,
  ``non-atomic-publish``, ``commit-outside-chain``,
  ``unrecovered-staging``);
* :mod:`repro.analysis.yanccrash.recorder` /
  :mod:`repro.analysis.yanccrash.explorer` — a **crash-point model
  checker** in the yancrace mold: record the durable-op trace through
  the ``Syscalls`` choke points while a workload runs, then replay
  every crash prefix (including mid-chain uring severs and the legal
  reorderings the write-behind ``flush()`` contract permits), run the
  real :func:`repro.yancfs.recovery.fsck`, and assert the post-crash
  invariants — flows all-or-nothing at their visibility point, versions
  monotonic, no reader-visible torn state, no leaked dot-entries.

Run it as ``python -m repro.analysis yanccrash [paths] [--explore
workload.py]``; suppress individual findings with ``# yanccrash:
disable=<kind>`` comments.
"""

from __future__ import annotations

from repro.analysis.yanccrash.checker import KINDS, analyze_yanccrash

__all__ = ["KINDS", "analyze_yanccrash"]
