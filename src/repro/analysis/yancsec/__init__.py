"""yancsec — capability & tenant-isolation analysis (§5.3/§5.4).

Two cooperating passes, mirroring the yancrace/yanccrash static+dynamic
pairing:

* the **static pass** (:mod:`repro.analysis.yancsec.checker`) reads the
  taint and credential facts the yancpath interprocedural interpreter
  records on every syscall site, judging each one for tainted paths,
  ambient root authority, ACL coverage gaps, slice escapes, and
  unauthenticated distfs RPCs;
* the **runtime pass** (:mod:`repro.analysis.yancsec.monitor`,
  ``YANCSEC=1``) is a reference monitor on the ``Syscalls`` choke points
  that records (uid, namespace, path-prefix) access tuples and flags
  root-running apps, cross-tenant reads, and ambient writes.
"""

from repro.analysis.yancsec.checker import KINDS, analyze_sources, analyze_yancsec
from repro.analysis.yancsec.monitor import (
    SecFinding,
    SecurityMonitor,
    active,
    enabled,
    install_from_env,
    reset_all,
)

__all__ = [
    "KINDS",
    "SecFinding",
    "SecurityMonitor",
    "active",
    "enabled",
    "analyze_sources",
    "analyze_yancsec",
    "install_from_env",
    "reset_all",
]
