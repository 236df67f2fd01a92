"""Network views: slicing, virtualization, and namespace isolation (§4.2).

* :class:`Slicer` — headerspace + switch-subset views, stackable.
* :class:`BigSwitchVirtualizer` — the whole fabric as one switch.
* :func:`view_namespace` / :func:`tenant_process` — mount-namespace jails
  so a tenant's ``/net`` *is* its view (§5.3).
* :func:`intersect` / :func:`admits` — the match algebra underneath.
"""

from repro.views.base import MAX_TENANT_PRIORITY
from repro.views.merge import admits, intersect
from repro.views.namespace import grant_view, tenant_process, view_namespace
from repro.views.slicer import Slicer
from repro.views.virtualizer import BigSwitchVirtualizer

__all__ = [
    "admits",
    "grant_view",
    "intersect",
    "tenant_process",
    "view_namespace",
    "MAX_TENANT_PRIORITY",
    "Slicer",
    "BigSwitchVirtualizer",
]
