"""Device drivers (paper section 4.1).

One :class:`OpenFlowDriver` per protocol version; switches attach to
whichever driver speaks their protocol and can be migrated live.
"""

from repro.drivers.openflow_driver import OpenFlowDriver, SwitchBinding
from repro.openflow.of10 import VERSION as OF10_VERSION
from repro.openflow.of13 import VERSION as OF13_VERSION
from repro.yancfs.translate import MAX_PENDING_EVENTS

__all__ = [
    "MAX_PENDING_EVENTS",
    "OpenFlowDriver",
    "SwitchBinding",
    "OF10_VERSION",
    "OF13_VERSION",
]
