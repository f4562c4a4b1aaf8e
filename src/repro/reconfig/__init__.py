"""Live reconfiguration: mid-connection renegotiation and graceful degradation.

Bertha's negotiation (§4.3) binds a connection to one implementation per
Chunnel at establishment time — but the conditions that made that binding
best do not hold forever: the scheduler can revoke an offload's resources
for a higher-priority tenant (§6), a NIC or switch can fail, a better
implementation can appear.  This package makes the binding *live*:

* :mod:`~repro.reconfig.triggers` — the signals: discovery revocation
  pushes, device failure detection, and load monitoring.
* :mod:`~repro.reconfig.engine` — the transition engine: re-runs the
  negotiation decision for an established connection, builds the new stack
  next to the old one, swaps epochs with zero message loss and a bounded
  pause, and rolls back if the peer cannot follow.

Entry point: ``runtime.reconfig`` (a lazily-created
:class:`~repro.reconfig.engine.ReconfigManager`), or
``endpoint.listen(..., auto_reconfig=True)`` to subscribe every accepted
connection automatically.  Wire format: PROTOCOL.md §"Live reconfiguration".
"""

from .engine import ReconfigManager, TransitionRecord
from .triggers import (
    DeviceFailureDetector,
    DiscoveryWatcher,
    PathQualityMonitor,
)

__all__ = [
    "ReconfigManager",
    "TransitionRecord",
    "DeviceFailureDetector",
    "DiscoveryWatcher",
    "PathQualityMonitor",
]
