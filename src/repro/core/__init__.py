"""The Bertha core: Chunnel API, negotiation, runtime, optimizer, scheduler.

The application-facing surface mirrors the paper's §3.1 interface::

    from repro.core import Runtime, wrap
    from repro.chunnels import Serialize, Reliable

    rt = Runtime(entity, discovery=discovery_service.address)
    rt.register_chunnel(ReliableFallback)          # Listing 5, line 2
    ep = rt.new("my-app", wrap(Serialize() >> Reliable()))
    listener = ep.listen(port=7000)                # server
    conn = yield from ep.connect(server_address)   # client (sim process)
"""

from .chunnel import (
    ChunnelImpl,
    ChunnelSpec,
    ChunnelStage,
    ImplMeta,
    Message,
    Offer,
    Role,
    register_spec,
)
from .connection import Connection
from .dag import ChunnelDag, wrap
from .establish import SplitProxy
from .negotiation import decide, feasible_offers
from .optimizer import (
    ChunnelTraits,
    DagOptimizer,
    OptimizationResult,
    OptimizationStep,
    count_device_crossings,
    default_traits,
)
from .policy import (
    DefaultPolicy,
    Policy,
    PolicyContext,
    PreferPlacementPolicy,
    PreferServerPolicy,
    PriorityFirstPolicy,
)
from .registry import ChunnelRegistry, ImplCatalog, catalog
from .resources import (
    NIC_SLOTS,
    SWITCH_SRAM_KB,
    SWITCH_STAGES,
    XDP_SHARE,
    ResourceVector,
)
from .runtime import Endpoint, Listener, Runtime
from .scheduler import (
    Allocation,
    DrfScheduler,
    FirstFitScheduler,
    OffloadRequest,
    OffloadScheduler,
    PriorityScheduler,
)
from .scope import Endpoints, Placement, Scope
from .stack import ChunnelStack, SetupContext
from .wire import decode, encode, register_wire_type

__all__ = [
    "Allocation",
    "ChunnelDag",
    "ChunnelImpl",
    "ChunnelRegistry",
    "ChunnelSpec",
    "ChunnelStack",
    "ChunnelStage",
    "ChunnelTraits",
    "Connection",
    "DagOptimizer",
    "DefaultPolicy",
    "DrfScheduler",
    "Endpoint",
    "Endpoints",
    "FirstFitScheduler",
    "ImplCatalog",
    "ImplMeta",
    "Listener",
    "Message",
    "NIC_SLOTS",
    "Offer",
    "OffloadRequest",
    "OffloadScheduler",
    "OptimizationResult",
    "OptimizationStep",
    "Placement",
    "Policy",
    "PolicyContext",
    "PreferPlacementPolicy",
    "PreferServerPolicy",
    "PriorityFirstPolicy",
    "PriorityScheduler",
    "ResourceVector",
    "Role",
    "Runtime",
    "SWITCH_SRAM_KB",
    "SWITCH_STAGES",
    "Scope",
    "SetupContext",
    "SplitProxy",
    "XDP_SHARE",
    "catalog",
    "count_device_crossings",
    "decide",
    "decode",
    "default_traits",
    "encode",
    "feasible_offers",
    "register_spec",
    "register_wire_type",
    "wrap",
]
