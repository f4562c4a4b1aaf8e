"""Chunnel specs, implementations, stages, and offers (paper §2–§4).

Four layers of the Chunnel abstraction live here:

:class:`ChunnelSpec`
    What *applications* write: a Chunnel **type** plus its arguments, e.g.
    ``Shard(choices=[...], shard_fn=FieldHash(...))``.  Specs compose into
    DAGs with ``>>`` (the paper's ``|>``) and serialize for the DAG exchange
    during negotiation.

:class:`ImplMeta` / :class:`Offer`
    What the control plane trades in: metadata describing one registered
    implementation of a Chunnel type (priority, scope, endpoint constraint,
    placement, resource needs) and, at negotiation time, an *offer* of that
    implementation from a particular origin (client, server, or network).

:class:`ChunnelImpl`
    What *offload developers* write: a factory for the data-path stage plus
    the ``setup``/``teardown`` hooks that automate system and network
    configuration (install an XDP program, program a switch, create a
    multicast group).

:class:`ChunnelStage`
    The per-connection, per-side data-path object: transforms messages on
    the way down (send) and up (receive), can inject messages spontaneously
    (acks, retransmissions), and can charge CPU time to the message.
"""

from __future__ import annotations

import abc
import copy
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Iterable, Optional

from ..errors import ChunnelArgumentError
from ..sim.datagram import Address
from .resources import ResourceVector
from .scope import Endpoints, Placement, Scope
from .wire import WireError, register_wire_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .dag import ChunnelDag
    from .stack import ChunnelStack, SetupContext

__all__ = [
    "Role",
    "Message",
    "ChunnelSpec",
    "ChunnelImpl",
    "ChunnelStage",
    "ImplMeta",
    "Offer",
    "register_spec",
]


class Role(enum.Enum):
    """Which side of a connection a stage/impl instance serves."""

    CLIENT = "client"
    SERVER = "server"


@dataclass(slots=True)
class Message:
    """One message traversing a Chunnel stack.

    ``payload`` is whatever the layer above produced (an object above a
    serialization Chunnel, bytes below it); ``size`` is the current wire
    size; ``headers`` carries Chunnel metadata; ``dst`` overrides the
    connection's default peer when a routing Chunnel (shard,
    multicast) picks a destination.
    """

    payload: Any = b""
    size: int = 0
    headers: dict[str, Any] = field(default_factory=dict)
    dst: Optional[Address] = None
    src: Optional[Address] = None

    def __post_init__(self) -> None:
        if self.size == 0 and isinstance(self.payload, (bytes, bytearray)):
            self.size = len(self.payload)

    def copy(self) -> "Message":
        """A shallow copy with an independent header dict."""
        return Message(self.payload, self.size, dict(self.headers), self.dst, self.src)


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------
_spec_registry: dict[str, type["ChunnelSpec"]] = {}


def register_spec(cls: type["ChunnelSpec"]) -> type["ChunnelSpec"]:
    """Class decorator: make a spec type wire-decodable by its type_name."""
    if not cls.type_name:
        raise ChunnelArgumentError(f"{cls.__name__} must define type_name")
    existing = _spec_registry.get(cls.type_name)
    if existing is not None and existing is not cls:
        raise ChunnelArgumentError(
            f"chunnel type {cls.type_name!r} already registered to "
            f"{existing.__name__}"
        )
    _spec_registry[cls.type_name] = cls
    return cls


def _build_spec(
    type_name: str, args: dict, scope: Scope, error: type[Exception] = WireError
) -> "ChunnelSpec":
    """A spec of the registered ``type_name``, made without its class's typed
    ``__init__`` (decoded, or fused by a merge); raises ``error`` if unknown."""
    cls = _spec_registry.get(type_name)
    if cls is None:
        raise error(f"{type_name!r} is not a registered chunnel type")
    spec = cls.__new__(cls)
    ChunnelSpec.__init__(spec, **args)
    spec.scope_requirement = scope
    return spec


def _collect_specs(value: Any, found: list["ChunnelSpec"]) -> None:
    """Append every spec nested in ``value`` to ``found``, depth first.

    Module level: a nested function that calls itself is a function ↔
    cell cycle, which only the cyclic collector frees."""
    if isinstance(value, ChunnelSpec):
        found.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_specs(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_specs(item, found)


class ChunnelSpec:
    """A Chunnel type with arguments, as written by an application.

    Subclasses set ``type_name`` and usually provide a typed ``__init__``
    that forwards keyword arguments here.  Arguments must be wire-encodable
    (see :mod:`repro.core.wire`); passing e.g. a lambda raises at DAG
    exchange time, which is deliberate — negotiation payloads are data.
    """

    type_name: ClassVar[str] = ""

    def __init__(self, **args: Any):
        if not self.type_name:
            raise ChunnelArgumentError(
                f"{type(self).__name__} does not define a chunnel type_name"
            )
        self.args: dict[str, Any] = dict(args)
        self.scope_requirement: Scope = Scope.GLOBAL

    # -- composition -----------------------------------------------------------
    def __rshift__(self, other: "ChunnelSpec | ChunnelDag") -> "ChunnelDag":
        """``a >> b`` — sequence two Chunnels (the paper's ``|>``)."""
        from .dag import ChunnelDag

        return ChunnelDag.from_spec(self) >> other

    def scoped(self, scope: Scope) -> "ChunnelSpec":
        """This Chunnel constrained to be implemented at ``scope``: a new
        spec, so a spec inside a built DAG never changes."""
        spec = copy.copy(self)
        spec.scope_requirement = scope
        return spec

    def reservation_scope(self) -> Optional[str]:
        """Override the discovery-reservation owner for this Chunnel.

        Most Chunnels reserve per application endpoint (the default, None).
        Chunnels whose device program is shared wider — e.g. one multicast
        sequencer serves a whole replica *group* — return a group-scoped
        owner so the shared resource is accounted once, not once per
        member.
        """
        return None

    # -- structure ---------------------------------------------------------------
    def children(self) -> list["ChunnelSpec"]:
        """Specs nested in this spec's arguments (branching, Figure 2)."""
        found: list[ChunnelSpec] = []
        for value in self.args.values():
            _collect_specs(value, found)
        return found

    # -- comparison ---------------------------------------------------------------
    def compat_key(self) -> tuple:
        """Key for DAG compatibility: type identity only.

        Arguments do not participate: the server's shard addresses (say) are
        parameters the client *adopts*, not something both sides must have
        written identically (Listing 5's client passes no Chunnels at all).
        """
        return (self.type_name,)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        return f"{type(self).__name__}({inner})"


# --------------------------------------------------------------------------
# Implementation metadata and offers
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ImplMeta:
    """Control-plane description of one registered implementation."""

    chunnel_type: str
    name: str
    priority: int = 0
    scope: Scope = Scope.GLOBAL
    endpoints: Endpoints = Endpoints.BOTH
    placement: Placement = Placement.HOST_SOFTWARE
    resources: ResourceVector = field(default_factory=ResourceVector)
    description: str = ""


@dataclass(frozen=True)
class Offer:
    """One implementation offered for one Chunnel during negotiation.

    ``origin`` records who brought it (client/server registry or the
    discovery service); ``location`` names the device or entity it would run
    on (e.g. the switch name for an in-network impl); ``record_id`` lets the
    winner be reserved with the discovery service.
    """

    meta: ImplMeta
    origin: str  # "client" | "server" | "network"
    location: Optional[str] = None
    record_id: Optional[str] = None


def same_binding(a: Optional[Offer], b: Optional[Offer]) -> bool:
    """Whether two offers bind the same implementation: same name,
    discovery record and location (a missing offer binds nothing)."""
    return (
        a is not None
        and b is not None
        and a.meta.name == b.meta.name
        and a.record_id == b.record_id
        and a.location == b.location
    )


register_wire_type(
    "chunnel_spec",
    ChunnelSpec,
    fields=[("type", str), ("args", dict[str, Any]), ("scope", Scope)],
    get=lambda spec: (spec.type_name, spec.args, spec.scope_requirement),
    build=_build_spec,
)
register_wire_type("impl_meta", ImplMeta)
register_wire_type("chunnel_offer", Offer)


# --------------------------------------------------------------------------
# Implementations and stages
# --------------------------------------------------------------------------
class ChunnelImpl(abc.ABC):
    """One implementation of a Chunnel type.

    Subclasses define a class-level :attr:`meta` describing themselves and
    override some of:

    * :meth:`make_stage` — the in-process data-path piece for ``role`` (may
      return None when this side needs none, e.g. the server side of a
      client-push sharder);
    * :meth:`setup` / :meth:`teardown` — the automation hooks (§4.2) that
      configure devices and services so the connection can use this
      implementation.  These replace the human system/network-operator steps
      of Figure 1.
    """

    meta: ClassVar[ImplMeta]

    def __init__(self, spec: ChunnelSpec, location: Optional[str] = None):
        self.spec = spec
        self.location = location

    def make_stage(self, role: Role) -> Optional["ChunnelStage"]:
        """The data-path stage for ``role`` (default: passthrough none)."""
        return None

    def setup(self, ctx: "SetupContext") -> None:
        """Configure devices/services before data flows (default no-op)."""

    def after_establish(self, ctx: "SetupContext", connection) -> None:
        """Hook run once the connection (and its data socket) exists.

        Device programs that match on the connection's data port (XDP
        redirectors, switch rules) install or extend themselves here,
        because the port is allocated after :meth:`setup` runs.
        """

    def teardown(self, ctx: "SetupContext") -> None:
        """Undo :meth:`setup` when the node goes: its connection closes,
        an epoch rollback drops it, a committed epoch replaces it, or its
        establishment fails after setup (default no-op).  The shares the
        node took and its lease reference are given back right after, by
        :meth:`Binding.release <repro.core.connection.Binding.release>`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} impl of {self.meta.chunnel_type!r}>"


class ChunnelStage:
    """Per-connection, per-side data-path element.

    Lifecycle: the stack calls :meth:`attach` (wiring ``_stack``/``_index``),
    then :meth:`start` once the connection is live, then :meth:`stop` at
    close.  Data flows through :meth:`on_send` (toward the wire) and
    :meth:`on_recv` (toward the application); both return an iterable of
    messages, so a stage may transform (1→1), absorb (1→0, e.g. an ack),
    or emit several (1→n, e.g. multicast fan-out or a flushed batch).
    """

    def __init__(self, impl: ChunnelImpl, role: Role):
        self.impl = impl
        self.role = role
        self._stack: Optional["ChunnelStack"] = None
        self._index: int = -1

    # -- wiring ----------------------------------------------------------------
    def attach(self, stack: "ChunnelStack", index: int) -> None:
        """Called by the stack during construction; the stack's
        :meth:`~ChunnelStack.detach` clears it again."""
        self._stack = stack
        self._index = index

    @property
    def stack(self) -> "ChunnelStack":
        if self._stack is None:
            raise RuntimeError(f"{self!r} is not attached to a stack")
        return self._stack

    @property
    def env(self):
        """The simulation environment (for timers and spontaneous sends)."""
        return self.stack.env

    @property
    def connection(self):
        """The owning Connection (None until the stack is adopted)."""
        return self.stack.connection

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Connection is live; start timers/processes if needed."""

    def stop(self) -> None:
        """Connection closing; cancel timers, flush state."""

    def adopt_state(self, predecessor: "ChunnelStage") -> None:
        """Take over what ``predecessor``, the stage this one replaces in
        an epoch change, must not lose (PROTOCOL.md §5.2).  Called once,
        before this stage starts; stateless stages inherit nothing."""

    # -- data path ----------------------------------------------------------------
    def on_send(self, msg: Message) -> Iterable[Message]:
        """Transform an application-bound-for-wire message."""
        return [msg]

    def on_recv(self, msg: Message) -> Iterable[Message]:
        """Transform a wire-bound-for-application message."""
        return [msg]

    # -- services for subclasses ---------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Account CPU time for the message currently being processed."""
        self.stack.charge(seconds)

    def send_below(self, msg: Message) -> None:
        """Inject ``msg`` into the stack *below* this stage (acks, retx)."""
        self.stack.send_from(self._index + 1, msg)

    def deliver_above(self, msg: Message) -> None:
        """Inject ``msg`` upward from this stage (e.g. reassembled data).

        Runs every stage strictly above this one (``receive_from`` is
        exclusive at ``_index``), mirroring :meth:`send_below` — a flushed
        reorder buffer must still be decoded by the stages above.
        """
        self.stack.receive_from(self._index, msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} role={self.role.value}>"
