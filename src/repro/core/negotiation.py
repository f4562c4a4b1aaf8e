"""Chunnel negotiation (§4.3).

Negotiation runs when a connection is established:

1. the endpoints exchange their Chunnel DAGs and *offers* (metadata for the
   implementations each can provide);
2. the server checks the DAGs are compatible and unifies them (an empty DAG
   adopts the peer's — Listing 5);
3. for every node of the unified DAG the server gathers feasible offers —
   scope satisfied, endpoint constraint satisfiable, network offloads
   actually on this connection's path — ranks them with the operator policy,
   and walks the ranking until a resource reservation sticks;
4. the server replies with the unified DAG, the per-node choice, and the
   data-path address; both sides instantiate their stacks.

This module is the *decision* logic only.  The message formats live in
:mod:`repro.core.messages` (typed, versioned, wire-registered) and the
message *exchange* lives with the endpoints in :mod:`repro.core.runtime`
on the shared RPC core (:mod:`repro.core.rpc`).
"""

from __future__ import annotations

from typing import Optional

from ..errors import BerthaError, NoImplementationError
from ..sim.eventloop import Interrupt
from .chunnel import Offer
from .dag import ChunnelDag
from .leases import LeaseHandle
from .policy import Policy, PolicyContext
from .scope import Endpoints, Placement

__all__ = [
    "candidate_pool",
    "feasible_offers",
    "decide",
    "decide_with_reservations",
    "reserve_choice",
]

#: Decide/reserve rounds before a contended decision gives up.
DECIDE_ROUNDS = 8


# --------------------------------------------------------------------------
# Feasibility and decision
# --------------------------------------------------------------------------
def _offered_names(offers: list[Offer], origin: str) -> set[str]:
    return {o.meta.name for o in offers if o.origin == origin}


def _location_feasible(offer: Offer, ctx: PolicyContext) -> bool:
    """Is a network-provided offload actually reachable on this path?"""
    if offer.origin != "network":
        return True
    placement = offer.meta.placement
    if placement is Placement.SWITCH:
        return offer.location in ctx.path_switches
    endpoint_hosts = {
        Endpoints.CLIENT: {ctx.client_host},
        Endpoints.SERVER: {ctx.server_host},
        Endpoints.BOTH: {ctx.client_host, ctx.server_host},
        Endpoints.ANY: {ctx.client_host, ctx.server_host},
    }[offer.meta.endpoints]
    if offer.meta.endpoints is Endpoints.BOTH:
        # A single device cannot be at both ends unless they share a host.
        return ctx.same_host and offer.location in endpoint_hosts
    return offer.location in endpoint_hosts


def candidate_pool(
    registry, chunnel_types, client_offers, *network_pools
) -> dict[str, list[Offer]]:
    """The server's candidate pool for ``chunnel_types``: the client's
    expanded offer lists, ``registry``'s server offers, then each
    ``network_pools`` entry in turn, deduplicated by record id."""
    wanted = set(chunnel_types)
    candidates: dict[str, list[Offer]] = {}
    for ctype, offers in client_offers.items():
        if ctype in wanted:
            candidates.setdefault(ctype, []).extend(offers)
    server = registry.offers_for(sorted(wanted), origin="server")
    for ctype, offers in server.items():
        candidates.setdefault(ctype, []).extend(offers)
    seen_records: set[str] = set()
    for pool in network_pools:
        for ctype, offers in pool.items():
            if ctype not in wanted:
                continue
            for offer in offers:
                if offer.record_id and offer.record_id in seen_records:
                    continue
                if offer.record_id:
                    seen_records.add(offer.record_id)
                candidates.setdefault(ctype, []).append(offer)
    return candidates


def feasible_offers(
    spec,
    candidates: list[Offer],
    ctx: PolicyContext,
) -> list[Offer]:
    """Filter ``candidates`` down to offers this connection could bind.

    Checks, per §4.2/§4.3: the node's scope requirement, the endpoint
    constraint (an ``endpoints::Both`` implementation must be offered by
    both processes; one-sided implementations must exist on their side), and
    — for network-provided offloads — that the device is on this
    connection's path.
    """
    relevant = [o for o in candidates if o.meta.chunnel_type == spec.type_name]
    client_names = _offered_names(relevant, "client")
    server_names = _offered_names(relevant, "server")
    feasible: list[Offer] = []
    for offer in relevant:
        if not spec.scope_requirement.satisfied_by(offer.meta.scope):
            continue
        if not _location_feasible(offer, ctx):
            continue
        endpoints = offer.meta.endpoints
        if endpoints is Endpoints.BOTH:
            if offer.origin == "network":
                pass  # handled by _location_feasible (same-host device)
            elif not (
                offer.meta.name in client_names and offer.meta.name in server_names
            ):
                continue
        elif endpoints is Endpoints.CLIENT:
            if offer.origin == "server":
                continue
        elif endpoints is Endpoints.SERVER:
            if offer.origin == "client":
                continue
        feasible.append(offer)
    # An endpoints::Both implementation offered by both sides appears twice
    # (one Offer per origin); both stay, letting the policy's origin
    # preference pick which side "provides" it.
    return feasible


def decide(
    dag: ChunnelDag,
    candidates: dict[str, list[Offer]],
    policy: Policy,
    ctx: PolicyContext,
) -> dict[int, Offer]:
    """Choose one implementation per DAG node: the policy's top-ranked
    feasible offer.

    ``candidates`` maps Chunnel type → all offers (client + server +
    network).  Reserving the winners, and moving on to the next-ranked
    offer when a reservation is denied (§6's contended-offload case), is
    :func:`decide_with_reservations`'s job.

    Raises
    ------
    NoImplementationError
        A node has no feasible offer at all.
    """
    choice: dict[int, Offer] = {}
    for node_id in dag.topological_order():
        spec = dag.nodes[node_id]
        pool = candidates.get(spec.type_name, [])
        feasible = feasible_offers(spec, pool, ctx)
        if not feasible:
            raise NoImplementationError(
                f"no feasible implementation for chunnel {spec.type_name!r} "
                f"(offers considered: {len(pool)}, scope requirement: "
                f"{spec.scope_requirement.name})"
            )
        choice[node_id] = policy.rank(spec, feasible, ctx)[0]
    return choice


def decide_with_reservations(
    runtime,
    dag: ChunnelDag,
    candidates: dict[str, list[Offer]],
    ctx: PolicyContext,
    owner: str,
    excluded: Optional[set] = None,
    conn_id: str = "",
    settle: bool = True,
):
    """Generator: run :func:`decide`, confirming reservations with discovery.

    Offers whose reservation is denied are excluded and the decision is
    recomputed, so contention for an offload degrades to the next-ranked
    implementation instead of failing the connection (§6).  ``excluded``
    seeds the exclusion set with ``(meta.name, record_id)`` pairs — live
    reconfiguration uses it to steer away from failed or revoked offloads.

    With ``settle`` (the default) every lease verdict is waited for, and
    one that comes back without a lease is a denial like any other.  The
    listener passes False: it answers before the checks of references
    taken under leases its runtime already holds have returned, and holds
    the connection's data path until they do (PROTOCOL.md §2).

    The whole decide/reserve/retry loop is recorded as one ``reserve``
    span in the world's trace log (tagged with ``conn_id`` when the
    caller has one).

    Returns ``(choice, confirmed)`` where ``confirmed`` maps node id to
    the :class:`~repro.core.leases.LeaseHandle` this decision holds for it.
    """
    trace = runtime.network.trace
    span = trace.begin("reserve", conn_id, owner=owner)
    try:
        choice, confirmed, used = yield from _decide_rounds(
            runtime, dag, candidates, ctx, owner, excluded, conn_id, settle
        )
    except (BerthaError, Interrupt) as error:
        trace.finish(span, status="error", error=type(error).__name__)
        raise
    trace.finish(span, rounds=used, reservations=len(confirmed))
    return choice, confirmed


def reserve_choice(
    runtime, dag: ChunnelDag, choice: dict, owner: str, conn_id: str = ""
):
    """Generator: take a lease reference for every resource-bearing binding
    of ``choice``, in node order, through the runtime's lease table
    (:class:`repro.core.leases.LeaseTable`) — a ``disc.reserve`` where the
    runtime holds none on that lease yet, a ``disc.lease_check`` where it
    does; either way a verdict from discovery, one round trip old at most.
    A check does not hold up the walk: each handle's ``verdict`` event
    passes its answer up to the caller.

    Returns ``(confirmed, denied)``: the handles taken, by node id, and the
    first offer discovery refused outright (``None`` when none was; the
    walk stops at the first refusal).  An :class:`Interrupt` mid-walk —
    ``Listener.close()`` with this handler between two acquisitions —
    gives back what was already taken before propagating: no connection
    will ever own those references, so nobody else would.
    """
    confirmed: dict[int, LeaseHandle] = {}
    try:
        for node_id, offer in sorted(choice.items()):
            if offer.record_id is None or offer.meta.resources.is_zero:
                continue
            # Group-shared Chunnels (e.g. ordered multicast) reserve under
            # a group-scoped owner so the shared device program is
            # accounted once across all members.
            node_owner = dag.nodes[node_id].reservation_scope() or owner
            handle = yield from runtime.leases.acquire(
                offer.record_id, node_owner, conn_id
            )
            if handle is None:
                return confirmed, offer
            confirmed[node_id] = handle
    except Interrupt:
        for handle in confirmed.values():
            runtime.leases.release_nowait(handle)
        raise
    return confirmed, None


def _decide_rounds(
    runtime,
    dag: ChunnelDag,
    candidates: dict[str, list[Offer]],
    ctx: PolicyContext,
    owner: str,
    excluded: Optional[set],
    conn_id: str,
    settle: bool,
):
    """The decide/reserve/exclude/retry loop behind
    :func:`decide_with_reservations`; returns ``(choice, confirmed,
    rounds_used)``."""
    excluded = set(excluded or ())
    for _round in range(DECIDE_ROUNDS):
        pool = {
            ctype: [
                o for o in offers if (o.meta.name, o.record_id) not in excluded
            ]
            for ctype, offers in candidates.items()
        }
        choice = decide(dag, pool, runtime.policy, ctx)
        confirmed, denied = yield from reserve_choice(
            runtime, dag, choice, owner, conn_id
        )
        if denied is None and settle:
            confirmed, denied = yield from _verdicts(confirmed, choice)
        if denied is None:
            return choice, confirmed, _round + 1
        for handle in confirmed.values():
            yield from runtime.leases.release(handle)
        excluded.add((denied.meta.name, denied.record_id))
    raise NoImplementationError(
        f"reservation thrashing: could not confirm a stable implementation "
        f"choice in {DECIDE_ROUNDS} rounds"
    )


def _verdicts(confirmed: dict, choice: dict):
    """Generator: wait for every handle's verdict; returns the handles
    that stand, by node id, and the first offer left without a lease
    (``None`` when every one stands)."""
    stood: dict[int, LeaseHandle] = {}
    denied = None
    for node_id, handle in confirmed.items():
        stands = handle.standing((yield handle.verdict))
        if stands is not None:
            stood[node_id] = stands
        elif denied is None:
            denied = choice[node_id]
    return stood, denied
