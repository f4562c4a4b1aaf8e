"""Chunnel DAGs (paper §3.1, Figure 2).

Applications describe a connection's processing as a directed acyclic graph
of Chunnel specs.  Sequencing uses ``>>`` (the paper's ``|>``); branching
falls out of specs nested in arguments, exactly like the paper's

    bertha::new("foo", wrap!(A(arg) |> B(B::args([C(), D()]))))

which here reads::

    dag = wrap(A(arg) >> B(branches=[C(), D()]))

producing ``A → B → {C, D}``.

Besides construction, this module implements what negotiation (§4.3) needs
from DAGs: canonicalization, the compatibility check between the client's
and server's DAGs, and unification (an empty DAG adopts the peer's — this is
how Listing 5's bare client ends up with the server-dictated Chunnels).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Iterable, Optional, Union

from ..errors import DagError, IncompatibleDagError
from .chunnel import ChunnelSpec
from .wire import WireError, encode, register_wire_type

__all__ = ["ChunnelDag", "wrap"]

Wrappable = Union[ChunnelSpec, "ChunnelDag"]


def _add_tree(spec: ChunnelSpec, nodes: dict, edges: list) -> int:
    """Number ``spec`` and its nested children depth first into ``nodes``
    and ``edges``; returns the root's node id."""
    root = len(nodes)
    nodes[root] = spec
    for child in spec.children():
        edges.append((root, _add_tree(child, nodes, edges)))
    return root


class ChunnelDag:
    """A DAG of :class:`~repro.core.chunnel.ChunnelSpec` nodes.

    Nodes are keyed by small integers; edges point from the application side
    toward the wire (``A → B`` means A processes sends before B).

    A DAG is a value, checked and topologically ordered once, when
    :meth:`from_spec`, ``>>``, :meth:`with_spec` or the decoder builds it.
    ``nodes`` is read-only, ``edges`` a sorted tuple and setting an
    attribute raises, so the order and the canonical shape are kept.
    """

    __slots__ = ("nodes", "edges", "_order", "_shape")

    def __init__(self):
        self._freeze({}, (), ())

    def _freeze(self, nodes: dict, edges: tuple, order: tuple) -> None:
        init = object.__setattr__
        init(self, "nodes", MappingProxyType(nodes))
        init(self, "edges", edges)
        init(self, "_order", order)
        init(self, "_shape", None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a ChunnelDag is immutable (writing {name!r})")

    __delattr__ = __setattr__

    # -- construction -----------------------------------------------------------
    @classmethod
    def _build(
        cls, nodes: dict[int, ChunnelSpec], edges: Iterable[tuple[int, int]]
    ) -> "ChunnelDag":
        """The DAG of ``nodes`` (ascending ids) and ``edges``: raises
        :class:`DagError` if an edge dangles or loops, or a cycle exists;
        orders the nodes topologically, ties broken by id."""
        edges = tuple(sorted(set(edges)))
        successors: dict[int, list[int]] = {node: [] for node in nodes}
        indegree = dict.fromkeys(nodes, 0)
        for a, b in edges:
            if a not in nodes or b not in nodes:
                raise DagError(f"edge ({a}, {b}) references a missing node")
            if a == b:
                raise DagError(f"self-loop on node {a}")
            successors[a].append(b)
            indegree[b] += 1
        ready = [node for node, degree in indegree.items() if degree == 0]
        heapify(ready)
        order: list[int] = []
        while ready:
            node = heappop(ready)
            order.append(node)
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heappush(ready, succ)
        if len(order) != len(nodes):
            raise DagError("chunnel graph contains a cycle")
        dag = object.__new__(cls)
        dag._freeze(nodes, edges, tuple(order))
        return dag

    @classmethod
    def empty(cls) -> "ChunnelDag":
        """The empty DAG (a bare datagram connection; Listing 5's client)."""
        return cls()

    @classmethod
    def from_spec(cls, spec: ChunnelSpec) -> "ChunnelDag":
        """A DAG from one spec, expanding nested specs into branches."""
        nodes, edges = {}, []
        _add_tree(spec, nodes, edges)
        return cls._build(nodes, edges)

    def __rshift__(self, other: Wrappable) -> "ChunnelDag":
        """Sequence: connect this DAG's sinks to ``other``'s sources."""
        if isinstance(other, ChunnelSpec):
            other = ChunnelDag.from_spec(other)
        if not isinstance(other, ChunnelDag):
            raise DagError(f"cannot sequence a DAG with {other!r}")
        left = {old: new for new, old in enumerate(self.nodes)}
        right = {old: new for new, old in enumerate(other.nodes, len(left))}
        nodes = dict(enumerate([*self.nodes.values(), *other.nodes.values()]))
        edges = [(left[a], left[b]) for a, b in self.edges]
        edges += [(right[a], right[b]) for a, b in other.edges]
        edges += [(left[a], right[b]) for a in self.sinks() for b in other.sources()]
        return ChunnelDag._build(nodes, edges)

    def with_spec(self, node_id: int, spec: ChunnelSpec) -> "ChunnelDag":
        """This DAG with node ``node_id``'s spec replaced by ``spec``: the
        same ids and edges, so the same order."""
        if node_id not in self.nodes:
            raise DagError(f"no node {node_id} to replace")
        dag = object.__new__(ChunnelDag)
        dag._freeze({**self.nodes, node_id: spec}, self.edges, self._order)
        return dag

    # -- structure queries ---------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True for the zero-node DAG."""
        return not self.nodes

    def sources(self) -> list[int]:
        """Node ids with no predecessors (application side)."""
        targets = {b for _a, b in self.edges}
        return [n for n in self.nodes if n not in targets]

    def sinks(self) -> list[int]:
        """Node ids with no successors (wire side)."""
        origins = {a for a, _b in self.edges}
        return [n for n in self.nodes if n not in origins]

    def successors(self, node: int) -> list[int]:
        """Direct successors of ``node``."""
        return [b for a, b in self.edges if a == node]

    def predecessors(self, node: int) -> list[int]:
        """Direct predecessors of ``node``."""
        return [a for a, b in self.edges if b == node]

    def topological_order(self) -> list[int]:
        """Node ids in topological order (stable: ties break by id)."""
        return list(self._order)

    def specs_in_order(self) -> list[ChunnelSpec]:
        """Specs from application side to wire side."""
        return [self.nodes[n] for n in self._order]

    def chunnel_types(self) -> list[str]:
        """Distinct Chunnel type names, in topological order."""
        return list(dict.fromkeys(spec.type_name for spec in self.specs_in_order()))

    def find(self, type_name: str) -> list[int]:
        """Node ids whose spec has the given Chunnel type."""
        return [n for n, spec in self.nodes.items() if spec.type_name == type_name]

    # -- compatibility (negotiation §4.3) ---------------------------------------
    def canonical_shape(self) -> tuple:
        """A value equal for structurally-equivalent DAGs.

        Two DAGs are structurally equivalent when a topological-order
        relabeling makes their node type sequences and edge sets equal.
        Arguments are excluded on purpose (see ``ChunnelSpec.compat_key``).
        Computed on first use and kept.
        """
        if self._shape is None:
            rank = {node: i for i, node in enumerate(self._order)}
            types = tuple(self.nodes[n].compat_key() for n in self._order)
            edges = tuple(sorted((rank[a], rank[b]) for a, b in self.edges))
            object.__setattr__(self, "_shape", (types, edges))
        return self._shape

    def compatible_with(self, other: "ChunnelDag") -> bool:
        """True if the two endpoint DAGs can form one connection."""
        if self.is_empty or other.is_empty:
            return True
        return self.canonical_shape() == other.canonical_shape()

    @staticmethod
    def unify(client: "ChunnelDag", server: "ChunnelDag") -> "ChunnelDag":
        """The connection's effective DAG from the two endpoints' DAGs.

        An empty side adopts the peer's DAG.  When both sides specify, the
        shapes must match and the *server's* arguments win: service
        configuration (shard addresses, group membership) is the server's to
        dictate, as in Listing 4/5.
        """
        if not client.compatible_with(server):
            raise IncompatibleDagError(
                f"client DAG {client.chunnel_types()} is incompatible with "
                f"server DAG {server.chunnel_types()}"
            )
        if server.is_empty:
            return client
        return server

    @staticmethod
    def merge_arg_updates(
        current: "ChunnelDag", incoming: "ChunnelDag"
    ) -> Optional[tuple["ChunnelDag", set[int]]]:
        """Merge a same-structure DAG whose specs differ only in *args*.

        The reconfiguration engine uses this to apply arg-bearing
        transitions — e.g. a multipath weight update — without rebuilding
        the whole stack: the returned DAG is ``current`` with ``incoming``'s
        spec at each node whose wire encoding differs.  The caller rebuilds
        only those nodes; every other node's implementation, setup context
        and stage carry over by node id
        (:func:`repro.core.establish.build_binding`).
        Returns ``(merged, changed_node_ids)``; ``changed_node_ids`` empty
        means the update was arg-identical (``merged is current``).

        Returns ``None`` when the DAGs differ structurally — different
        node ids, edges, or per-node compat keys — in which case the
        caller must fall back to a full rebuild.
        """
        if (
            set(current.nodes) != set(incoming.nodes)
            or current.edges != incoming.edges
        ):
            return None
        changed: set[int] = set()
        for node_id, spec in current.nodes.items():
            new_spec = incoming.nodes[node_id]
            if spec.compat_key() != new_spec.compat_key():
                return None
            if spec is not new_spec and encode(spec) != encode(new_spec):
                changed.add(node_id)
        if not changed:
            return current, set()
        merged = current
        for node_id in changed:
            merged = merged.with_spec(node_id, incoming.nodes[node_id])
        return merged, changed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "<ChunnelDag empty>"
        chain = " -> ".join(s.type_name for s in self.specs_in_order())
        return f"<ChunnelDag {chain}>"


def _dag_from_wire(
    nodes: list[tuple[int, ChunnelSpec]], edges: list[tuple[int, int]]
) -> ChunnelDag:
    """Rebuild a DAG from its wire fields: nodes ascending by id, edges
    sorted and unique (the only order the encoder writes)."""
    ids = [node_id for node_id, _spec in nodes]
    if ids != sorted(set(ids)) or edges != sorted(set(edges)):
        raise WireError("DAG nodes and edges must be sorted and unique")
    return ChunnelDag._build(dict(nodes), edges)


register_wire_type(
    "chunnel_dag",
    ChunnelDag,
    fields=[("nodes", list[tuple[int, ChunnelSpec]]), ("edges", list[tuple[int, int]])],
    get=lambda dag: (list(dag.nodes.items()), dag.edges),
    build=_dag_from_wire,
)


def wrap(*items: Wrappable) -> ChunnelDag:
    """Build a DAG by sequencing ``items`` (the paper's ``wrap!`` macro).

    Accepts specs and DAGs; ``wrap()`` with no arguments is the empty DAG
    (Listing 5's ``wrap!()``).
    """
    dag = ChunnelDag.empty()
    for item in items:
        if isinstance(item, ChunnelSpec):
            item = ChunnelDag.from_spec(item)
        if not isinstance(item, ChunnelDag):
            raise DagError(f"wrap() cannot include {item!r}")
        dag = item if dag.is_empty else dag >> item
    return dag
