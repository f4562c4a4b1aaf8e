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

from typing import Iterable, Optional, Union

from ..errors import DagError, IncompatibleDagError
from .chunnel import ChunnelSpec
from .wire import WireError, encode, register_wire_type

__all__ = ["ChunnelDag", "wrap"]

Wrappable = Union[ChunnelSpec, "ChunnelDag"]


class ChunnelDag:
    """A DAG of :class:`~repro.core.chunnel.ChunnelSpec` nodes.

    Nodes are keyed by small integers; edges point from the application side
    toward the wire (``A → B`` means A processes sends before B).
    """

    def __init__(self):
        self.nodes: dict[int, ChunnelSpec] = {}
        self.edges: set[tuple[int, int]] = set()
        self._next_id = 0

    # -- construction -----------------------------------------------------------
    @classmethod
    def empty(cls) -> "ChunnelDag":
        """The empty DAG (a bare datagram connection; Listing 5's client)."""
        return cls()

    @classmethod
    def from_spec(cls, spec: ChunnelSpec) -> "ChunnelDag":
        """A DAG from one spec, expanding nested specs into branches."""
        dag = cls()
        dag._add_tree(spec)
        return dag

    def _add_node(self, spec: ChunnelSpec) -> int:
        node_id = self._next_id
        self._next_id += 1
        self.nodes[node_id] = spec
        return node_id

    def _add_tree(self, spec: ChunnelSpec) -> int:
        """Add ``spec`` and its nested children; returns the root node id."""
        root = self._add_node(spec)
        for child in spec.children():
            child_id = self._add_tree(child)
            self.edges.add((root, child_id))
        return root

    def __rshift__(self, other: Wrappable) -> "ChunnelDag":
        """Sequence: connect this DAG's sinks to ``other``'s sources."""
        if isinstance(other, ChunnelSpec):
            other = ChunnelDag.from_spec(other)
        if not isinstance(other, ChunnelDag):
            raise DagError(f"cannot sequence a DAG with {other!r}")
        merged = ChunnelDag()
        id_map_self: dict[int, int] = {}
        id_map_other: dict[int, int] = {}
        for old_id, spec in self.nodes.items():
            id_map_self[old_id] = merged._add_node(spec)
        for old_id, spec in other.nodes.items():
            id_map_other[old_id] = merged._add_node(spec)
        for a, b in self.edges:
            merged.edges.add((id_map_self[a], id_map_self[b]))
        for a, b in other.edges:
            merged.edges.add((id_map_other[a], id_map_other[b]))
        for sink in self.sinks():
            for source in other.sources():
                merged.edges.add((id_map_self[sink], id_map_other[source]))
        merged.validate()
        return merged

    # -- structure queries ---------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True for the zero-node DAG."""
        return not self.nodes

    def sources(self) -> list[int]:
        """Node ids with no predecessors (application side)."""
        targets = {b for _a, b in self.edges}
        return sorted(n for n in self.nodes if n not in targets)

    def sinks(self) -> list[int]:
        """Node ids with no successors (wire side)."""
        origins = {a for a, _b in self.edges}
        return sorted(n for n in self.nodes if n not in origins)

    def successors(self, node: int) -> list[int]:
        """Direct successors of ``node``."""
        return sorted(b for a, b in self.edges if a == node)

    def predecessors(self, node: int) -> list[int]:
        """Direct predecessors of ``node``."""
        return sorted(a for a, b in self.edges if b == node)

    def topological_order(self) -> list[int]:
        """Node ids in topological order (stable: ties break by id)."""
        indegree = {n: 0 for n in self.nodes}
        for _a, b in self.edges:
            indegree[b] += 1
        ready = sorted(n for n, d in indegree.items() if d == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in self.successors(node):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    # Insert keeping `ready` sorted for determinism.
                    ready.append(succ)
                    ready.sort()
        if len(order) != len(self.nodes):
            raise DagError("chunnel graph contains a cycle")
        return order

    def specs_in_order(self) -> list[ChunnelSpec]:
        """Specs from application side to wire side."""
        return [self.nodes[n] for n in self.topological_order()]

    def chunnel_types(self) -> list[str]:
        """Distinct Chunnel type names, in topological order."""
        seen: list[str] = []
        for spec in self.specs_in_order():
            if spec.type_name not in seen:
                seen.append(spec.type_name)
        return seen

    def find(self, type_name: str) -> list[int]:
        """Node ids whose spec has the given Chunnel type."""
        return sorted(
            n for n, spec in self.nodes.items() if spec.type_name == type_name
        )

    def validate(self) -> None:
        """Raise :class:`DagError` if edges dangle or a cycle exists."""
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise DagError(f"edge ({a}, {b}) references a missing node")
            if a == b:
                raise DagError(f"self-loop on node {a}")
        self.topological_order()

    # -- compatibility (negotiation §4.3) ---------------------------------------
    def canonical_shape(self) -> tuple:
        """A value equal for structurally-equivalent DAGs.

        Two DAGs are structurally equivalent when a topological-order
        relabeling makes their node type sequences and edge sets equal.
        Arguments are excluded on purpose (see ``ChunnelSpec.compat_key``).
        """
        order = self.topological_order()
        rank = {node: i for i, node in enumerate(order)}
        types = tuple(self.nodes[n].compat_key() for n in order)
        edges = tuple(sorted((rank[a], rank[b]) for a, b in self.edges))
        return (types, edges)

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
        the whole stack: the returned DAG keeps ``current``'s spec
        *objects* for unchanged nodes (preserving the identity matching
        that carries setup contexts and live stages across an epoch) and
        adopts ``incoming``'s specs only where the wire encoding differs.
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
        merged = current.copy()
        for node_id in changed:
            merged.nodes[node_id] = incoming.nodes[node_id]
        return merged, changed

    def copy(self) -> "ChunnelDag":
        """A structural copy sharing the (immutable-by-convention) specs."""
        dup = ChunnelDag()
        dup.nodes = dict(self.nodes)
        dup.edges = set(self.edges)
        dup._next_id = self._next_id
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "<ChunnelDag empty>"
        chain = " -> ".join(s.type_name for s in self.specs_in_order())
        return f"<ChunnelDag {chain}>"


def _dag_from_wire(
    nodes: list[tuple[int, ChunnelSpec]], edges: list[tuple[int, int]]
) -> ChunnelDag:
    """Rebuild a DAG from its wire fields: nodes ascending by id, edges
    sorted and unique (the only order the encoder writes), then validated."""
    ids = [node_id for node_id, _spec in nodes]
    if ids != sorted(set(ids)) or edges != sorted(set(edges)):
        raise WireError("DAG nodes and edges must be sorted and unique")
    dag = ChunnelDag()
    dag.nodes = dict(nodes)
    dag.edges = set(edges)
    dag._next_id = ids[-1] + 1 if ids else 0
    dag.validate()
    return dag


register_wire_type(
    "chunnel_dag",
    ChunnelDag,
    fields=[("nodes", list[tuple[int, ChunnelSpec]]), ("edges", list[tuple[int, int]])],
    get=lambda dag: (sorted(dag.nodes.items()), sorted(dag.edges)),
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
