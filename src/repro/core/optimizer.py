"""Chunnel-DAG optimization (§6, "Performance Optimization").

The runtime sees the whole Chunnel pipeline of a connection, which enables
transformations no single layer could make:

* **reorder** — permute commuting Chunnels so that offloadable ones sit
  together at the wire end of the pipeline, avoiding host↔device data
  bounces.  The paper's example: ``encrypt |> http2 |> tcp`` on a SmartNIC
  that offloads encrypt and TCP forces a NIC→CPU→NIC detour (3× the PCIe
  traffic); ``http2 |> encrypt |> tcp`` does not.
* **merge** — fuse adjacent Chunnels into one the hardware supports as a
  unit (encrypt + tcp → tls).
* **eliminate** — drop redundant Chunnels (two identical idempotent stages
  in a row).

Whether two Chunnels commute (reordering preserves semantics) and which
pairs merge is *algebraic knowledge about Chunnel types*, kept in a
:class:`ChunnelTraits` table that the Chunnel library populates.  The
optimizer only transforms linear chains — branching subgraphs are left
untouched, conservatively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..errors import DagError
from .chunnel import ChunnelSpec, _build_spec
from .dag import ChunnelDag, wrap

__all__ = [
    "ChunnelTraits",
    "default_traits",
    "DagOptimizer",
    "OptimizationStep",
    "OptimizationResult",
    "count_device_crossings",
]


class ChunnelTraits:
    """Algebraic properties of Chunnel types used by the optimizer."""

    def __init__(self):
        self._commutes: set[frozenset[str]] = set()
        self._merges: dict[tuple[str, str], str] = {}
        self._idempotent: set[str] = set()
        self._subsumed_by_reliable_transport: set[str] = set()

    def register_commutes(self, type_a: str, type_b: str) -> None:
        """Declare that adjacent ``type_a`` and ``type_b`` may swap."""
        self._commutes.add(frozenset((type_a, type_b)))

    def commutes(self, type_a: str, type_b: str) -> bool:
        """True if the two types may be reordered past each other."""
        if type_a == type_b:
            return True
        return frozenset((type_a, type_b)) in self._commutes

    def register_merge(self, type_a: str, type_b: str, merged: str) -> None:
        """Declare ``type_a |> type_b`` fusable into ``merged``."""
        self._merges[(type_a, type_b)] = merged

    def merge_result(self, type_a: str, type_b: str) -> Optional[str]:
        """The fused type for an adjacent pair, if any."""
        return self._merges.get((type_a, type_b))

    def merge_targets(self) -> set[str]:
        """Every type that can result from a registered merge."""
        return set(self._merges.values())

    def register_idempotent(self, type_name: str) -> None:
        """Declare ``T |> T`` equivalent to ``T``."""
        self._idempotent.add(type_name)

    def is_idempotent(self, type_name: str) -> bool:
        """True if consecutive duplicates of this type collapse."""
        return type_name in self._idempotent

    def register_subsumed_by_reliable_transport(self, type_name: str) -> None:
        """Declare ``type_name`` redundant over an already-reliable,
        in-order transport (pipes): the §6 *specialization* example —
        "specializing Chunnel implementations based on their operating
        context"."""
        self._subsumed_by_reliable_transport.add(type_name)

    def is_subsumed_by_reliable_transport(self, type_name: str) -> bool:
        """True if a reliable in-order transport makes this Chunnel a
        no-op."""
        return type_name in self._subsumed_by_reliable_transport


#: Populated by :mod:`repro.chunnels` on import.
default_traits = ChunnelTraits()


@dataclass(frozen=True)
class OptimizationStep:
    """One transformation the optimizer applied."""

    kind: str  # "reorder" | "merge" | "eliminate"
    detail: str


@dataclass
class OptimizationResult:
    """The optimized DAG plus an explanation of how it got there."""

    dag: ChunnelDag
    steps: list[OptimizationStep] = field(default_factory=list)
    crossings_before: int = 0
    crossings_after: int = 0


def count_device_crossings(chain: Sequence[str], offloadable: set[str]) -> int:
    """Host↔device boundary crossings for a pipeline.

    ``chain`` lists Chunnel types application-side first.  Data starts at
    the host CPU, passes each stage at its placement (device if the type is
    in ``offloadable``), and finally leaves through the device (the NIC is
    the exit).  Each placement change is one bus
    crossing; the result is proportional to PCIe traffic for a fixed
    message stream.
    """
    location = "host"
    crossings = 0
    placements = [
        "device" if ctype in offloadable else "host" for ctype in chain
    ]
    placements.append("device")
    for placement in placements:
        if placement != location:
            crossings += 1
            location = placement
    return crossings


class DagOptimizer:
    """Applies eliminate / reorder / merge to linear Chunnel chains."""

    def __init__(self):
        #: The algebra the chunnel library registers (reorder, merge, ...).
        self.traits = default_traits

    # ------------------------------------------------------------------
    def optimize(
        self,
        dag: ChunnelDag,
        offloadable: Iterable[str] = (),
        available_types: Optional[Iterable[str]] = None,
        reliable_transport: bool = False,
    ) -> OptimizationResult:
        """Optimize ``dag``.

        ``offloadable`` — Chunnel types the connection's device can run
        (drives reordering and the crossing counts).  ``available_types`` —
        Chunnel types with at least one usable implementation; merges are
        only applied when the fused type is available (None = all known
        merges allowed).  ``reliable_transport`` — the connection's base
        transport already provides reliable in-order delivery (pipes), so
        Chunnels registered as subsumed by it are dropped (§6
        specialization).
        """
        offload_set = set(offloadable)
        chain = self._as_chain(dag)
        if chain is None:
            # Branching DAG: conservatively do nothing.
            return OptimizationResult(dag)
        steps: list[OptimizationStep] = []
        before = count_device_crossings(
            [s.type_name for s in chain], offload_set
        )
        chain = self._eliminate(chain, steps)
        if reliable_transport:
            chain = self._specialize(chain, steps)
        chain = self._search(chain, offload_set, available_types, steps)
        after = count_device_crossings([s.type_name for s in chain], offload_set)
        result_dag = wrap(*chain)
        return OptimizationResult(
            dag=result_dag,
            steps=steps,
            crossings_before=before,
            crossings_after=after,
        )

    def _search(
        self,
        chain: list[ChunnelSpec],
        offloadable: set[str],
        available_types: Optional[Iterable[str]],
        steps: list[OptimizationStep],
    ) -> list[ChunnelSpec]:
        """Joint reorder+merge search.

        Reordering serves two ends: moving offloadable stages together at
        the wire side (fewer bus crossings), and making mergeable pairs
        adjacent so a fused offload becomes usable — the paper's TLS
        example needs *both* in one step, since neither encrypt nor tcp is
        offloadable alone there.  Chains are short, so exhaustive search
        over commutation-valid permutations is exact; the objective is
        (crossings, pipeline length), tie-broken toward the original order.
        """
        n = len(chain)
        if n <= 1:
            return chain
        if n > 8:
            raise DagError(f"refusing to optimize a {n}-stage chain (cap: 8)")
        original_types = [s.type_name for s in chain]
        best_key = None
        best_chain = chain
        best_merges: list[OptimizationStep] = []
        best_perm_identity = True
        for perm in itertools.permutations(range(n)):
            if not self._permutation_valid(original_types, perm):
                continue
            candidate = [chain[i] for i in perm]
            merge_steps: list[OptimizationStep] = []
            merged = self._merge(candidate, available_types, merge_steps)
            crossings = count_device_crossings(
                [s.type_name for s in merged], offloadable
            )
            is_identity = perm == tuple(range(n))
            key = (crossings, len(merged), not is_identity)
            if best_key is None or key < best_key:
                best_key = key
                best_chain = merged
                best_merges = merge_steps
                best_perm_identity = is_identity
        if not best_perm_identity:
            steps.append(
                OptimizationStep(
                    "reorder",
                    f"{' |> '.join(original_types)}  ==>  "
                    f"{' |> '.join(s.type_name for s in best_chain)}"
                    + ("  (with merges)" if best_merges else ""),
                )
            )
        steps.extend(best_merges)
        return best_chain

    def _specialize(
        self, chain: list[ChunnelSpec], steps: list[OptimizationStep]
    ) -> list[ChunnelSpec]:
        """Drop Chunnels the reliable transport makes redundant."""
        result: list[ChunnelSpec] = []
        for spec in chain:
            if self.traits.is_subsumed_by_reliable_transport(spec.type_name):
                steps.append(
                    OptimizationStep(
                        "specialize",
                        f"dropped {spec.type_name!r}: the negotiated "
                        "transport is already reliable and in-order",
                    )
                )
                continue
            result.append(spec)
        return result

    # ------------------------------------------------------------------
    def _as_chain(self, dag: ChunnelDag) -> Optional[list[ChunnelSpec]]:
        """The DAG as a linear chain of specs, or None if it branches."""
        for node in dag.nodes:
            if len(dag.successors(node)) > 1 or len(dag.predecessors(node)) > 1:
                return None
        return dag.specs_in_order()

    def _eliminate(
        self, chain: list[ChunnelSpec], steps: list[OptimizationStep]
    ) -> list[ChunnelSpec]:
        """Collapse consecutive duplicates of idempotent types."""
        result: list[ChunnelSpec] = []
        for spec in chain:
            if (
                result
                and result[-1].type_name == spec.type_name
                and self.traits.is_idempotent(spec.type_name)
            ):
                steps.append(
                    OptimizationStep(
                        "eliminate", f"dropped duplicate {spec.type_name!r}"
                    )
                )
                continue
            result.append(spec)
        return result

    def _permutation_valid(
        self, types: Sequence[str], perm: Sequence[int]
    ) -> bool:
        for a_pos, a_index in enumerate(perm):
            for b_index in perm[a_pos + 1 :]:
                if b_index < a_index and not self.traits.commutes(
                    types[a_index], types[b_index]
                ):
                    return False
        return True

    def _merge(
        self,
        chain: list[ChunnelSpec],
        available_types: Optional[Iterable[str]],
        steps: list[OptimizationStep],
    ) -> list[ChunnelSpec]:
        """Fuse adjacent pairs with a registered merge target."""
        available = None if available_types is None else set(available_types)
        changed = True
        while changed:
            changed = False
            for index in range(len(chain) - 1):
                first, second = chain[index], chain[index + 1]
                merged_type = self.traits.merge_result(
                    first.type_name, second.type_name
                )
                if merged_type is None:
                    continue
                if available is not None and merged_type not in available:
                    continue
                merged_spec = _build_spec(
                    merged_type,
                    {**first.args, **second.args},
                    min(first.scope_requirement, second.scope_requirement),
                    DagError,
                )
                steps.append(
                    OptimizationStep(
                        "merge",
                        f"{first.type_name} |> {second.type_name} "
                        f"==> {merged_type}",
                    )
                )
                chain = chain[:index] + [merged_spec] + chain[index + 2 :]
                changed = True
                break
        return chain
