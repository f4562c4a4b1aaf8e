"""Tests for Chunnel specs and DAG construction / compatibility (§3.1)."""

import pytest

from repro.chunnels import (
    Encrypt,
    Http2,
    LocalOrRemote,
    Ordered,
    Reliable,
    Serialize,
    Shard,
    Tcp,
)
from repro.core import ChunnelDag, ChunnelSpec, Scope, register_spec, wrap
from repro.core.wire import WireError, decode, encode
from repro.errors import DagError, IncompatibleDagError
from repro.sim import Address


class TestSpec:
    def test_repr_shows_args(self):
        assert "max_retries=2" in repr(Reliable(max_retries=2))

    def test_scoped_sets_requirement(self):
        spec = Reliable().scoped(Scope.HOST)
        assert spec.scope_requirement is Scope.HOST

    def test_default_scope_is_global(self):
        assert Reliable().scope_requirement is Scope.GLOBAL

    def test_compat_key_ignores_args(self):
        assert Reliable(max_retries=1).compat_key() == Reliable(
            max_retries=9
        ).compat_key()

    def test_children_finds_nested_specs(self):
        inner = [Serialize(), Reliable()]

        @register_spec
        class Branchy(ChunnelSpec):
            type_name = "test_branchy"

            def __init__(self, branches):
                super().__init__(branches=branches)

        spec = Branchy(branches=inner)
        assert spec.children() == inner

    def test_wire_roundtrip_preserves_scope(self):
        spec = Reliable().scoped(Scope.HOST)
        decoded = decode(encode(spec))
        assert decoded.scope_requirement is Scope.HOST
        assert decoded.args == spec.args

    def test_duplicate_type_name_rejected(self):
        with pytest.raises(Exception):

            @register_spec
            class Fake(ChunnelSpec):
                type_name = "reliable"  # collides with the real one


class TestDagConstruction:
    def test_empty_dag(self):
        dag = wrap()
        assert dag.is_empty
        assert len(dag) == 0

    def test_single_spec(self):
        dag = wrap(Serialize())
        assert dag.chunnel_types() == ["serialize"]

    def test_sequencing_operator(self):
        dag = Serialize() >> Reliable()
        assert [s.type_name for s in dag.specs_in_order()] == [
            "serialize",
            "reliable",
        ]

    def test_three_stage_chain(self):
        dag = wrap(Encrypt() >> Http2() >> Tcp())
        assert dag.chunnel_types() == ["encrypt", "http2", "tcp"]

    def test_wrap_multiple_items(self):
        dag = wrap(Serialize(), Reliable())
        assert dag.chunnel_types() == ["serialize", "reliable"]

    def test_figure2_branching(self):
        """wrap!(A(arg) |> B(B::args([C(), D()]))) → A → B → {C, D}."""

        @register_spec
        class FanOut(ChunnelSpec):
            type_name = "test_fanout"

            def __init__(self, branches):
                super().__init__(branches=branches)

        dag = wrap(Serialize() >> FanOut(branches=[Ordered(), Reliable()]))
        fanout_node = dag.find("test_fanout")[0]
        children_types = sorted(
            dag.nodes[c].type_name for c in dag.successors(fanout_node)
        )
        assert children_types == ["ordered", "reliable"]
        assert dag.nodes[dag.sources()[0]].type_name == "serialize"

    def test_sources_and_sinks(self):
        dag = Serialize() >> Reliable()
        assert dag.nodes[dag.sources()[0]].type_name == "serialize"
        assert dag.nodes[dag.sinks()[0]].type_name == "reliable"

    def test_topological_order_is_deterministic(self):
        dag = wrap(Encrypt() >> Http2() >> Tcp())
        assert dag.topological_order() == dag.topological_order()

    def test_cycle_detected_via_wire(self):
        dag = Serialize() >> Reliable()
        wire = encode(dag)
        wire["@"][2].append([1, 0])  # back edge
        with pytest.raises(WireError, match="cycle"):
            decode(wire)

    def test_dangling_edge_detected(self):
        dag = wrap(Serialize())
        dag.edges.add((0, 99))
        with pytest.raises(DagError):
            dag.validate()

    def test_self_loop_detected(self):
        dag = wrap(Serialize())
        dag.edges.add((0, 0))
        with pytest.raises(DagError):
            dag.validate()

    def test_wrap_rejects_non_specs(self):
        with pytest.raises(DagError):
            wrap("not a spec")

    def test_copy_is_independent(self):
        dag = Serialize() >> Reliable()
        dup = dag.copy()
        dup.edges.clear()
        assert dag.edges  # original untouched


class TestWireRoundtrip:
    def test_chain_roundtrip(self):
        dag = wrap(Serialize() >> Reliable() >> Ordered())
        decoded = decode(encode(dag))
        assert decoded.canonical_shape() == dag.canonical_shape()

    def test_args_survive(self):
        dag = wrap(Shard(choices=[Address("w", 1), Address("w", 2)]))
        decoded = decode(encode(dag))
        spec = decoded.specs_in_order()[0]
        assert spec.choices == [Address("w", 1), Address("w", 2)]

    def test_empty_roundtrip(self):
        decoded = decode(encode(ChunnelDag.empty()))
        assert decoded.is_empty


class TestCompatibility:
    def test_empty_is_compatible_with_anything(self):
        dag = Serialize() >> Reliable()
        assert ChunnelDag.empty().compatible_with(dag)
        assert dag.compatible_with(ChunnelDag.empty())

    def test_same_shape_compatible_despite_args(self):
        left = wrap(Reliable(max_retries=1))
        right = wrap(Reliable(max_retries=99))
        assert left.compatible_with(right)

    def test_different_types_incompatible(self):
        assert not wrap(Serialize()).compatible_with(wrap(Reliable()))

    def test_different_order_incompatible(self):
        left = Serialize() >> Reliable()
        right = Reliable() >> Serialize()
        assert not left.compatible_with(right)

    def test_unify_empty_client_adopts_server(self):
        """Listing 5: the client endpoint specifies no Chunnels."""
        server = Serialize() >> Reliable()
        unified = ChunnelDag.unify(ChunnelDag.empty(), server)
        assert unified.chunnel_types() == ["serialize", "reliable"]

    def test_unify_server_args_win(self):
        client = wrap(Reliable(max_retries=1))
        server = wrap(Reliable(max_retries=5))
        unified = ChunnelDag.unify(client, server)
        assert unified.specs_in_order()[0].args["max_retries"] == 5

    def test_unify_empty_server_keeps_client(self):
        client = wrap(LocalOrRemote())
        unified = ChunnelDag.unify(client, ChunnelDag.empty())
        assert unified.chunnel_types() == ["local_or_remote"]

    def test_unify_incompatible_raises(self):
        with pytest.raises(IncompatibleDagError):
            ChunnelDag.unify(wrap(Serialize()), wrap(Reliable()))


class TestMergeArgUpdates:
    """Arg-only DAG merges (the reconfig fast path for weight updates)."""

    def _pair(self, retries_a=2, retries_b=2):
        a = wrap(Serialize() >> Reliable(max_retries=retries_a))
        b = wrap(Serialize() >> Reliable(max_retries=retries_b))
        return a, b

    def test_arg_identical_returns_current_unchanged(self):
        a, b = self._pair()
        merged, changed = ChunnelDag.merge_arg_updates(a, b)
        assert merged is a
        assert changed == set()

    def test_wire_roundtrip_is_arg_identical(self):
        a = wrap(Serialize() >> Reliable(max_retries=4))
        merged, changed = ChunnelDag.merge_arg_updates(
            a, decode(encode(a))
        )
        assert merged is a
        assert changed == set()

    def test_arg_change_flags_only_that_node(self):
        a, b = self._pair(retries_a=2, retries_b=9)
        rel_id = next(
            i for i, s in a.nodes.items() if s.type_name == "reliable"
        )
        ser_id = next(
            i for i, s in a.nodes.items() if s.type_name == "serialize"
        )
        merged, changed = ChunnelDag.merge_arg_updates(a, b)
        assert changed == {rel_id}
        assert merged.nodes[rel_id] is b.nodes[rel_id]
        # Unchanged nodes keep *current*'s spec objects (identity matters:
        # it carries live stages across the reconfig epoch).
        assert merged.nodes[ser_id] is a.nodes[ser_id]

    def test_structural_difference_refuses_to_merge(self):
        a = wrap(Serialize() >> Reliable())
        b = wrap(Serialize() >> Reliable() >> Ordered())
        assert ChunnelDag.merge_arg_updates(a, b) is None

    def test_type_difference_refuses_to_merge(self):
        a = wrap(Serialize() >> Reliable())
        b = wrap(Serialize() >> Ordered())
        assert ChunnelDag.merge_arg_updates(a, b) is None
