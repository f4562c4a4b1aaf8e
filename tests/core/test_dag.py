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

    def test_scoped_is_a_new_spec(self):
        plain = Reliable(max_retries=2)
        spec = plain.scoped(Scope.HOST)
        assert spec is not plain and type(spec) is Reliable
        assert plain.scope_requirement is Scope.GLOBAL
        assert spec.args == plain.args

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
        assert len(dag.nodes) == 0

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

    @staticmethod
    def _built_and_decoded(edge):
        """Build ``serialize -> reliable`` plus ``edge``, both directly and
        off the wire; return the two errors."""
        dag = Serialize() >> Reliable()
        with pytest.raises(DagError) as built:
            ChunnelDag._build(dict(dag.nodes), [*dag.edges, edge])
        wire = encode(dag)
        wire["@"][2] = sorted([*wire["@"][2], list(edge)])
        with pytest.raises(WireError) as decoded:
            decode(wire)
        return str(built.value), str(decoded.value)

    def test_dangling_edge_detected(self):
        built, decoded = self._built_and_decoded((1, 99))
        assert "missing node" in built and "missing node" in decoded

    def test_self_loop_detected(self):
        built, decoded = self._built_and_decoded((1, 1))
        assert "self-loop" in built and "self-loop" in decoded

    def test_wrap_rejects_non_specs(self):
        with pytest.raises(DagError):
            wrap("not a spec")

    def test_a_dag_cannot_be_changed(self):
        dag = Serialize() >> Reliable()
        with pytest.raises(TypeError):
            dag.nodes[0] = Ordered()
        with pytest.raises(AttributeError):
            dag.edges.add((1, 0))
        for name in ("nodes", "edges"):
            with pytest.raises(AttributeError):
                setattr(dag, name, getattr(dag, name))
        assert dag.chunnel_types() == ["serialize", "reliable"]

    def test_a_dag_cannot_be_changed_through_its_specs(self):
        dag = Serialize() >> Reliable()
        before = encode(dag)
        for spec in dag.nodes.values():
            spec.scoped(Scope.HOST)
        assert encode(dag) == before

    def test_with_spec_is_a_new_dag_with_the_same_order(self):
        dag = wrap(Serialize() >> Reliable(max_retries=2))
        replaced = dag.with_spec(1, Reliable(max_retries=9))
        assert dag.nodes[1].args["max_retries"] == 2
        assert replaced.nodes[1].args["max_retries"] == 9
        assert replaced.nodes[0] is dag.nodes[0]
        assert replaced.edges == dag.edges
        assert replaced.topological_order() == dag.topological_order()
        with pytest.raises(DagError):
            dag.with_spec(7, Reliable())


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
        # Unchanged nodes keep *current*'s spec objects.
        assert merged.nodes[ser_id] is a.nodes[ser_id]

    def test_structural_difference_refuses_to_merge(self):
        a = wrap(Serialize() >> Reliable())
        b = wrap(Serialize() >> Reliable() >> Ordered())
        assert ChunnelDag.merge_arg_updates(a, b) is None

    def test_type_difference_refuses_to_merge(self):
        a = wrap(Serialize() >> Reliable())
        b = wrap(Serialize() >> Ordered())
        assert ChunnelDag.merge_arg_updates(a, b) is None


class TestOrderedOnce:
    """A DAG is ordered when it is built and its shape kept once asked for:
    a cold-connect world sorts at most once per DAG and computes no shape
    twice."""

    def test_a_cold_connect_world_orders_each_dag_once(self, monkeypatch):
        from repro.core import dag as dag_module
        from tests.core.test_connection_footprint import _echo_world

        built, sorts, shapes = [], [0], {}
        freeze, heapify = ChunnelDag._freeze, dag_module.heapify
        canonical_shape = ChunnelDag.canonical_shape

        def counting_freeze(dag, *args):
            built.append(dag)  # held, so ids stay unique
            freeze(dag, *args)

        def counting_heapify(ready):
            sorts[0] += 1
            heapify(ready)

        def counting_shape(dag):
            if dag._shape is None:
                shapes[id(dag)] = shapes.get(id(dag), 0) + 1
            return canonical_shape(dag)

        monkeypatch.setattr(ChunnelDag, "_freeze", counting_freeze)
        monkeypatch.setattr(dag_module, "heapify", counting_heapify)
        monkeypatch.setattr(ChunnelDag, "canonical_shape", counting_shape)
        net, server, client_rts = _echo_world()
        env = net.env

        def client(runtime):
            for op in range(3):
                endpoint = runtime.new(f"c-{op}", Serialize() >> Reliable())
                conn = yield from endpoint.connect(server.address)
                conn.send(b"x" * 64, size=64)
                yield conn.recv()
                conn.close()

        procs = [env.process(client(rt)) for rt in client_rts]
        env.run(until=env.all_of(procs))
        connects = 3 * len(client_rts)
        assert len(built) >= 2 * connects
        assert 0 < sorts[0] <= len(built)
        assert shapes and set(shapes.values()) == {1}
