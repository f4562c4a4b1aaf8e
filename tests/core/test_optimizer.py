"""Tests for DAG optimization (§6: reorder / merge / eliminate)."""

import pytest

from repro.chunnels import Encrypt, Http2, Ordered, Reliable, Serialize, Tcp
from repro.core import (
    ChunnelTraits,
    DagOptimizer,
    count_device_crossings,
    wrap,
)
from repro.errors import DagError


class TestCrossingCount:
    def test_all_host_pipeline_crosses_once(self):
        # Data must still exit through the NIC.
        assert count_device_crossings(["a", "b"], set()) == 1

    def test_paper_example_original_is_three(self):
        """encrypt |> http2 |> tcp with encrypt+tcp offloadable: the data
        bounces host→NIC→host→NIC = 3 crossings (the paper's 3×)."""
        assert (
            count_device_crossings(
                ["encrypt", "http2", "tcp"], {"encrypt", "tcp"}
            )
            == 3
        )

    def test_paper_example_reordered_is_one(self):
        assert (
            count_device_crossings(
                ["http2", "encrypt", "tcp"], {"encrypt", "tcp"}
            )
            == 1
        )

    def test_empty_chain(self):
        assert count_device_crossings([], set()) == 1  # host → NIC exit
        assert count_device_crossings([], set(), tail_on_device=False) == 0


class TestTraits:
    def test_commutes_is_symmetric(self):
        traits = ChunnelTraits()
        traits.register_commutes("a", "b")
        assert traits.commutes("a", "b")
        assert traits.commutes("b", "a")

    def test_same_type_always_commutes(self):
        assert ChunnelTraits().commutes("x", "x")

    def test_unknown_pairs_do_not_commute(self):
        assert not ChunnelTraits().commutes("a", "b")

    def test_merge_registration(self):
        traits = ChunnelTraits()
        traits.register_merge("a", "b", "ab")
        assert traits.merge_result("a", "b") == "ab"
        assert traits.merge_result("b", "a") is None  # directional

    def test_builtin_traits_include_paper_algebra(self):
        from repro.core import default_traits

        assert default_traits.commutes("encrypt", "http2")
        assert default_traits.merge_result("encrypt", "tcp") == "tls"
        assert default_traits.is_idempotent("ordered")


class TestReorder:
    def test_paper_reorder(self):
        dag = wrap(Encrypt() >> Http2() >> Tcp())
        result = DagOptimizer().optimize(
            dag,
            offloadable={"encrypt", "tcp"},
            available_types={"encrypt", "http2", "tcp"},
        )
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "http2",
            "encrypt",
            "tcp",
        ]
        assert result.crossings_before == 3
        assert result.crossings_after == 1
        assert any(step.kind == "reorder" for step in result.steps)

    def test_no_offloads_means_no_reorder(self):
        dag = wrap(Encrypt() >> Http2() >> Tcp())
        result = DagOptimizer().optimize(
            dag,
            offloadable=set(),
            available_types={"encrypt", "http2", "tcp"},  # no tls: no merge
        )
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "encrypt",
            "http2",
            "tcp",
        ]

    def test_non_commuting_chain_stays_put(self):
        dag = wrap(Serialize() >> Encrypt())  # serialize must precede encrypt
        result = DagOptimizer().optimize(
            dag,
            offloadable={"serialize"},
            available_types={"serialize", "encrypt"},
        )
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "serialize",
            "encrypt",
        ]

    def test_reorder_preserves_spec_args(self):
        dag = wrap(Encrypt(key_id="k9") >> Http2() >> Tcp())
        result = DagOptimizer().optimize(
            dag,
            offloadable={"encrypt", "tcp"},
            available_types={"encrypt", "http2", "tcp"},
        )
        encrypt_spec = [
            s for s in result.dag.specs_in_order() if s.type_name == "encrypt"
        ][0]
        assert encrypt_spec.args["key_id"] == "k9"

    def test_oversized_chain_rejected(self):
        from repro.chunnels import Anycast, LocalOrRemote, Ordered, RateLimit, Tls

        specs = [
            Serialize(),
            Ordered(),
            Encrypt(),
            Http2(),
            Tcp(),
            Tls(),
            RateLimit(bytes_per_second=1e6),
            LocalOrRemote(),
            Anycast(),
        ]
        dag = wrap(*specs)
        with pytest.raises(DagError, match="9-stage chain"):
            DagOptimizer().optimize(dag, offloadable={"encrypt"})


class TestMerge:
    def test_paper_merge_after_reorder(self):
        """If the NIC offers only a TLS engine, reorder then fuse."""
        dag = wrap(Encrypt() >> Http2() >> Tcp())
        result = DagOptimizer().optimize(
            dag,
            offloadable={"encrypt", "tcp", "tls"},
            available_types={"encrypt", "http2", "tcp", "tls"},
        )
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "http2",
            "tls",
        ]
        assert any(step.kind == "merge" for step in result.steps)

    def test_merge_blocked_when_target_unavailable(self):
        dag = wrap(Encrypt() >> Tcp())
        result = DagOptimizer().optimize(
            dag, offloadable=set(), available_types={"encrypt", "tcp"}
        )
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "encrypt",
            "tcp",
        ]

    def test_merged_spec_unions_args(self):
        dag = wrap(Encrypt(key_id="kk") >> Tcp(max_retries=9))
        result = DagOptimizer().optimize(
            dag,
            offloadable=set(),
            available_types={"encrypt", "tcp", "tls"},
        )
        tls_spec = result.dag.specs_in_order()[0]
        assert tls_spec.type_name == "tls"
        assert tls_spec.args["key_id"] == "kk"
        assert tls_spec.args["max_retries"] == 9


class TestEliminate:
    def test_duplicate_idempotent_collapses(self):
        dag = wrap(Ordered() >> Ordered() >> Reliable())
        result = DagOptimizer().optimize(dag)
        assert [s.type_name for s in result.dag.specs_in_order()] == [
            "ordered",
            "reliable",
        ]
        assert any(step.kind == "eliminate" for step in result.steps)

    def test_non_idempotent_duplicates_kept(self):
        dag = wrap(Encrypt() >> Encrypt())  # double encryption is meaningful
        result = DagOptimizer().optimize(dag)
        assert len(result.dag) == 2

    def test_non_adjacent_duplicates_kept(self):
        dag = wrap(Ordered() >> Encrypt() >> Ordered())
        result = DagOptimizer().optimize(dag)
        assert len(result.dag) == 3


class TestBranchingAndEmpty:
    def test_empty_dag_unchanged(self):
        result = DagOptimizer().optimize(wrap())
        assert result.dag.is_empty
        assert not result.changed

    def test_branching_dag_left_alone(self):
        from repro.core import ChunnelSpec, register_spec

        @register_spec
        class Fan(ChunnelSpec):
            type_name = "test_opt_fan"

            def __init__(self, branches):
                super().__init__(branches=branches)

        dag = wrap(Fan(branches=[Ordered(), Ordered()]))
        result = DagOptimizer().optimize(dag, offloadable={"ordered"})
        assert not result.changed
        assert len(result.dag) == 3
