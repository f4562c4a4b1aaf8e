"""Tests for scopes, endpoint constraints, and resource vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Endpoints, Placement, ResourceVector, Scope
from repro.core.wire import decode, encode


class TestScope:
    def test_ordering(self):
        assert Scope.APPLICATION < Scope.HOST < Scope.RACK
        assert Scope.RACK < Scope.NETWORK < Scope.GLOBAL

    def test_requirement_satisfied_by_tighter_scope(self):
        assert Scope.HOST.satisfied_by(Scope.APPLICATION)
        assert Scope.HOST.satisfied_by(Scope.HOST)
        assert not Scope.HOST.satisfied_by(Scope.NETWORK)

    def test_global_accepts_everything(self):
        for scope in Scope:
            assert Scope.GLOBAL.satisfied_by(scope)

    def test_application_accepts_only_itself(self):
        assert Scope.APPLICATION.satisfied_by(Scope.APPLICATION)
        for scope in (Scope.HOST, Scope.RACK, Scope.NETWORK, Scope.GLOBAL):
            assert not Scope.APPLICATION.satisfied_by(scope)


class TestEndpoints:
    def test_both_needs_both(self):
        assert Endpoints.BOTH.needs_client()
        assert Endpoints.BOTH.needs_server()

    def test_one_sided(self):
        assert Endpoints.CLIENT.needs_client()
        assert not Endpoints.CLIENT.needs_server()
        assert Endpoints.SERVER.needs_server()
        assert not Endpoints.SERVER.needs_client()

    def test_any_needs_neither_specifically(self):
        assert not Endpoints.ANY.needs_client()
        assert not Endpoints.ANY.needs_server()


class TestPlacement:
    def test_offload_flag(self):
        assert not Placement.HOST_SOFTWARE.is_offload
        assert Placement.KERNEL_FASTPATH.is_offload
        assert Placement.SMARTNIC.is_offload
        assert Placement.SWITCH.is_offload


class TestResourceVector:
    def test_zero_entries_dropped(self):
        assert ResourceVector({"a": 0, "b": 1}) == ResourceVector({"b": 1})

    def test_missing_component_reads_zero(self):
        assert ResourceVector({"a": 1})["b"] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector({"a": -1})

    def test_addition(self):
        total = ResourceVector(a=1, b=2) + ResourceVector(b=3, c=4)
        assert total == ResourceVector(a=1, b=5, c=4)

    def test_subtraction(self):
        left = ResourceVector(a=3, b=2) - ResourceVector(a=1, b=2)
        assert left == ResourceVector(a=2)

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(a=1) - ResourceVector(a=2)

    def test_fits_within(self):
        capacity = ResourceVector(stages=12, sram=4096)
        assert ResourceVector(stages=12).fits_within(capacity)
        assert not ResourceVector(stages=13).fits_within(capacity)
        assert not ResourceVector(other=1).fits_within(capacity)

    def test_dominant_share(self):
        capacity = ResourceVector(cpu=10, mem=100)
        need = ResourceVector(cpu=5, mem=10)
        assert need.dominant_share(capacity) == pytest.approx(0.5)

    def test_dominant_share_unsatisfiable_resource(self):
        assert ResourceVector(gpu=1).dominant_share(
            ResourceVector(cpu=4)
        ) == float("inf")

    def test_zero_vector(self):
        assert ResourceVector().is_zero
        assert ResourceVector().dominant_share(ResourceVector(a=1)) == 0.0

    def test_scaled(self):
        assert ResourceVector(a=2).scaled(1.5) == ResourceVector(a=3)
        with pytest.raises(ValueError):
            ResourceVector(a=1).scaled(-1)

    def test_wire_roundtrip(self):
        vector = ResourceVector(a=1.5, b=2)
        assert decode(encode(vector)) == vector

    def test_hashable(self):
        assert hash(ResourceVector(a=1)) == hash(ResourceVector({"a": 1}))

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0, max_value=100),
            max_size=3,
        ),
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0, max_value=100),
            max_size=3,
        ),
    )
    def test_addition_commutes(self, left, right):
        a, b = ResourceVector(left), ResourceVector(right)
        assert a + b == b + a

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.floats(min_value=0, max_value=50),
            max_size=2,
        )
    )
    def test_add_then_subtract_roundtrips(self, amounts):
        import math

        vector = ResourceVector(amounts)
        base = ResourceVector(a=100, b=100)
        result = (base + vector) - vector
        for name in ("a", "b"):
            assert math.isclose(result[name], base[name], rel_tol=1e-9)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b"]),
            st.floats(min_value=0, max_value=10),
            min_size=1,
            max_size=2,
        )
    )
    def test_fits_within_consistent_with_dominant_share(self, amounts):
        need = ResourceVector(amounts)
        capacity = ResourceVector(a=10, b=10)
        fits = need.fits_within(capacity)
        share = need.dominant_share(capacity)
        assert fits == (share <= 1.0 + 1e-9)
