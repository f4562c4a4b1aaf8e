"""Table 1 of the paper is a glossary; verify every term maps to real API.

| Term          | Paper meaning                                   | Here |
|---------------|--------------------------------------------------|------|
| Chunnel       | a piece of network-oriented app functionality    | ChunnelSpec/ChunnelImpl |
| Offload       | specialized hardware implementing Chunnels       | SmartNic / ProgrammableSwitch + Placement |
| Fallback Impl | default end-host implementation                  | the `*Fallback` classes |
| Chunnel DAG   | the application's Chunnel specification          | ChunnelDag / wrap |
| Scope         | constraint on where a Chunnel is implemented     | Scope enum + .scoped() |
"""

from repro.core import (
    ChunnelDag,
    ChunnelImpl,
    ChunnelSpec,
    Placement,
    Scope,
    catalog,
    wrap,
)
from repro.sim import ProgrammableSwitch, SmartNic

from .conftest import builtin_catalog


class TestGlossaryTerms:
    def test_chunnel_is_spec_plus_impl(self):
        assert issubclass(ChunnelSpec, object)
        assert hasattr(ChunnelImpl, "setup")
        assert hasattr(ChunnelImpl, "teardown")
        assert hasattr(ChunnelImpl, "make_stage")

    def test_offload_devices_exist(self):
        # "Tofino Switch" ↔ ProgrammableSwitch; SmartNIC hardware too.
        assert hasattr(ProgrammableSwitch, "install")
        assert hasattr(SmartNic, "install")
        assert Placement.SWITCH.is_offload
        assert Placement.SMARTNIC.is_offload

    def test_fallback_implementations_for_every_builtin_type(self):
        """Host fallback (§2's requirement): every built-in Chunnel type has
        at least one HOST_SOFTWARE implementation in the catalog."""
        types = {chunnel_type for chunnel_type, _name in builtin_catalog()}
        assert len(types) == 15
        for chunnel_type in types:
            impls = catalog.implementations_of(chunnel_type)
            assert impls, f"no implementations of {chunnel_type!r}"
            assert any(
                cls.meta.placement is Placement.HOST_SOFTWARE for cls in impls
            ), f"no host fallback for {chunnel_type!r}"

    def test_chunnel_dag_term(self):
        dag = wrap()
        assert isinstance(dag, ChunnelDag)

    def test_scope_term(self):
        # "Local scope (§3)" — the paper's bertha::scope::Application.
        assert Scope.APPLICATION
        spec_like = wrap()
        assert hasattr(ChunnelSpec, "scoped")

    def test_listing5_register_chunnel_exists(self):
        from repro.core import Runtime

        assert hasattr(Runtime, "register_chunnel")

    def test_listing_api_surface(self):
        """The paper's API verbs all exist: new / listen / connect /
        send / recv."""
        from repro.core import Connection, Endpoint, Runtime

        assert hasattr(Runtime, "new")
        assert hasattr(Endpoint, "listen")
        assert hasattr(Endpoint, "connect")
        assert hasattr(Connection, "send")
        assert hasattr(Connection, "recv")
