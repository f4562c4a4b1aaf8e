"""Tests for registries, policies, and the negotiation decision logic."""

import pytest

from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeAccelerated,
    SerializeFallback,
)
from repro.core import (
    ChunnelRegistry,
    DefaultPolicy,
    ImplCatalog,
    ImplMeta,
    Offer,
    PolicyContext,
    PreferServerPolicy,
    PriorityFirstPolicy,
    ResourceVector,
    Scope,
    decide,
    feasible_offers,
    wrap,
)
from repro.core.scope import Endpoints, Placement
from repro.core.wire import decode, encode
from repro.errors import (
    NoImplementationError,
    RegistrationError,
    ResourceExhaustedError,
)


def meta(
    name,
    chunnel_type="reliable",
    priority=10,
    scope=Scope.GLOBAL,
    endpoints=Endpoints.BOTH,
    placement=Placement.HOST_SOFTWARE,
    resources=None,
):
    return ImplMeta(
        chunnel_type=chunnel_type,
        name=name,
        priority=priority,
        scope=scope,
        endpoints=endpoints,
        placement=placement,
        resources=resources or ResourceVector(),
    )


def ctx(same_host=False, switches=("tor",)):
    return PolicyContext(
        client_entity="cl",
        server_entity="srv",
        client_host="cl",
        server_host="cl" if same_host else "srv",
        same_host=same_host,
        path_switches=list(switches),
    )


class TestRegistry:
    def test_register_and_offer(self):
        registry = ChunnelRegistry(ImplCatalog())
        registry.register(ReliableFallback)
        offers = registry.offers_for(["reliable"], origin="client")
        assert [o.meta.name for o in offers["reliable"]] == ["sw"]
        assert offers["reliable"][0].origin == "client"

    def test_double_registration_rejected(self):
        registry = ChunnelRegistry(ImplCatalog())
        registry.register(ReliableFallback)
        with pytest.raises(RegistrationError):
            registry.register(ReliableFallback)

    def test_unregister(self):
        registry = ChunnelRegistry(ImplCatalog())
        registry.register(ReliableFallback)
        registry.unregister(ReliableFallback)
        assert not registry.has("reliable", "sw")

    def test_offers_only_for_requested_types(self):
        registry = ChunnelRegistry(ImplCatalog())
        registry.register(ReliableFallback)
        registry.register(SerializeFallback)
        offers = registry.offers_for(["serialize"], origin="server")
        assert "reliable" not in offers

    def test_registered_types(self):
        registry = ChunnelRegistry(ImplCatalog())
        registry.register(ReliableFallback)
        assert registry.registered_types() == {"reliable"}

    def test_catalog_lookup_and_instantiate(self):
        catalog = ImplCatalog()
        catalog.add(ReliableFallback)
        impl = catalog.instantiate("reliable", "sw", Reliable())
        assert isinstance(impl, ReliableFallback)

    def test_catalog_unknown_impl(self):
        catalog = ImplCatalog()
        with pytest.raises(NoImplementationError):
            catalog.lookup("reliable", "ghost")


class TestPolicies:
    def offers(self):
        return [
            Offer(meta=meta("sw", priority=10), origin="server"),
            Offer(meta=meta("sw", priority=10), origin="client"),
            Offer(
                meta=meta("toe", priority=75, placement=Placement.SMARTNIC),
                origin="network",
                location="srv",
            ),
        ]

    def test_default_policy_prefers_client_origin(self):
        ranked = DefaultPolicy().rank(Reliable(), self.offers(), ctx())
        assert (ranked[0].origin, ranked[0].meta.name) == ("client", "sw")
        assert ranked[1].origin == "network"

    def test_priority_first_policy(self):
        ranked = PriorityFirstPolicy().rank(Reliable(), self.offers(), ctx())
        assert ranked[0].meta.name == "toe"

    def test_prefer_server_policy(self):
        ranked = PreferServerPolicy().rank(Reliable(), self.offers(), ctx())
        assert ranked[0].origin == "server"

    def test_ranking_is_deterministic(self):
        offers = self.offers()
        first = DefaultPolicy().rank(Reliable(), list(offers), ctx())
        second = DefaultPolicy().rank(Reliable(), list(reversed(offers)), ctx())
        assert [(o.origin, o.meta.name) for o in first] == [
            (o.origin, o.meta.name) for o in second
        ]


class TestFeasibility:
    def test_scope_requirement_filters(self):
        spec = Reliable().scoped(Scope.APPLICATION)
        offers = [
            Offer(meta=meta("sw", scope=Scope.APPLICATION), origin="client"),
            Offer(meta=meta("sw", scope=Scope.APPLICATION), origin="server"),
            Offer(
                meta=meta("nic", scope=Scope.HOST, endpoints=Endpoints.ANY),
                origin="network",
                location="srv",
            ),
        ]
        feasible = feasible_offers(spec, offers, ctx())
        assert {o.meta.name for o in feasible} == {"sw"}

    def test_both_endpoints_requires_both_origins(self):
        spec = Reliable()
        only_client = [Offer(meta=meta("sw"), origin="client")]
        assert feasible_offers(spec, only_client, ctx()) == []
        both = only_client + [Offer(meta=meta("sw"), origin="server")]
        assert len(feasible_offers(spec, both, ctx())) == 2

    def test_one_sided_impls_filter_wrong_origin(self):
        spec = Reliable()
        offers = [
            Offer(
                meta=meta("client-only", endpoints=Endpoints.CLIENT),
                origin="server",
            ),
            Offer(
                meta=meta("client-only", endpoints=Endpoints.CLIENT),
                origin="client",
            ),
        ]
        feasible = feasible_offers(spec, offers, ctx())
        assert [o.origin for o in feasible] == ["client"]

    def test_network_offer_must_be_on_path(self):
        spec = Reliable()
        on_path = Offer(
            meta=meta(
                "seq",
                endpoints=Endpoints.SERVER,
                placement=Placement.SWITCH,
            ),
            origin="network",
            location="tor",
        )
        off_path = Offer(
            meta=meta(
                "seq2",
                endpoints=Endpoints.SERVER,
                placement=Placement.SWITCH,
            ),
            origin="network",
            location="other-switch",
        )
        feasible = feasible_offers(spec, [on_path, off_path], ctx())
        assert [o.meta.name for o in feasible] == ["seq"]

    def test_host_device_offer_must_be_at_right_end(self):
        spec = Reliable()
        at_server = Offer(
            meta=meta(
                "xdp",
                endpoints=Endpoints.SERVER,
                placement=Placement.KERNEL_FASTPATH,
            ),
            origin="network",
            location="srv",
        )
        at_client = Offer(
            meta=meta(
                "xdp2",
                endpoints=Endpoints.SERVER,
                placement=Placement.KERNEL_FASTPATH,
            ),
            origin="network",
            location="cl",
        )
        feasible = feasible_offers(spec, [at_server, at_client], ctx())
        assert [o.meta.name for o in feasible] == ["xdp"]

    def test_other_chunnel_types_ignored(self):
        spec = Reliable()
        offers = [
            Offer(meta=meta("x", chunnel_type="serialize"), origin="client")
        ]
        assert feasible_offers(spec, offers, ctx()) == []


class TestDecide:
    def candidates(self):
        return {
            "reliable": [
                Offer(meta=meta("sw"), origin="client"),
                Offer(meta=meta("sw"), origin="server"),
            ],
            "serialize": [
                Offer(
                    meta=meta("sw", chunnel_type="serialize"),
                    origin="client",
                ),
                Offer(
                    meta=meta("sw", chunnel_type="serialize"),
                    origin="server",
                ),
            ],
        }

    def test_one_choice_per_node(self):
        dag = wrap(Serialize() >> Reliable())
        choice = decide(dag, self.candidates(), DefaultPolicy(), ctx())
        assert set(choice) == set(dag.nodes)
        assert all(offer.meta.name == "sw" for offer in choice.values())

    def test_missing_implementation_raises(self):
        dag = wrap(Serialize() >> Reliable())
        candidates = {"serialize": self.candidates()["serialize"]}
        with pytest.raises(NoImplementationError):
            decide(dag, candidates, DefaultPolicy(), ctx())

    def test_reserver_failure_falls_through_to_next(self):
        dag = wrap(Reliable())
        offers = self.candidates()["reliable"] + [
            Offer(
                meta=meta(
                    "toe",
                    priority=99,
                    endpoints=Endpoints.ANY,
                    placement=Placement.SMARTNIC,
                    resources=ResourceVector(nic_slots=1),
                ),
                origin="network",
                location="srv",
            )
        ]
        chosen = decide(
            dag,
            {"reliable": offers},
            PriorityFirstPolicy(),
            ctx(),
            reserve=lambda offer: offer.meta.name != "toe",
        )
        assert list(chosen.values())[0].meta.name == "sw"

    def test_all_reservations_failing_raises(self):
        dag = wrap(Reliable())
        offers = [
            Offer(
                meta=meta(
                    "toe",
                    endpoints=Endpoints.ANY,
                    placement=Placement.SMARTNIC,
                    resources=ResourceVector(nic_slots=1),
                ),
                origin="network",
                location="srv",
            )
        ]
        with pytest.raises(ResourceExhaustedError):
            decide(
                dag,
                {"reliable": offers},
                DefaultPolicy(),
                ctx(),
                reserve=lambda offer: False,
            )

    def test_zero_resource_offers_skip_reservation(self):
        dag = wrap(Reliable())
        calls = []
        decide(
            dag,
            self.candidates(),
            DefaultPolicy(),
            ctx(),
            reserve=lambda offer: calls.append(offer) or True,
        )
        assert calls == []


class TestOfferWire:
    def test_offer_roundtrip(self):
        offer = Offer(
            meta=meta("toe", priority=75, resources=ResourceVector(nic_slots=1)),
            origin="network",
            location="srv",
            record_id="rec-9",
        )
        decoded = decode(encode(offer))
        assert decoded == offer

    def test_meta_roundtrip(self):
        original = meta(
            "x",
            priority=3,
            scope=Scope.HOST,
            endpoints=Endpoints.SERVER,
            placement=Placement.SWITCH,
            resources=ResourceVector(switch_stages=2),
        )
        assert decode(encode(original)) == original
