"""Tests for the Chunnel stack: stage order, fan shapes, charge semantics."""

from types import SimpleNamespace

import pytest

from repro.core import ChunnelStack, Message, Role, SetupContext
from repro.core.chunnel import ChunnelImpl, ChunnelStage, ImplMeta
from repro.core.scope import Endpoints, Placement, Scope
from repro.sim import Environment


class _Impl(ChunnelImpl):
    meta = ImplMeta(
        chunnel_type="test",
        name="t",
        scope=Scope.GLOBAL,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
    )

    def __init__(self):  # bypass spec plumbing for unit tests
        self.spec = None
        self.location = None


class Tag(ChunnelStage):
    """Appends its label to the payload on both paths."""

    def __init__(self, label, charge=0.0):
        super().__init__(_Impl(), Role.CLIENT)
        self.label = label
        self.charge_amount = charge

    def on_send(self, msg):
        msg.payload = msg.payload + f">{self.label}"
        if self.charge_amount:
            self.charge(self.charge_amount)
        return [msg]

    def on_recv(self, msg):
        msg.payload = msg.payload + f"<{self.label}"
        return [msg]


class Splitter(ChunnelStage):
    """1→2 on send."""

    def __init__(self):
        super().__init__(_Impl(), Role.CLIENT)

    def on_send(self, msg):
        left, right = msg.copy(), msg.copy()
        left.payload += ":L"
        right.payload += ":R"
        return [left, right]


class Absorber(ChunnelStage):
    """Consumes everything on receive."""

    def __init__(self):
        super().__init__(_Impl(), Role.CLIENT)
        self.absorbed = 0

    def on_recv(self, msg):
        self.absorbed += 1
        return []


def build(stages):
    env = Environment()
    sent = []
    delivered = []
    stack = ChunnelStack(
        env,
        stages,
        transmit=lambda msg, delay: sent.append((msg, delay)),
        deliver=delivered.append,
    )
    return env, stack, sent, delivered


class TestSendPath:
    def test_stages_run_top_to_bottom(self):
        _env, stack, sent, _ = build([Tag("a"), Tag("b")])
        stack.send(Message(payload=""))
        assert sent[0][0].payload == ">a>b"

    def test_fanout_continues_down(self):
        _env, stack, sent, _ = build([Splitter(), Tag("x")])
        stack.send(Message(payload="m"))
        assert [m.payload for m, _ in sent] == ["m:L>x", "m:R>x"]

    def test_charge_applied_to_first_transmission_only(self):
        _env, stack, sent, _ = build([Splitter(), Tag("x", charge=5e-6)])
        stack.send(Message(payload="m"))
        delays = [delay for _m, delay in sent]
        assert delays[0] == pytest.approx(10e-6)  # two messages through Tag
        assert delays[1] == 0.0

    def test_send_from_skips_upper_stages(self):
        _env, stack, sent, _ = build([Tag("upper"), Tag("lower")])
        stack.send_from(1, Message(payload=""))
        assert sent[0][0].payload == ">lower"


class TestReceivePath:
    def test_stages_run_bottom_to_top(self):
        env, stack, _sent, _delivered = build([Tag("a"), Tag("b")])
        messages, _charge = stack.receive(Message(payload=""))
        assert messages[0].payload == "<b<a"

    def test_receive_collects_instead_of_delivering(self):
        env, stack, _sent, delivered = build([Tag("a")])
        messages, _ = stack.receive(Message(payload=""))
        assert len(messages) == 1
        assert delivered == []  # caller decides when to deliver

    def test_absorber_stops_propagation(self):
        env, stack, _sent, _ = build([Tag("top"), Absorber()])
        messages, _ = stack.receive(Message(payload=""))
        assert messages == []

    def test_receive_returns_accumulated_charge(self):
        class Coster(Tag):
            def on_recv(self, msg):
                self.charge(3e-6)
                return [msg]

        env, stack, _sent, _ = build([Coster("c")])
        _messages, charge = stack.receive(Message(payload=""))
        assert charge == pytest.approx(3e-6)

    def test_spontaneous_deliver_above_goes_to_deliver(self):
        env, stack, _sent, delivered = build([Tag("a")])
        stage = stack.stages[0]
        stage.deliver_above(Message(payload="late"))
        assert [m.payload for m in delivered] == ["late"]

    def test_send_below_during_receive_preserves_pump_charge(self):
        """The Figure 5 fallback-sharder property: forwarding from inside
        receive processing must not consume the receive thread's charge."""

        class Forwarder(ChunnelStage):
            def __init__(self):
                super().__init__(_Impl(), Role.SERVER)

            def on_recv(self, msg):
                self.charge(8e-6)
                self.send_below(msg.copy())
                return []

        env, stack, sent, _ = build([Forwarder()])
        _messages, charge = stack.receive(Message(payload="req"))
        assert charge == pytest.approx(8e-6)  # pump still busy
        assert sent[0][1] == pytest.approx(8e-6)  # forward delayed too


class TestLifecycle:
    def test_negative_charge_rejected(self):
        _env, stack, _s, _d = build([Tag("a")])
        with pytest.raises(ValueError):
            stack.charge(-1)


def node_context(runtime) -> SetupContext:
    """A setup context for one node of a connection on ``runtime``."""
    return SetupContext(
        runtime=runtime,
        role=Role.SERVER,
        conn_id="c",
        offer=None,
        spec=None,
        client_entity="cl",
        server_entity="srv",
    )


class TestShare:
    def setup_method(self):
        self.runtime = SimpleNamespace(shared={})
        self.made: list[str] = []
        self.destroyed: list[str] = []

    def share(self, ctx, key, destroy=True):
        def make():
            self.made.append(key)
            return f"obj:{key}"

        return ctx.share(key, make, self.destroyed.append if destroy else None)

    def test_made_once_for_every_holder(self):
        first, second = node_context(self.runtime), node_context(self.runtime)
        assert self.share(first, "k") == self.share(second, "k") == "obj:k"
        assert self.made == ["k"]

    def test_released_last_taken_first(self):
        ctx = node_context(self.runtime)
        for key in ("program", "port", "entry"):
            self.share(ctx, key)
        ctx.release()
        assert self.destroyed == ["obj:entry", "obj:port", "obj:program"]
        assert self.runtime.shared == {}

    def test_destroyed_with_the_last_reference(self):
        first, second = node_context(self.runtime), node_context(self.runtime)
        self.share(first, "k")
        self.share(second, "k")
        first.release()
        assert self.destroyed == [] and "k" in self.runtime.shared
        second.release()
        assert self.destroyed == ["obj:k"] and self.runtime.shared == {}
        # The next holder makes it afresh.
        self.share(node_context(self.runtime), "k")
        assert self.made == ["k", "k"]

    def test_kept_without_destroy(self):
        ctx = node_context(self.runtime)
        self.share(ctx, "k", destroy=False)
        ctx.release()
        assert self.share(node_context(self.runtime), "k", destroy=False) == "obj:k"
        assert self.made == ["k"]

    def test_release_is_idempotent(self):
        first, second = node_context(self.runtime), node_context(self.runtime)
        self.share(first, "k")
        self.share(second, "k")
        first.release()
        first.release()
        assert self.destroyed == []

    def test_a_failed_make_holds_nothing(self):
        ctx = node_context(self.runtime)

        def make():
            raise RuntimeError("device full")

        with pytest.raises(RuntimeError):
            ctx.share("k", make, self.destroyed.append)
        ctx.release()
        assert self.runtime.shared == {} and self.destroyed == []
