"""Tests for the Chunnel stack: stage order, fan shapes, charge semantics."""

import pytest

from repro.core import ChunnelStack, Message, Role
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
    def test_start_reaches_every_stage(self):
        # Stopping is the connection's: Connection.close stops its live
        # stages wire side first (see tests/core/test_connection.py).
        events = []

        class Tracker(Tag):
            def start(self):
                events.append(f"start:{self.label}")

        _env, stack, _s, _d = build([Tracker("1"), Tracker("2")])
        stack.start()
        assert events == ["start:1", "start:2"]

    def test_negative_charge_rejected(self):
        _env, stack, _s, _d = build([Tag("a")])
        with pytest.raises(ValueError):
            stack.charge(-1)
