"""The connection lifecycle as a state machine (PROTOCOL.md §5.4).

A connection's data path is under a set of holds (``VERDICT``, ``EPOCH``,
``FAILOVER``) and may have a broken newest stack; ``Connection.hold`` and
``Connection.release`` are the only writers of the set, and one release
drains the inbound buffer, then the send buffer.  Hypothesis drives a real
``Connection`` through any interleaving of sends, inbound data stamped
with an old or the current epoch, taking and releasing each hold, epoch
prepare / commit / abort and marking the newest stack broken (an
initiator's ``EPOCH`` is one more hold to take; an adopting peer commits
without it), and checks
after every step that

* every application send leaves exactly once, in send order, through the
  stack current when it leaves — the newest committed one;
* a send leaves while no hold that buffers sends is held, and no stage
  sees inbound data while ``VERDICT`` is held;
* every inbound data message reaches the application exactly once, and
  buffered ones in arrival order;
* a release drains the inbound buffer before the send buffer.

Tier-1 runs the machine derandomized; the soak (``pytest -m soak``) draws
fresh random examples.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.chunnels import Reliable, Serialize
from repro.core import Runtime, wrap
from repro.core.chunnel import ChunnelStage, Role
from repro.core.connection import (
    BROKEN,
    EPOCH,
    FAILOVER,
    HELD,
    LIFECYCLE,
    RETIRE_GRACE,
    VERDICT,
    Binding,
    Connection,
)
from repro.core.wire import EPOCH_HEADER
from repro.sim import Address, Network, UdpSocket
from repro.sim.datagram import Datagram

HOLDS = (VERDICT, EPOCH, FAILOVER)


class _Tap(ChunnelStage):
    """A one-stage stack per epoch that logs what crosses it."""

    def __init__(self, machine: "LifecycleMachine", epoch: int):
        super().__init__(impl=None, role=Role.CLIENT)
        self.machine = machine
        self.epoch = epoch

    def on_send(self, msg):
        self.machine.left.append((self, msg.payload))
        self.machine.crossings.append("send")
        return []  # the wire is not under test

    def on_recv(self, msg):
        self.machine.crossings.append("recv")
        return [msg]


class LifecycleMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        net = Network()
        host = net.add_host("h")
        #: (stage, payload) per send that left, in order.
        self.left: list = []
        #: "send" / "recv", in the order stages saw them.
        self.crossings: list[str] = []
        #: Violations found inside a stage call, checked as an invariant.
        self.problems: list[str] = []
        self.sends: list[str] = []
        self.arrivals: list[str] = []
        self.delivered: list[str] = []
        self.buffered_arrivals: list[str] = []
        self.prepared = None
        self.conn = Connection(
            Runtime(host),
            "lifecycle",
            "h/conn-1",
            Role.CLIENT,
            self._binding(0),
            UdpSocket(host),
            peers=[Address("peer", 1)],
        )

    def _binding(self, epoch):
        """A one-node binding whose stage is a fresh tap for ``epoch``."""
        dag = wrap(Serialize())
        (node,) = dag.topological_order()
        return Binding(dag, {}, {}, {}, {node: _Tap(self, epoch)})

    # -- rules ------------------------------------------------------------------
    @rule()
    def send(self):
        payload = f"s{len(self.sends)}"
        self.sends.append(payload)
        before = len(self.left)
        self.conn.send(payload, size=8)
        self._check_sent(self.left[before:])

    @rule(old=st.booleans())
    def inbound(self, old):
        conn = self.conn
        payload = f"r{len(self.arrivals)}"
        self.arrivals.append(payload)
        epochs = sorted(conn._epochs)
        epoch = epochs[0] if old else conn.epoch
        buffered = len(conn._inbound_buffer)
        before = len(self.crossings)
        conn._pump._dispatch(
            Datagram(
                src=Address("peer", 1),
                dst=conn.local_address,
                payload=payload,
                size=8,
                headers={EPOCH_HEADER: epoch} if epoch else {},
            )
        )
        if len(conn._inbound_buffer) > buffered:
            self.buffered_arrivals.append(payload)
        self._check_received(before)

    @rule(hold=st.sampled_from(HOLDS))
    def take(self, hold):
        self.conn.hold(hold)

    @rule(hold=st.sampled_from(HOLDS))
    def release(self, hold):
        self._released(lambda: self.conn.release(hold))

    @precondition(lambda self: self.prepared is None)
    @rule()
    def prepare(self):
        epoch = self.prepared = self.conn.new_epoch()
        self.conn.prepare_transition(epoch, self._binding(epoch))

    @precondition(lambda self: self.prepared is not None)
    @rule()
    def commit(self):
        conn, epoch = self.conn, self.prepared
        self.prepared = None
        self._released(lambda: conn.commit_transition(epoch))

    @precondition(lambda self: self.prepared is not None)
    @rule()
    def abort(self):
        epoch, self.prepared = self.prepared, None
        self._released(lambda: self.conn.abort_transition(epoch))

    @rule()
    def mark_newest_broken(self):
        self.conn.mark_broken(max(self.conn._epochs))

    # -- checks -------------------------------------------------------------------
    def _released(self, action):
        left, crossed = len(self.left), len(self.crossings)
        action()
        self._check_sent(self.left[left:])
        self._check_received(crossed)
        drained = self.crossings[crossed:]
        if "send" in drained and "recv" in drained[drained.index("send") :]:
            self.problems.append("a release drained sends before inbound data")

    def _check_sent(self, new):
        conn = self.conn
        for stage, _payload in new:
            if stage.stack is not conn.stack:
                self.problems.append(f"send left through epoch {stage.epoch}")
            if conn.holds & {h for h in HOLDS if LIFECYCLE[h][0] == HELD}:
                self.problems.append(f"send left under {sorted(conn.holds)}")

    def _check_received(self, before):
        if VERDICT in self.conn.holds and "recv" in self.crossings[before:]:
            self.problems.append("a stage saw data while VERDICT was held")

    @invariant()
    def nothing_went_wrong(self):
        assert not self.problems, self.problems

    @invariant()
    def sends_leave_once_in_order(self):
        out = [payload for _stage, payload in self.left]
        buffered = [msg.payload for msg in self.conn._send_buffer]
        assert out + buffered == self.sends

    @invariant()
    def inbound_exactly_once_buffered_in_order(self):
        while True:
            got, msg = self.conn.try_recv()
            if not got:
                break
            self.delivered.append(msg.payload)
        delivered = self.delivered
        held = [msg.payload for msg in self.conn._inbound_buffer]
        assert sorted(delivered + held) == sorted(self.arrivals)
        assert len(set(delivered + held)) == len(self.arrivals)
        drained = [p for p in delivered if p in set(self.buffered_arrivals)]
        assert drained + held == self.buffered_arrivals

    def teardown(self):
        # Release everything: no message may stay behind.
        if not hasattr(self, "conn"):
            return
        conn = self.conn
        if self.prepared is not None:
            self.commit()
        for hold in HOLDS:
            self.release(hold)
        # Data held for a broken newest stack waits for the next commit.
        self.prepare()
        self.commit()
        assert not conn.holds
        assert not conn._send_buffer and not conn._inbound_buffer
        assert [payload for _stage, payload in self.left] == self.sends
        self.nothing_went_wrong()
        self.inbound_exactly_once_buffered_in_order()


TestLifecycleMachine = LifecycleMachine.TestCase
TestLifecycleMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None, derandomize=True
)


@pytest.mark.soak
class TestLifecycleMachineSoak(LifecycleMachine.TestCase):
    settings = settings(max_examples=2000, stateful_step_count=40, deadline=None)


def test_the_table_has_a_row_per_hold_and_one_for_a_broken_stack():
    assert set(LIFECYCLE) == {VERDICT, EPOCH, FAILOVER, BROKEN}
    # Every hold buffers sends, and only the verdict holds inbound data.
    assert all(LIFECYCLE[hold][0] == HELD for hold in HOLDS)
    assert [h for h in HOLDS if LIFECYCLE[h][1] == HELD] == [VERDICT]


class _Starts(ChunnelStage):
    """A stage that logs its start."""

    def __init__(self, log: list, label: str):
        super().__init__(impl=None, role=Role.CLIENT)
        self.log, self.label = log, label

    def start(self):
        self.log.append(self.label)


def _bare_connection(stages: list) -> Connection:
    """A client connection over ``serialize -> reliable`` whose epoch-0
    binding has ``stages`` (one per node) and nothing else."""
    host = Network().add_host("h")
    return Connection(
        Runtime(host), "bare", "h/conn-1", Role.CLIENT, _bare_binding(stages),
        UdpSocket(host), peers=[Address("peer", 1)],
    )


def _bare_binding(stages: list) -> Binding:
    dag = wrap(Serialize() >> Reliable())
    return Binding(dag, {}, {}, {}, dict(enumerate(stages)))


def test_installing_an_epoch_starts_each_new_stage_once_in_order():
    log: list = []
    first, second = _Starts(log, "a"), _Starts(log, "b")
    conn = _bare_connection([first, second])
    assert log == ["a", "b"]
    # A carried stage keeps running; only the new one starts.
    conn.prepare_transition(conn.new_epoch(), _bare_binding([first, _Starts(log, "c")]))
    assert log == ["a", "b", "c"]


def test_a_retire_timer_acts_only_on_the_binding_it_was_armed_for():
    def stages():
        return [ChunnelStage(impl=None, role=Role.CLIENT) for _ in range(2)]

    conn = _bare_connection(stages())
    for epoch in (1, 2):
        conn.prepare_transition(epoch, _bare_binding(stages()))
        conn.commit_transition(epoch)
    conn.retire_epoch(1)
    # Epoch 1 is re-prepared under a binding of its own before the grace
    # ends (a peer's number landing on one this end still holds).
    reused = _bare_binding(stages())
    conn.prepare_transition(1, reused)
    conn.env.run(until=conn.env.now + 2 * RETIRE_GRACE)
    assert conn._epochs[1] is reused
    assert all(stage.stack is reused.stack for stage in reused.stack.stages)
    assert conn.new_epoch() == 3
