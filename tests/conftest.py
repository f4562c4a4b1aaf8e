"""Shared fixtures and world-builders for the test suite.

Conventions:

* Every test builds its own :class:`~repro.sim.Network` (no shared mutable
  state between tests); the ``net``/``env`` fixtures give a fresh one.
* ``two_hosts`` / ``one_host_two_containers`` build the standard topologies
  most integration tests need.
* ``run(env, gen)`` drives a generator as a sim process to completion and
  returns its value — the workhorse for protocol tests.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

import repro.chunnels  # noqa: F401 - populates the catalog
from repro.core import Runtime, catalog
from repro.core.stack import ChunnelStack
from repro.core.wire import wire_kind
from repro.discovery import DiscoveryService
from repro.sim import CostModel, Environment, LossProgram, Network, SmartNic


@pytest.fixture
def net() -> Network:
    """A fresh, empty network."""
    return Network()


@pytest.fixture
def env(net: Network) -> Environment:
    """The fresh network's environment."""
    return net.env


class World:
    """A ready-made topology plus runtimes for integration tests."""

    def __init__(self, net: Network, discovery: DiscoveryService):
        self.net = net
        self.env = net.env
        self.discovery = discovery
        self.runtimes: dict[str, Runtime] = {}

    def runtime(self, entity_name: str, **kwargs) -> Runtime:
        """A runtime on the named entity, talking to this world's discovery."""
        runtime = Runtime(
            self.net.entity(entity_name),
            discovery=kwargs.pop("discovery", self.discovery.address),
            **kwargs,
        )
        self.runtimes[entity_name] = runtime
        return runtime

    def run(self, until=None):
        return self.env.run(until)


@pytest.fixture
def two_hosts() -> World:
    """client ("cl") and server ("srv") hosts behind a ToR, plus discovery."""
    net = Network()
    net.add_host("cl")
    net.add_host("srv")
    net.add_host("dsc")
    net.add_switch("tor")
    for name in ("cl", "srv", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    return World(net, DiscoveryService(net.hosts["dsc"]))


@pytest.fixture
def two_hosts_smartnic() -> World:
    """Like ``two_hosts`` but the server has a SmartNIC."""
    net = Network()
    net.add_host("cl")
    srv_nic = None  # placeholder; SmartNic needs the env first
    net.add_host("dsc")
    host = net.add_host(
        "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
    )
    assert host.smartnic is not None
    net.add_switch("tor")
    for name in ("cl", "srv", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    return World(net, DiscoveryService(net.hosts["dsc"]))


@pytest.fixture
def one_host_two_containers() -> World:
    """Two containers ("ca", "cb") on one host ("box"), discovery on host."""
    net = Network()
    host = net.add_host("box")
    host.add_container("ca")
    host.add_container("cb")
    return World(net, DiscoveryService(host))


def tap_control(net: Network, drop=None, switch: str = "tor") -> list:
    """Record every control datagram crossing ``switch`` as ``(time, kind,
    datagram)`` in the returned list; ``drop(kind, datagram)`` returning
    True discards that datagram there."""
    seen: list = []

    def predicate(dgram) -> bool:
        kind = wire_kind(dgram.payload)
        if kind is None:
            return False
        seen.append((net.env.now, kind, dgram))
        return drop is not None and drop(kind, dgram)

    net.switches[switch].install(
        LossProgram("control-tap", predicate=predicate, drop_first=10**9)
    )
    return seen


class Receive(NamedTuple):
    """One datagram a Chunnel stack processed (see :func:`stack_receives`)."""

    time: float
    conn_id: str
    role: str
    epoch: int
    #: Implementation class of every stage in the stack, top down.
    impls: tuple


def stack_receives(monkeypatch) -> list:
    """Record every datagram a Chunnel stack processes as a
    :class:`Receive`.  Data a connection holds for a lease verdict shows
    up only once it is released into a stack."""
    seen: list = []
    receive = ChunnelStack.receive

    def recording(stack, msg):
        conn = stack.connection
        impls = tuple(type(stage.impl).__name__ for stage in stack.stages)
        seen.append(
            Receive(stack.env.now, conn.conn_id, conn.role.value, stack.epoch, impls)
        )
        return receive(stack, msg)

    monkeypatch.setattr(ChunnelStack, "receive", recording)
    return seen


def assert_no_stage_ran_before_its_verdict(net: Network, receives: list) -> None:
    """The hold, asserted: no server stack processed a datagram of a
    connection before that connection's lease check had answered (the
    first ``lease_check`` span under its id: later ones are re-decisions)."""
    verdicts: dict = {}
    for span in net.trace.select("lease_check"):
        verdicts.setdefault(span.conn_id, span.end)
    early = [
        seen
        for seen in receives
        if seen.role == "server"
        and seen.conn_id in verdicts
        and (verdicts[seen.conn_id] is None or seen.time < verdicts[seen.conn_id])
    ]
    assert early == []


def builtin_catalog() -> dict:
    """The catalog's ``(type, impl) → class`` entries from the library
    itself (tests may add app-private implementations to it)."""
    return {
        key: cls
        for key, cls in catalog._classes.items()
        if cls.__module__.startswith("repro.")
    }


def run(env: Environment, generator, until: float = 5.0):
    """Drive ``generator`` as a process; return its value (or raise)."""
    proc = env.process(generator)
    env.run(until=until)
    if not proc.processed:
        raise AssertionError(
            f"process did not finish within {until} simulated seconds"
        )
    if not proc.ok:
        raise proc.value
    return proc.value


@pytest.fixture
def drive():
    """The ``run`` helper as a fixture."""
    return run
