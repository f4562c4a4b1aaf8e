"""A closed connection is freed the moment the application drops it.

The kernel pauses the cyclic collector for the whole of ``Environment.run``
(DESIGN.md §7), so whatever a closed connection leaves in a reference
cycle stays resident until the simulation ends.  Ownership inside a
connection therefore runs one way — connection → stacks → stages,
connection → pump → socket — and ``close()`` unhooks every back-reference.
These tests check it with the collector off, and census what every
``run()`` of three experiment worlds leaves as cyclic garbage.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.apps import EchoServer
from repro.chunnels import Reliable, ReliableFallback, Serialize, SerializeFallback
from repro.experiments.__main__ import EXPERIMENTS
from repro.sim import Environment

from ..conftest import run

def _watch(conn) -> list:
    """Weak references to ``conn``, each of its stacks and their stages."""
    stacks = [binding.stack for binding in conn._epochs.values()]
    stages = [stage for stack in stacks for stage in stack.stages]
    return [weakref.ref(obj) for obj in (conn, *stacks, *stages)]


def test_closed_connections_are_freed_with_the_collector_off(two_hosts):
    """A client connection the application closes, and the server side an
    idle reaper closes, are both freed by reference counting alone."""
    world = two_hosts
    server_rt = world.runtime("srv")
    client_rt = world.runtime("cl")
    for runtime in (server_rt, client_rt):
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
    server = EchoServer(
        server_rt, port=7000, dag=Serialize() >> Reliable(), idle_close=1e-3
    )
    watched = {}

    def client(env):
        conn = yield from client_rt.new("c", Serialize() >> Reliable()).connect(
            server.address
        )
        conn.send(b"ping")
        yield conn.recv()
        (server_conn,) = server.listener.connections
        watched["server"] = _watch(server_conn)
        watched["client"] = _watch(conn)
        assert len(watched["client"]) == 4  # connection, stack, two stages
        del server_conn
        conn.close()
        del conn
        # Two reaper sweeps: the first sees the traffic, the second none.
        yield env.timeout(5e-3)

    gc.collect()
    gc.disable()
    try:
        run(world.env, client(world.env))
        assert server.idle_closed == 1
        assert server.listener.connections == []
        alive = {
            side: [ref() for ref in refs if ref() is not None]
            for side, refs in watched.items()
        }
    finally:
        gc.enable()
    assert alive == {"server": [], "client": []}


@pytest.fixture
def census(monkeypatch):
    """Counts, by class, the ``repro`` objects each ``Environment.run``
    leaves in cyclic garbage: the collector frees what came before the
    run, then saves what the run dropped into ``gc.garbage``."""
    found: Counter = Counter()
    original = Environment.run

    def run_and_census(env, until=None):
        gc.set_debug(0)
        gc.collect()
        try:
            return original(env, until)
        finally:
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            for obj in gc.garbage:
                kind = type(obj)
                if kind.__module__.startswith("repro."):
                    found[f"{kind.__module__}.{kind.__qualname__}"] += 1
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()

    monkeypatch.setattr(Environment, "run", run_and_census)
    return found


@pytest.mark.parametrize("row", ["churn", "failover", "fleet"])
def test_worlds_leave_no_cyclic_garbage(census, row):
    """The churn smoke world closes 100 client connections; the failover
    world migrates connections to a standby (every migration rebinds the
    data socket, and with it the pump); the fleet world queries sharded
    discovery, whose legs time out, and confirms leases optimistically.
    None of them leaves a library object for the collector."""
    experiment = EXPERIMENTS[row]
    experiment.run(experiment.config.smoke())
    assert dict(census) == {}
