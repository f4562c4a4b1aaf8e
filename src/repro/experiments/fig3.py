"""Figure 3 — container networking via the local fast path.

The paper's experiment: a client and server in two containers on one host;
the client opens a connection, sends 3 requests, and measures per-request
latency; repeated over 10000 connections and several request sizes.
Systems compared:

* **bertha** — the client negotiates ``local_or_remote()``; the connection
  binds to pipes because both containers share the host.  Establishing the
  connection costs two extra control round trips (discovery + negotiate).
* **pipes** — a specialized app that hardcodes UNIX-pipe IPC (best case).
* **tcp** — an ordinary inter-container TCP app (the status quo).
* **udp** — inter-container UDP, included to separate TCP overheads from
  general stack overheads.

Reported per (system, size): the boxplot statistics the paper plots
(median, p25/p75 box, p5/p95 whiskers) plus connection-setup summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.rpc import EchoServer, ping_session
from ..baselines.hardcoded import (
    pipe_echo_server,
    pipe_ping_session,
    tcp_echo_server,
    tcp_ping_session,
    udp_echo_server,
    udp_ping_session,
)
from ..chunnels import LocalOrRemote, LocalOrRemoteFallback
from ..core import Runtime, wrap
from ..discovery import DiscoveryService
from ..metrics import BoxplotSummary, LatencyRecorder
from ..sim import Address, CostModel, Network
from ._result import TableResult

__all__ = ["Fig3Config", "Fig3Result", "run_fig3"]

_US = 1e6

REQUESTS_PER_CONNECTION = 3
SYSTEMS = ("bertha", "pipes", "tcp", "udp")


@dataclass
class Fig3Config:
    """Experiment parameters; the defaults are the recorded run
    (``benchmarks/results/fig3_container_full.txt``)."""

    sizes: list[int] = field(default_factory=lambda: [64, 1024, 10240, 102400])
    connections: int = 150

    @classmethod
    def smoke(cls) -> "Fig3Config":
        """The CI tier: the smallest and a large request size."""
        return cls(connections=40, sizes=[64, 10240])


@dataclass
class Fig3Result(TableResult):
    """Per-(system, size) RTT and setup distributions, microseconds."""

    NAME = "fig3"
    COLUMNS = ["system", "size", "p5", "p25", "p50", "p75", "p95", "setup_p50", "n"]

    rtts: dict[tuple[str, int], BoxplotSummary]
    setups: dict[tuple[str, int], BoxplotSummary]
    config: Fig3Config
    worlds: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list[dict]:
        """Table rows in the shape the paper's figure reports."""
        out = []
        for (system, size), summary in sorted(
            self.rtts.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            row = {"system": system, "size": size}
            row.update(summary.as_row())
            row["setup_p50"] = self.setups[(system, size)].p50
            out.append(row)
        return out

    @property
    def invariants(self) -> dict[str, bool]:
        sizes = self.config.sizes
        p50 = lambda system, size: self.rtts[(system, size)].p50  # noqa: E731
        setup = lambda system: self.setups[(system, sizes[0])].p50  # noqa: E731
        return {
            # The headline: negotiated ≈ specialized IPC, within 10 %.
            "bertha_matches_pipes": all(
                abs(p50("bertha", s) - p50("pipes", s)) <= 0.10 * p50("pipes", s)
                for s in sizes
            ),
            "tcp_over_twice_bertha": all(
                p50("tcp", s) > 2 * p50("bertha", s) for s in sizes
            ),
            "udp_between": all(
                p50("bertha", s) < p50("udp", s) < p50("tcp", s) for s in sizes
            ),
            # §5: setup pays the two control round trips, a raw socket
            # none.
            "setup_pays_negotiation": setup("bertha") > max(
                setup("pipes"), setup("tcp")
            ),
            "non_degenerate": all(
                self.rtts[("bertha", s)].p95 > self.rtts[("bertha", s)].p5
                for s in sizes
            ),
        }


def _build_world():
    """One host, two containers, a discovery service, a Bertha echo server,
    and the three baseline echo servers."""
    net = Network()
    # Jitter makes the latency *distribution* non-degenerate so the boxplot
    # statistics the paper plots are meaningful; it is seeded, so the
    # experiment stays exactly reproducible.
    host = net.add_host("box", cost=CostModel(jitter=0.08))
    server_ct = host.add_container("server-ct")
    client_ct = host.add_container("client-ct")
    discovery = DiscoveryService(host)

    server_rt = Runtime(server_ct, discovery=discovery.address)
    client_rt = Runtime(client_ct, discovery=discovery.address)
    for runtime in (server_rt, client_rt):
        runtime.register_chunnel(LocalOrRemoteFallback)

    EchoServer(
        server_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="fig3-svc"
    )
    pipe_echo_server(server_ct, 7001)
    tcp_echo_server(server_ct, 7002)
    udp_echo_server(server_ct, 7003)
    return net, client_ct, client_rt


def run_fig3(config: Fig3Config | None = None) -> Fig3Result:
    """Run the Figure 3 experiment; deterministic."""
    config = config or Fig3Config()
    net, client_ct, client_rt = _build_world()
    env = net.env
    rtt_recorder = LatencyRecorder()
    setup_recorder = LatencyRecorder()

    baselines = {
        "pipes": (pipe_ping_session, 7001),
        "tcp": (tcp_ping_session, 7002),
        "udp": (udp_ping_session, 7003),
    }

    def session_for(system: str, size: int):
        if system == "bertha":
            return ping_session(
                client_rt,
                "fig3-svc",
                dag=wrap(LocalOrRemote()),
                size=size,
                count=REQUESTS_PER_CONNECTION,
            )
        session, port = baselines[system]
        return session(
            client_ct,
            Address("server-ct", port),
            size=size,
            count=REQUESTS_PER_CONNECTION,
        )

    def driver(env):
        yield env.timeout(200e-6)  # let servers finish starting
        for size in config.sizes:
            for system in SYSTEMS:
                label = f"{system}/{size}"
                for _connection in range(config.connections):
                    result = yield from session_for(system, size)
                    setup_recorder.record(label, result.setup_time * _US)
                    for rtt in result.rtts:
                        rtt_recorder.record(label, rtt * _US)

    env.process(driver(env))
    env.run()

    rtts = {}
    setups = {}
    for size in config.sizes:
        for system in SYSTEMS:
            label = f"{system}/{size}"
            rtts[(system, size)] = rtt_recorder.summary(label)
            setups[(system, size)] = setup_recorder.summary(label)
    return Fig3Result(
        rtts=rtts,
        setups=setups,
        config=config,
        worlds={"fig3": net.obs.snapshot().as_dict()},
    )
