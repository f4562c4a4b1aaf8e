"""Figure 4 — dynamic name resolution.

The paper's experiment: a client repeatedly opens connections to a named
service and sends RPCs.  At t = 0 only a *remote* instance exists, so
requests traverse the network.  At t = 4 s a *local* instance starts;
because Bertha resolves the name at every ``connect``, subsequent
connections pick the local instance and use pipe IPC — latency steps down
with **no client change and no reconfiguration**.

Output: a latency-vs-time series (one point per connection: mean RPC RTT),
plus the before/after summary the shape check needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.rpc import EchoServer, ping_session
from ..chunnels import LocalOrRemote, LocalOrRemoteFallback
from ..core import Runtime, wrap
from ..discovery import DiscoveryService
from ..metrics import BoxplotSummary, TimeSeries, mean
from ..sim import Network
from ._result import TableResult

__all__ = ["Fig4Config", "Fig4Result", "run_fig4"]

_US = 1e6

#: When the local instance starts (paper: t = 4 s).
LOCAL_START_TIME = 4.0
REQUEST_SIZE = 256
REQUESTS_PER_CONNECTION = 3


@dataclass
class Fig4Config:
    """Experiment parameters; the defaults are the recorded run."""

    duration: float = 10.0
    connect_interval: float = 0.25

    @classmethod
    def smoke(cls) -> "Fig4Config":
        return cls(duration=8.0, connect_interval=0.5)


@dataclass
class Fig4Result(TableResult):
    """Latency timeline plus before/after summaries (microseconds)."""

    NAME = "fig4"

    config: Fig4Config
    series: TimeSeries
    transports: list[tuple[float, str]] = field(default_factory=list)
    before: BoxplotSummary | None = None
    after: BoxplotSummary | None = None
    switch_time: float = 0.0
    worlds: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list[dict]:
        return [
            {
                "t": t,
                "mean_rtt_us": value,
                "transport": transport,
            }
            for (t, value), (_t2, transport) in zip(
                zip(self.series.times, self.series.values), self.transports
            )
        ]

    @property
    def invariants(self) -> dict[str, bool]:
        config = self.config
        interval = config.connect_interval
        transports = [t for _time, t in self.transports]
        return {
            "latency_steps_down": self.before is not None
            and self.after is not None
            and self.after.p50 < self.before.p50 / 2,
            "switch_within_two_intervals": LOCAL_START_TIME
            <= self.switch_time
            <= LOCAL_START_TIME + 2 * interval,
            "udp_then_pipe": bool(transports)
            and transports[0] == "udp"
            and transports[-1] == "pipe",
            # Every connection used the same endpoint code; only
            # resolution changed — a connection starts in every interval.
            "connects_every_interval": {
                int(t // interval) for t in self.series.times
            }
            >= set(range(int(config.duration // interval))),
        }


def run_fig4(config: Fig4Config | None = None) -> Fig4Result:
    """Run the Figure 4 experiment; deterministic."""
    config = config or Fig4Config()
    net = Network()
    remote_host = net.add_host("remote-host")
    client_host = net.add_host("client-host")
    discovery_host = net.add_host("disc-host")
    net.add_switch("tor")
    for name in ("remote-host", "client-host", "disc-host"):
        net.add_link(name, "tor", latency=5e-6)
    local_ct = client_host.add_container("local-ct")
    client_ct = client_host.add_container("client-ct")
    discovery = DiscoveryService(discovery_host)

    remote_rt = Runtime(remote_host, discovery=discovery.address)
    local_rt = Runtime(local_ct, discovery=discovery.address)
    client_rt = Runtime(client_ct, discovery=discovery.address)
    for runtime in (remote_rt, local_rt, client_rt):
        runtime.register_chunnel(LocalOrRemoteFallback)

    env = net.env
    EchoServer(
        remote_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="fig4-svc"
    )

    def start_local_replica(env):
        yield env.timeout(LOCAL_START_TIME)
        EchoServer(
            local_rt, port=7000, dag=wrap(LocalOrRemote()), service_name="fig4-svc"
        )

    result = Fig4Result(config=config, series=TimeSeries())

    def client(env):
        yield env.timeout(1e-3)
        while env.now < config.duration:
            started = env.now
            ping = yield from ping_session(
                client_rt,
                "fig4-svc",
                dag=wrap(LocalOrRemote()),
                size=REQUEST_SIZE,
                count=REQUESTS_PER_CONNECTION,
            )
            mean_rtt = mean(ping.rtts) * _US
            result.series.record(started, mean_rtt)
            result.transports.append((started, ping.transport))
            remaining = config.connect_interval - (env.now - started)
            if remaining > 0:
                yield env.timeout(remaining)

    env.process(start_local_replica(env))
    env.process(client(env))
    env.run(until=config.duration + 1.0)

    before, after = result.series.split_at(LOCAL_START_TIME)
    if before:
        result.before = BoxplotSummary.from_values(before)
    if after:
        result.after = BoxplotSummary.from_values(after)
    for t, transport in result.transports:
        if transport == "pipe":
            result.switch_time = t
            break
    result.worlds = {"fig4": net.obs.snapshot().as_dict()}
    return result
