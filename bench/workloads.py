"""The five workloads, by their frozen names.

Each is two functions: ``generate(seed, scale)`` and ``run(inputs)``; see
:mod:`bench.outcome` for what ``run`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import conn, faults, kv
from .outcome import Outcome

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, float], object]
    run: Callable[[object], Outcome]


#: name -> Workload; the names are frozen once recorded in BENCHMARK.json.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("kv_fastpath", kv.generate_fastpath, kv.run),
        Workload("kv_offload_mix", kv.generate_offload, kv.run),
        Workload("conn_cold", conn.generate_cold, conn.run),
        Workload("conn_resumed", conn.generate_resumed, conn.run),
        Workload("faults_recovery", faults.generate, faults.run),
    )
}
