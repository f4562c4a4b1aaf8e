"""PCIe bus model.

§6 of the paper argues that the Bertha runtime should reorder Chunnel DAGs to
reduce data movement between host CPU and offload devices: running
``encrypt |> http2 |> tcp`` with only encrypt+TCP offloadable forces a
NIC→CPU→NIC detour — a 3× increase in PCIe traffic versus the reordered
``http2 |> encrypt |> tcp``.

This module gives SmartNICs an explicit bus so that experiments can count
crossings and bytes moved, and so crossings add latency.  The optimizer
ablation (`benchmarks/test_ablation_optimizer.py`) reads these counters.
"""

from __future__ import annotations

from .eventloop import Environment

__all__ = ["PcieBus"]

#: Fixed latency per crossing (DMA setup + completion), seconds.
CROSSING_LATENCY = 0.9e-6
#: Bus bandwidth in bytes/second: ~PCIe 3.0 x8 effective.
BANDWIDTH = 12_000_000_000.0


class PcieBus:
    """A host↔device bus with per-crossing latency and byte accounting:
    each crossing costs :data:`CROSSING_LATENCY` plus its bytes at
    :data:`BANDWIDTH`."""

    def __init__(self, env: Environment, name: str = "pcie"):
        self.env = env
        self.name = name
        self.crossings = 0
        self.bytes_moved = 0

    def transfer(self, size: int) -> float:
        """Account one crossing of ``size`` bytes; returns its delay."""
        if size < 0:
            raise ValueError("transfer size must be non-negative")
        self.crossings += 1
        self.bytes_moved += size
        return self.delay_for(size)

    def delay_for(self, size: int) -> float:
        """Delay one crossing of ``size`` bytes would take (no accounting)."""
        return CROSSING_LATENCY + size / BANDWIDTH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PcieBus {self.name!r} crossings={self.crossings} "
            f"bytes={self.bytes_moved}>"
        )
