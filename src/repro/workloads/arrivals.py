"""Open-loop arrivals for load generation.

Figure 5 sweeps offered load; this process generates the request
timestamps.  It is deterministic given a seed, so experiment runs are
exactly reproducible.
"""

from __future__ import annotations

import random

__all__ = ["PoissonArrivals"]


class PoissonArrivals:
    """Memoryless arrivals at ``rate`` per second (open loop)."""

    def __init__(self, rate: float, seed: int = 0):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        self.rng = random.Random(seed)

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        return self.rng.expovariate(self.rate)
