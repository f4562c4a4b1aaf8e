"""Key-choice distributions for workload generation.

Implements the request distributions YCSB defines (Cooper et al., SoCC
'10): uniform, Zipfian (the Gray et al. incremental generator, so it works
for large key spaces without materializing probabilities), scrambled
Zipfian (decorrelates popularity from key order), and latest (Zipfian over
recency, for insert-heavy workloads).

All choosers are deterministic given a seed.
"""

from __future__ import annotations

import hashlib
import random

__all__ = [
    "KeyChooser",
    "UniformChooser",
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "LatestChooser",
    "make_chooser",
]


class KeyChooser:
    """Picks key indices in ``[0, item_count)``: ``next_index()``."""

    def __init__(self, item_count: int, seed: int = 0):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self.rng = random.Random(seed)

    def grow(self, new_count: int) -> None:
        """Extend the key space (after inserts)."""
        if new_count < self.item_count:
            raise ValueError("key spaces only grow")
        self.item_count = new_count


class UniformChooser(KeyChooser):
    """Every key equally likely."""

    def next_index(self) -> int:
        return self.rng.randrange(self.item_count)


class ZipfianChooser(KeyChooser):
    """Zipfian over ``[0, item_count)`` with the standard YCSB constant.

    Uses the Gray et al. "Quickly generating billion-record synthetic
    databases" rejection-free method: draw u ∈ [0,1), map through the
    closed-form inverse built from ζ(n, θ).
    """

    def __init__(self, item_count: int, theta: float = 0.99, seed: int = 0):
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        super().__init__(item_count, seed)
        self.theta = theta
        self._recompute_constants()

    def _zeta(self, n: int) -> float:
        """ζ(n, θ) as a left fold, not ``sum()``: from Python 3.12
        ``sum()`` compensates float rounding, and every key drawn depends
        on the last bits of these constants."""
        total = 0.0
        for i in range(1, n + 1):
            total += 1.0 / (i ** self.theta)
        return total

    def _recompute_constants(self) -> None:
        self.zetan = self._zeta(self.item_count)
        self.zeta2 = self._zeta(2)
        self.alpha = 1.0 / (1.0 - self.theta)
        self.eta = (1 - (2.0 / self.item_count) ** (1 - self.theta)) / (
            1 - self.zeta2 / self.zetan
        )

    def grow(self, new_count: int) -> None:
        old = self.item_count
        super().grow(new_count)
        if new_count != old:
            # Incremental zeta extension (avoids O(n) recompute per insert):
            # fold the new tail, then add it, as _zeta's left fold.
            tail = 0.0
            for i in range(old + 1, new_count + 1):
                tail += 1.0 / (i ** self.theta)
            self.zetan += tail
            self.eta = (1 - (2.0 / self.item_count) ** (1 - self.theta)) / (
                1 - self.zeta2 / self.zetan
            )

    def next_index(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(
            self.item_count * (self.eta * u - self.eta + 1) ** self.alpha
        )


class ScrambledZipfianChooser(ZipfianChooser):
    """Zipfian popularity spread over the key space by hashing.

    Without scrambling, the most popular keys are 0, 1, 2, … — which would
    make them all land on the same shard.  YCSB scrambles; so do we.
    """

    def next_index(self) -> int:
        rank = super().next_index()
        digest = hashlib.blake2b(
            rank.to_bytes(8, "big"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.item_count


class LatestChooser(ZipfianChooser):
    """Most-recently-inserted keys are hottest (YCSB workload D)."""

    def next_index(self) -> int:
        offset = super().next_index()
        return max(self.item_count - 1 - offset, 0)


def make_chooser(name: str, item_count: int, seed: int = 0) -> KeyChooser:
    """Factory over distribution names used in workload specs."""
    name = name.lower()
    if name == "uniform":
        return UniformChooser(item_count, seed)
    if name == "zipfian":
        return ScrambledZipfianChooser(item_count, seed=seed)
    if name == "zipfian_clustered":
        return ZipfianChooser(item_count, seed=seed)
    if name == "latest":
        return LatestChooser(item_count, seed=seed)
    raise ValueError(f"unknown distribution {name!r}")
