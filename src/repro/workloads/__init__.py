"""Workload generation: YCSB core workloads, key distributions, arrivals."""

from .arrivals import PoissonArrivals
from .ycsb import WORKLOAD_MIXES, WorkloadSpec, YcsbWorkload
from .zipf import (
    KeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
    make_chooser,
)

__all__ = [
    "KeyChooser",
    "LatestChooser",
    "PoissonArrivals",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "WORKLOAD_MIXES",
    "WorkloadSpec",
    "YcsbWorkload",
    "ZipfianChooser",
    "make_chooser",
]
