"""The repository's one benchmark (``python -m bench``).

Five workloads, eight end-to-end metrics on two clocks, and a per-layer
ledger, all measured from outside the program: nothing under ``src/`` is
instrumented or edited.  The worlds are built from the library surface only
(``repro.sim``, ``repro.core``, ``repro.chunnels``, ``repro.apps``,
``repro.discovery``, ``repro.workloads``, ``repro.obs``) and never from
``repro.experiments``, so the benchmark survives a rewrite of that harness.

The "network" is ``repro.sim``: no real link and no loopback interface is
ever crossed.  See ``bench/README.md`` for the method, the workload table and
the layer -> end-to-end map; ``BENCHMARK.json`` at the repository root names
every workload and metric and fixes the regression bounds.
"""

import sys
from pathlib import Path

#: Repository root: ``BENCHMARK.json`` lives here and ``src/`` holds ``repro``.
ROOT = Path(__file__).resolve().parent.parent

# ``python -m bench`` must work from a bare checkout with no PYTHONPATH and
# no install step, so the package puts the source tree on the path itself.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
