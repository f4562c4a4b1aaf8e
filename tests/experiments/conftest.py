"""One seed-7 smoke run per invariant-checked experiment, shared.

Each experiment's test module and the contract test read the same result,
so the suite builds every smoke world once.  Results are read-only here:
a test that needs another run (a different seed or shard count, a second
same-seed run) builds its own.
"""

import pytest

from repro.experiments.__main__ import EXPERIMENTS


@pytest.fixture(scope="session")
def smoke_run():
    """``smoke_run(name)``: the seed-7 ``--smoke`` result of the CLI
    table's row ``name``, computed on first use."""
    results = {}

    def get(name):
        if name not in results:
            row = EXPERIMENTS[name]
            results[name] = row.run(row.config.smoke(seed=7))
        return results[name]

    return get
