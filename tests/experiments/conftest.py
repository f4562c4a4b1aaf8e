"""One smoke run per row of the CLI table, shared.

Each experiment's test module, the shape checks and the contract test
read the same result, so the suite builds every smoke world once.  Results are read-only here:
a test that needs another run (a different seed or shard count, a second
same-seed run) builds its own.
"""

import pytest

from repro.experiments.__main__ import EXPERIMENTS


@pytest.fixture(scope="session")
def smoke_run():
    """``smoke_run(name)``: the ``--smoke`` result of the CLI table's row
    ``name`` at the row's default seed (7 for the invariant-checked rows),
    computed on first use."""
    results = {}

    def get(name):
        if name not in results:
            row = EXPERIMENTS[name]
            results[name] = row.run(row.config.smoke())
        return results[name]

    return get
