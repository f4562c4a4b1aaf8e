"""Lint: one float-reduction rule in the library.

From Python 3.12 the builtin ``sum`` compensates float rounding, so a float
``sum()`` on a recorded path can change a recorded byte between
interpreters.  ``math.fsum`` and ``statistics`` round differently again.
Float reductions therefore go through :func:`repro.metrics.mean` (a left
fold) or :class:`repro.metrics.BoxplotSummary` (numpy's pairwise mean).
This test parses every module under ``src/repro`` and fails on a builtin
``sum`` call, a ``math.fsum`` call or a ``statistics`` import, except for
the named integer sums below.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(module, function) -> count`` of builtin ``sum`` calls whose operands
#: are integers (counters, message counts): exact on every interpreter.
#: ``MetricsSnapshot.sum`` totals one counter across entities.
INTEGER_SUMS = {
    ("apps/kvstore.py", "requests_served"): 1,
    ("apps/rsm.py", "__init__"): 1,
    ("core/connection.py", "stack_retransmissions"): 1,
    ("core/failover.py", "_freeze"): 1,
    ("core/failover.py", "_replay"): 1,
    ("experiments/chaos.py", "_run_outage"): 1,
    ("experiments/failover.py", "run_failover"): 7,
    ("experiments/fleet.py", "rows"): 1,
    ("experiments/multipath.py", "_run_rebalance"): 3,
    ("experiments/offload.py", "_run_failover"): 1,
    ("obs/registry.py", "sum"): 1,
}


class _Reductions(ast.NodeVisitor):
    """Collect ``(function, what, line)`` for every builtin ``sum`` call,
    ``fsum`` call and ``statistics`` import."""

    def __init__(self) -> None:
        self.scope = ["<module>"]
        self.found: list[tuple[str, str, int]] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("sum", "fsum"):
            self.found.append((self.scope[-1], func.id, node.lineno))
        elif isinstance(func, ast.Attribute) and func.attr == "fsum":
            self.found.append((self.scope[-1], "fsum", node.lineno))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "statistics":
                self.found.append((self.scope[-1], "statistics", node.lineno))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (node.module or "").split(".")[0] == "statistics":
            self.found.append((self.scope[-1], "statistics", node.lineno))


def reductions(source: str) -> list[tuple[str, str, int]]:
    visitor = _Reductions()
    visitor.visit(ast.parse(source))
    return visitor.found


def scan() -> tuple[list[str], Counter]:
    """Reductions outside the allowlist, and the integer sums seen."""
    stray, sums = [], Counter()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function, what, line in reductions(path.read_text()):
            if what == "sum" and (module, function) in INTEGER_SUMS:
                sums[module, function] += 1
            else:
                stray.append(f"src/repro/{module}:{line}: {what} in {function}")
    return stray, sums


def test_no_float_sum_fsum_or_statistics_in_the_library():
    stray, _sums = scan()
    assert not stray, (
        "reduce floats with repro.metrics.mean (a left fold); an integer "
        "sum goes in INTEGER_SUMS:\n" + "\n".join(stray)
    )


def test_the_integer_sums_are_the_named_ones():
    _stray, sums = scan()
    assert dict(sums) == INTEGER_SUMS


def test_scanner_flags_a_planted_site():
    planted = (
        "import statistics\n"
        "from math import fsum\n"
        "def f(xs):\n"
        "    return sum(xs) + math.fsum(xs) + fsum(xs)\n"
    )
    assert sorted(what for _f, what, _l in reductions(planted)) == [
        "fsum",
        "fsum",
        "statistics",
        "sum",
    ]
