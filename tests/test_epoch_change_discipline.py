"""Lint: a connection changes epoch in one place.

A server transition, a peer adopting one and a failed-over client migrating
all run one prepare / commit / abort sequence,
``ReconfigManager._change_epoch`` in ``reconfig/engine.py`` (PROTOCOL.md
§5.2).  This test parses every module under ``src/repro`` and fails if a
connection's epoch methods, or the stage hand-off ``adopt_state``, are
called from any other function, so a second copy of the sequence (or a
second hand-off rule) cannot grow back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

EPOCH_METHODS = {
    "prepare_transition",
    "commit_transition",
    "abort_transition",
    "retire_epoch",
    "adopt_state",
}

#: ``(module, function)`` of the one epoch change.
THE_ONE = ("reconfig/engine.py", "_change_epoch")


class _EpochCalls(ast.NodeVisitor):
    """Collect ``(function, method, line)`` for every epoch-method call,
    naming the innermost function the call sits in."""

    def __init__(self) -> None:
        self.scope = ["<module>"]
        self.calls: list[tuple[str, str, int]] = []

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in EPOCH_METHODS:
            self.calls.append((self.scope[-1], func.attr, node.lineno))
        self.generic_visit(node)


def epoch_calls() -> list[tuple[str, str, str, int]]:
    """``(module, function, method, line)`` for every call under src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _EpochCalls()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        module = path.relative_to(SRC).as_posix()
        found += [(module, *call) for call in visitor.calls]
    return found


def test_epoch_methods_are_called_from_one_function():
    stray = [
        f"src/repro/{module}:{line}: {method}() in {function}"
        for module, function, method, line in epoch_calls()
        if (module, function) != THE_ONE
    ]
    assert not stray, (
        "epoch changes go through ReconfigManager._change_epoch; found "
        "another caller:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_one_epoch_change():
    # Guard against the lint silently passing because a rename or a move
    # left it scanning nothing.
    assert len(list(SRC.rglob("*.py"))) > 50
    called = {
        method
        for module, function, method, _line in epoch_calls()
        if (module, function) == THE_ONE
    }
    assert called == EPOCH_METHODS
