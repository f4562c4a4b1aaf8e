"""Lint: a connection changes epoch in one place.

A server transition, a peer adopting one and a failed-over client migrating
all run one prepare / commit / abort sequence,
``ReconfigManager._change_epoch`` in ``reconfig/engine.py`` (PROTOCOL.md
§5.2).  This test parses every module under ``src/repro`` and fails if a
connection's epoch methods, or the stage hand-off ``adopt_state``, are
called from any other function, so a second copy of the sequence (or a
second hand-off rule) cannot grow back unnoticed.  The same scanner keeps
the hold set to one writer, establishment to one exchange and one bind per
side, a binding to its two builders, and a connection's epoch table and
epoch numbers to the connection.
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


# ---------------------------------------------------------------------------
# The connection lifecycle: one writer of the hold set
# ---------------------------------------------------------------------------
#: ``(module, function)`` allowed to change ``Connection.holds``:
#: ``__init__`` creates the set, ``hold`` and ``release`` are the only
#: writers after that (PROTOCOL.md §5.4).
HOLD_WRITERS = {
    ("core/connection.py", "__init__"),
    ("core/connection.py", "hold"),
    ("core/connection.py", "release"),
}
SET_MUTATORS = {
    "add",
    "discard",
    "remove",
    "pop",
    "clear",
    "update",
    "difference_update",
    "intersection_update",
    "symmetric_difference_update",
}
#: The per-hold flags and routines the hold set replaced; none may return.
RETIRED = {
    "pause_sends",
    "resume_sends",
    "_flush_reroute",
    "_send_paused",
    "_unverified",
    "_reroute_buffer",
    "_stages_of",
}


def _is_holds(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "holds"


class _HoldWrites(_EpochCalls):
    """Collect ``(function, what, line)`` for every write to a ``holds``
    attribute (assignment, augmented assignment, mutating call) and every
    use of a retired name."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SET_MUTATORS
            and _is_holds(func.value)
        ):
            self.calls.append((self.scope[-1], f"holds.{func.attr}()", node.lineno))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if _is_holds(target):
                self.calls.append((self.scope[-1], "holds =", node.lineno))
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _is_holds(node.target):
            self.calls.append((self.scope[-1], "holds =", node.lineno))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _is_holds(node.target):
            self.calls.append((self.scope[-1], "holds op=", node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in RETIRED:
            self.calls.append((self.scope[-1], f"retired {node.attr}", node.lineno))
        self.generic_visit(node)

    def visit_FunctionDef(self, node) -> None:
        if node.name in RETIRED:
            self.calls.append((node.name, f"retired {node.name}", node.lineno))
        super().visit_FunctionDef(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def hold_writes() -> list[tuple[str, str, str, int]]:
    """``(module, function, what, line)`` for every hold-set write and
    retired name under src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _HoldWrites()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        module = path.relative_to(SRC).as_posix()
        found += [(module, *write) for write in visitor.calls]
    return found


def test_only_hold_and_release_write_the_hold_set():
    stray = [
        f"src/repro/{module}:{line}: {what} in {function}"
        for module, function, what, line in hold_writes()
        if what.startswith("retired") or (module, function) not in HOLD_WRITERS
    ]
    assert not stray, (
        "the hold set changes only through Connection.hold / release; "
        "found:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_hold_writers():
    writers = {(module, function) for module, function, _what, _line in hold_writes()}
    assert writers == HOLD_WRITERS


# ---------------------------------------------------------------------------
# Establishment: one exchange and one bind per side
# ---------------------------------------------------------------------------
#: ``(module, function)`` allowed to call ``rpc.call`` in core/runtime.py:
#: every OFFER and RESUME a client sends goes through this one exchange.
EXCHANGE = ("core/runtime.py", "_exchange")
#: ``(module, function)`` allowed to call ``establish_connection``: the
#: client bind, the listener's accept tail, and raw interop.
ESTABLISHERS = {
    ("core/runtime.py", "_connect"),
    ("core/runtime.py", "_admit"),
    ("core/runtime.py", "connect_raw"),
}


class _NamedCalls(_EpochCalls):
    """Collect ``(function, callee, line)`` for every call to ``rpc.call``
    or ``establish_connection``."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "establish_connection":
            self.calls.append((self.scope[-1], func.id, node.lineno))
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "call"
            and isinstance(func.value, ast.Name)
            and func.value.id == "rpc"
        ):
            self.calls.append((self.scope[-1], "rpc.call", node.lineno))
        self.generic_visit(node)


def establishment_calls() -> list[tuple[str, str, str, int]]:
    """``(module, function, callee, line)`` for every ``rpc.call`` in
    core/runtime.py and every ``establish_connection`` under src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _NamedCalls()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        module = path.relative_to(SRC).as_posix()
        found += [
            (module, *call)
            for call in visitor.calls
            if call[1] == "establish_connection" or module == EXCHANGE[0]
        ]
    return found


def test_establishment_has_one_exchange_and_one_bind_per_side():
    stray = [
        f"src/repro/{module}:{line}: {callee}() in {function}"
        for module, function, callee, line in establishment_calls()
        if (module, function)
        not in ({EXCHANGE} if callee == "rpc.call" else ESTABLISHERS)
    ]
    assert not stray, (
        "OFFER and RESUME go on the wire through Endpoint._exchange, and a "
        "connection is established by the client bind, Listener._admit or "
        "connect_raw; found:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_exchange_and_the_binds():
    callers: dict[str, set] = {}
    for module, function, callee, _line in establishment_calls():
        callers.setdefault(callee, set()).add((module, function))
    assert callers == {"rpc.call": {EXCHANGE}, "establish_connection": ESTABLISHERS}


# ---------------------------------------------------------------------------
# Bindings and epochs: two builders, one owner
# ---------------------------------------------------------------------------
#: ``(module, function)`` allowed to call ``build_binding``: establishment
#: and the one epoch change.
BINDING_BUILDERS = {
    ("core/establish.py", "establish_connection"),
    ("reconfig/engine.py", "_change_epoch"),
}
#: The module that owns a connection's epoch table (``_epochs``).
EPOCH_TABLE_OWNER = "core/connection.py"
#: ``(module, function)`` allowed to write ``epochs_issued``: the
#: connection creates the counter and ``new_epoch`` hands out numbers.
EPOCH_NUMBERERS = {
    ("core/connection.py", "__init__"),
    ("core/connection.py", "new_epoch"),
}
#: Epoch counters kept outside the connection before; none may return.
RETIRED_COUNTERS = {"next_epoch", "_next_epoch"}


class _EpochOwnership(_EpochCalls):
    """Collect ``(function, what, line)`` for every ``build_binding`` call,
    every touch of an ``_epochs`` attribute, every write to an
    ``epochs_issued`` attribute and every use of a retired counter name."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "build_binding":
            self.calls.append((self.scope[-1], "build_binding()", node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_epochs":
            self.calls.append((self.scope[-1], "_epochs", node.lineno))
        elif node.attr == "epochs_issued" and isinstance(node.ctx, ast.Store):
            self.calls.append((self.scope[-1], "epochs_issued =", node.lineno))
        elif node.attr in RETIRED_COUNTERS:
            self.calls.append((self.scope[-1], f"retired {node.attr}", node.lineno))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in RETIRED_COUNTERS:
            self.calls.append((self.scope[-1], f"retired {node.id}", node.lineno))

    def visit_FunctionDef(self, node) -> None:
        if node.name in RETIRED_COUNTERS:
            self.calls.append((node.name, f"retired {node.name}", node.lineno))
        super().visit_FunctionDef(node)

    visit_AsyncFunctionDef = visit_FunctionDef


def scan_epoch_ownership(source: str, module: str) -> list[tuple[str, str, str, int]]:
    """``(module, function, what, line)`` for what :class:`_EpochOwnership`
    finds in ``source``."""
    visitor = _EpochOwnership()
    visitor.visit(ast.parse(source, filename=module))
    return [(module, *found) for found in visitor.calls]


def epoch_ownership() -> list[tuple[str, str, str, int]]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += scan_epoch_ownership(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    return found


def _allowed(module: str, function: str, what: str) -> bool:
    if what == "build_binding()":
        return (module, function) in BINDING_BUILDERS
    if what == "_epochs":
        return module == EPOCH_TABLE_OWNER
    if what == "epochs_issued =":
        return (module, function) in EPOCH_NUMBERERS
    return False  # a retired counter name


def _strays(found, kinds=None) -> list[str]:
    """What in ``found`` breaks its rule, among the ``kinds`` of finding
    (default: all)."""
    return [
        f"src/repro/{module}:{line}: {what} in {function}"
        for module, function, what, line in found
        if (kinds is None or what.split()[0] in kinds)
        and not _allowed(module, function, what)
    ]


def test_build_binding_is_called_by_establishment_and_the_epoch_change():
    stray = _strays(epoch_ownership(), {"build_binding()"})
    assert not stray, (
        "a binding is built by establish_connection or "
        "ReconfigManager._change_epoch; found:\n" + "\n".join(stray)
    )


def test_the_epoch_table_is_touched_only_by_the_connection():
    stray = _strays(epoch_ownership(), {"_epochs"})
    assert not stray, (
        "a connection's epoch table belongs to core/connection.py; found:\n"
        + "\n".join(stray)
    )


def test_only_the_connection_hands_out_epoch_numbers():
    stray = _strays(epoch_ownership(), {"epochs_issued", "retired"})
    assert not stray, (
        "epoch numbers come from Connection.new_epoch; found:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_binding_builders_the_table_and_the_numberer():
    found = epoch_ownership()
    seen: dict[str, set] = {}
    for module, function, what, _line in found:
        seen.setdefault(what, set()).add((module, function))
    assert seen["build_binding()"] == BINDING_BUILDERS
    assert {module for module, _function in seen["_epochs"]} == {EPOCH_TABLE_OWNER}
    assert seen["epochs_issued ="] == EPOCH_NUMBERERS
    assert not _strays(found)


def test_scanner_flags_a_stray_builder_table_touch_and_counter():
    planted = """
def rebuild(runtime, conn):
    binding = establish.build_binding(runtime)
    del conn._epochs[1]
    conn.epochs_issued += 1
    state.next_epoch = 2
    return _next_epoch(conn)
"""
    stray = _strays(scan_epoch_ownership(planted, "core/failover.py"))
    assert [line.split(": ", 1)[1] for line in stray] == [
        "build_binding() in rebuild",
        "_epochs in rebuild",
        "epochs_issued = in rebuild",
        "retired next_epoch in rebuild",
        "retired _next_epoch in rebuild",
    ]
