"""Lint: only ``core/stack.py`` touches a runtime's ``shared`` table.

Device state that several connections use is a reference-counted share
(``SetupContext.share``): made by the first node that asks, destroyed with
the last holder.  A module that reads or writes ``runtime.shared`` itself
bypasses that count, so an install could outlive its users or vanish under
one.  This test parses every module under ``src/repro`` and fails on any
``.shared`` attribute (or ``getattr(..., "shared")``) outside
``core/stack.py``; the runtime may only make the empty table.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The module that counts shares.
KEEPER = "core/stack.py"
#: The module whose ``self.shared = ...`` makes the table.
OWNER = "core/runtime.py"


def _makes_table(node) -> bool:
    """Whether ``node`` is ``self.shared = ...`` (plain or annotated)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Attribute)
        and target.attr == "shared"
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
        for target in targets
    )


def shared_accesses(source: str, owner: bool = False) -> list[int]:
    """Lines of ``source`` that touch a ``shared`` attribute; with
    ``owner``, making the table (``self.shared = ...``) is allowed."""
    tree = ast.parse(source)
    allowed = set()
    if owner:
        for node in ast.walk(tree):
            if _makes_table(node):
                allowed.update(id(target) for target in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "shared":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "shared"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_keeper_touches_shared():
    stray = [
        f"src/repro/{rel}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if (rel := path.relative_to(SRC).as_posix()) != KEEPER
        for line in shared_accesses(path.read_text(), owner=rel == OWNER)
    ]
    assert not stray, (
        "runtime-wide device state goes through SetupContext.share, which "
        "counts its holders:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_keeper():
    # The keeper reads and writes the table: if it no longer does, the
    # scan is blind.
    assert shared_accesses((SRC / KEEPER).read_text())


def test_owner_makes_the_table():
    assert shared_accesses((SRC / OWNER).read_text()) != []
    assert shared_accesses("self.shared: dict = {}\n", owner=True) == []


def test_scanner_flags_a_planted_site():
    planted = (
        "ctx.shared[key] = program\n"
        "program = runtime.shared.get(key)\n"
        "self.runtime.shared.pop(key, None)\n"
        "table = getattr(runtime, 'shared')\n"
        "self.shared = {}\n"
        "del ctx.shared[key]\n"
        "ctx.share(key, make)\n"
        "shared = {}\n"
        "x = runtime.shared_state\n"
    )
    assert shared_accesses(planted) == [1, 2, 3, 4, 5, 6]
    # In the owner, only making the table is allowed.
    assert shared_accesses("self.shared = {}\nself.shared[k] = 1\n", owner=True) == [2]
