"""Lint: a spec's arguments and scope are written only where it is made.

A :class:`~repro.core.dag.ChunnelDag` is checked, ordered and shaped once,
when it is built, and cannot change; its specs must not change under it
either.  This test parses every module under ``src/repro`` and fails on an
assignment to, deletion from or mutating call on a ``.args`` mapping, or an
assignment to ``.scope_requirement``, anywhere but ``core/chunnel.py``
(which makes specs).  A changed spec is a new spec in a new DAG
(``ChunnelDag.with_spec``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The module that makes specs.
MAKER = "core/chunnel.py"

MUTATORS = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__", "__delitem__"}


def _is_args(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "args"


def _writes(target) -> bool:
    """Whether an assignment or deletion target writes a spec."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes(element) for element in target.elts)
    if isinstance(target, ast.Subscript):
        return _is_args(target.value)
    return isinstance(target, ast.Attribute) and target.attr in ("args", "scope_requirement")


def spec_writes(source: str) -> list[int]:
    """Lines of ``source`` that write a spec's ``args`` or scope."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            targets = [node.func.value] if node.func.attr in MUTATORS else []
            if any(_is_args(target) for target in targets):
                lines.append(node.lineno)
            continue
        else:
            continue
        if any(_writes(target) for target in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_specs_are_written_only_where_they_are_made():
    stray = [
        f"src/repro/{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != MAKER
        for line in spec_writes(path.read_text())
    ]
    assert not stray, (
        "a spec in a built DAG must not change; make a new spec and "
        "ChunnelDag.with_spec it in:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_maker():
    # The spec maker writes both: if it no longer does, the scan is blind.
    assert spec_writes((SRC / MAKER).read_text())


def test_scanner_flags_a_planted_site():
    planted = (
        "spec.args['weights'] = [1.0]\n"
        "spec.args['n'] += 1\n"
        "del spec.args['n']\n"
        "spec.args.update(n=2)\n"
        "spec.scope_requirement = Scope.HOST\n"
        "a, spec.args = 1, {}\n"
        "spec.args.get('n')\n"
        "x = spec.args['n']\n"
    )
    assert spec_writes(planted) == [1, 2, 3, 4, 5, 6]
