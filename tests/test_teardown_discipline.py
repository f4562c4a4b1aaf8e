"""Lint: only ``Binding.release`` tears a binding node down.

A node goes away in one way (§4.2's teardown hook): ``Binding.release``
runs the implementation's ``teardown`` hook and then the context's
``release()``, which gives back the node's shares and its lease
reference.  A module that calls either one itself gives back part of what
a node holds, or gives it back twice.  This test parses every module under
``src/repro`` and fails on any call to a ``.teardown(...)`` (or a
``getattr(..., "teardown")``) and on any argument-free ``.release()``
outside ``Binding.release`` in ``core/connection.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The module, class and method that tear a node down.
KEEPER = "core/connection.py"
KEEPER_PATH = ("Binding", "release")


def _teardown_calls(node) -> bool:
    """Whether ``node`` is a call to a teardown hook or a context's
    ``release()``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "teardown":
            return True
        return func.attr == "release" and not node.args and not node.keywords
    return (
        isinstance(func, ast.Name)
        and func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "teardown"
    )


def _keeper_nodes(tree) -> set[int]:
    """Ids of every node inside ``Binding.release``."""
    cls_name, method_name = KEEPER_PATH
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == cls_name:
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and method.name == method_name:
                    return {id(node) for node in ast.walk(method)}
    return set()


def teardown_sites(source: str, keeper: bool = False) -> list[int]:
    """Lines of ``source`` that tear a node down; with ``keeper``, the
    calls inside ``Binding.release`` are allowed."""
    tree = ast.parse(source)
    allowed = _keeper_nodes(tree) if keeper else set()
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed and _teardown_calls(node)
    )


def test_only_binding_release_tears_down():
    stray = [
        f"src/repro/{rel}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for rel in [path.relative_to(SRC).as_posix()]
        for line in teardown_sites(path.read_text(), keeper=rel == KEEPER)
    ]
    assert not stray, (
        "a binding node goes away through Binding.release, which runs the "
        "teardown hook and gives back its shares and lease:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_keeper():
    # Binding.release calls both: if it no longer does, the scan is blind.
    assert len(teardown_sites((SRC / KEEPER).read_text())) == 2


def test_scanner_flags_a_planted_site():
    planted = (
        "impl.teardown(ctx)\n"
        "ctx.release()\n"
        "binding.impls[n].teardown(binding.contexts[n])\n"
        "hook = getattr(impl, 'teardown')\n"
        "self.release(EPOCH)\n"
        "runtime.leases.release(handle)\n"
        "pool.release(amount=2)\n"
        "binding.release(node_id)\n"
        "teardown(ctx)\n"
    )
    assert teardown_sites(planted) == [1, 2, 3, 4]


def test_the_keeper_is_the_only_exemption():
    source = (
        "class Binding:\n"
        "    def release(self, node_id):\n"
        "        self.impls[node_id].teardown(ctx)\n"
        "        return ctx.release()\n"
        "    def close(self):\n"
        "        ctx.release()\n"
        "class Other:\n"
        "    def release(self):\n"
        "        impl.teardown(ctx)\n"
    )
    assert teardown_sites(source, keeper=True) == [6, 9]
    assert teardown_sites(source) == [3, 4, 6, 9]
