"""Lint: every control server answers through ``rpc.Responder``.

A retransmitted request must get the verdict its first copy got
(PROTOCOL.md §6.1–§6.2).  ``rpc.Responder`` is the one receiver that keeps
that rule: its reply cache, its in-flight table and its clear-on-crash
generation.  A module that builds its own ``ReplyCache`` or keeps its own
in-flight table hand-rolls that receiver again, with its own key and its
own failure handling.  This test parses every module under ``src/repro``
and fails on:

* a ``ReplyCache(...)`` call outside ``core/rpc.py`` (where the responder
  makes its cache) and ``apps/rsm.py``.  ``RsmReplica`` keeps a bare
  cache because its applies must run in sequencer order inside its one
  serve loop, with ``APPLY_COST`` waited inline; a responder would run a
  handler that waits as a process of its own, and applies could overtake
  each other;
* an ``_inflight`` name or attribute, or an assignment to an
  ``inflight`` attribute, outside ``core/rpc.py``.  Reading a responder's
  ``inflight`` (the listener interrupts those handlers on close) is fine.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The module the receiver lives in.
KEEPER = "core/rpc.py"
#: Modules that may build a ``ReplyCache``.
CACHE_MAKERS = {KEEPER, "apps/rsm.py"}


def reply_cache_calls(source: str) -> list[int]:
    """Lines of ``source`` that construct a ``ReplyCache``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        else:
            name = getattr(func, "id", None)
        if name == "ReplyCache":
            lines.append(node.lineno)
    return sorted(lines)


def inflight_tables(source: str) -> list[int]:
    """Lines of ``source`` that keep an in-flight table of their own."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr == "_inflight" or (
                node.attr == "inflight" and isinstance(node.ctx, ast.Store)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "_inflight":
            lines.append(node.lineno)
    return sorted(lines)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


def test_reply_caches_are_made_only_by_the_responder_and_the_rsm():
    stray = [
        f"src/repro/{rel}:{line}"
        for rel, source in _modules()
        if rel not in CACHE_MAKERS
        for line in reply_cache_calls(source)
    ]
    assert not stray, (
        "answer retransmissions through rpc.Responder, not a bare "
        "ReplyCache:\n" + "\n".join(stray)
    )


def test_no_module_but_the_keeper_keeps_an_inflight_table():
    stray = [
        f"src/repro/{rel}:{line}"
        for rel, source in _modules()
        if rel != KEEPER
        for line in inflight_tables(source)
    ]
    assert not stray, (
        "handlers still deciding belong in rpc.Responder's in-flight "
        "table:\n" + "\n".join(stray)
    )


def test_scanner_sees_the_keeper_and_the_rsm():
    # Both allowed makers build a cache, and the keeper keeps the table:
    # if either scan finds nothing there, it is blind.
    for rel in CACHE_MAKERS:
        assert reply_cache_calls((SRC / rel).read_text()), rel
    assert inflight_tables((SRC / KEEPER).read_text())


def test_scanner_flags_a_planted_site():
    planted = (
        "self._replies = rpc.ReplyCache(64)\n"
        "cache = ReplyCache(8)\n"
        "self._inflight = set()\n"
        "if key in self._inflight: pass\n"
        "self.inflight = {}\n"
        "_inflight = {}\n"
        "for p in self.responder.inflight.values(): pass\n"
        "cache = rpc.ReplyCacheStats()\n"
        "self.responder = rpc.Responder(env, 64)\n"
    )
    assert reply_cache_calls(planted) == [1, 2]
    assert inflight_tables(planted) == [3, 4, 5, 6]
