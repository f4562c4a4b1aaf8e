"""Which ``src/repro`` functions run in no recorded world.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.reachability          # print the unreached set
    PYTHONPATH=src python -m tests.reachability --check  # compare it to the allowlist

*Which functions exist.*  Every ``src/repro/**/*.py`` is compiled and its
nested code objects walked.  Lambdas, comprehensions, generator expressions,
class bodies and module bodies are skipped.  A function is keyed
``path::qualname`` (``src/repro/core/stack.py::ChunnelStack.send``), never by
line number, so unrelated edits do not churn the allowlist.  A function whose
``def`` line carries ``# pragma: no cover - debugging aid`` is exempt.

*Which functions run.*  The recorded worlds run in this one process under a
call-only ``sys.settrace`` function: ``repro.experiments all --smoke`` with
both ``--metrics-out`` and ``--baseline`` (so every ``baseline_body`` runs),
``pytest benchmarks`` (which rewrites ``benchmarks/results``, byte-identically
while modelled behaviour holds), bench's selftest and every
``examples/*.py``.  A settrace hook, not a setprofile one: bench's traced
mode runs cProfile, which replaces the profile hook.  A world can still
drop the trace hook (CPython removes one that raises, for instance at the
recursion limit), so after each one the tool asserts the hook is its own
and fails loudly otherwise.

*The allowlist* (``tests/reachability_allowlist.txt``) has one entry a line:
a key -- a function, a class (``path::Class``, covering its methods) or a
module (``path``, covering everything in it) -- then its reason.  A reason
starts with one of three tags and names what backs it:

* ``(i)`` a paper claim: cites a ``§`` section and the world that will reach it;
* ``(ii)`` public API used by an example: names an ``examples/*.py`` file;
* ``(iii)`` a fault-only or safety path: names the ``tests/...py`` file that
  forces it.

``--check`` fails when an unreached function has no entry, when an entry is
stale (everything it covers is reached, or it names nothing that exists), and
when an entry's reason is malformed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import os
import pathlib
import re
import runpy
import sys
import tempfile
from typing import Callable, Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = pathlib.Path(__file__).resolve().parent / "reachability_allowlist.txt"
DEBUGGING_AID = "# pragma: no cover - debugging aid"
_SKIPPED_NAMES = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_TAG = re.compile(r"^\((i|ii|iii)\)\s+(.*)$")


@dataclasses.dataclass(frozen=True)
class Function:
    key: str  # path::qualname
    lines: int  # source lines the function spans
    exempt: bool  # its def line carries the debugging-aid marker


def _functions_in(code, prefix: str, source_lines: list[str], path: str, out: dict) -> None:
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name in _SKIPPED_NAMES:
            continue
        qualname = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:
            out[(const.co_firstlineno, const.co_name)] = Function(
                key=f"{path}::{qualname}",
                lines=_span(const),
                exempt=DEBUGGING_AID in _def_line(source_lines, const.co_firstlineno),
            )
            _functions_in(const, qualname + ".<locals>.", source_lines, path, out)
        else:  # a class body: its methods are Class.method
            _functions_in(const, qualname + ".", source_lines, path, out)


def _span(code) -> int:
    numbers = [line for _, _, line in code.co_lines() if line is not None]
    return max(numbers) - code.co_firstlineno + 1 if numbers else 1


def _def_line(source_lines: list[str], first: int) -> str:
    """The ``def`` line itself: a decorated function's code starts at its decorator."""
    for line in source_lines[first - 1 :]:
        if line.lstrip().startswith(("def ", "async def ")):
            return line
    return ""


def enumerate_functions(root: pathlib.Path, package: pathlib.Path) -> dict:
    """``{(real path, first line, name): Function}`` for every function under ``package``."""
    found = {}
    for file in sorted(package.rglob("*.py")):
        source = file.read_text(encoding="utf-8")
        real = os.path.realpath(file)
        module = compile(source, real, "exec", dont_inherit=True)
        per_file: dict = {}
        _functions_in(module, "", source.splitlines(), file.relative_to(root).as_posix(), per_file)
        for (first, name), function in per_file.items():
            found[(real, first, name)] = function
    return found


class CallTracer:
    """A call-only ``sys.settrace`` hook that records every code object entered."""

    def __init__(self) -> None:
        self.codes: set = set()

    def __call__(self, frame, event, arg):
        self.codes.add(frame.f_code)
        return None  # no line events inside the frame

    def __enter__(self) -> "CallTracer":
        self._previous = sys.gettrace()
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def run(self, name: str, world: Callable[[], object]) -> None:
        """Run one world; it must exit 0 and leave this hook installed."""
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            try:
                status = world()
            except SystemExit as stop:
                status = stop.code
        if sys.gettrace() is not self:
            raise SystemExit(f"reachability: the trace hook was lost during {name}")
        if status not in (0, None):
            sys.stderr.write(captured.getvalue()[-4000:])
            raise SystemExit(f"reachability: {name} exited {status!r}")
        print(f"reachability: ran {name}", file=sys.stderr)

    def reached(self) -> set:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in self.codes
        }


def unreached(functions: dict, reached: set) -> list[Function]:
    """Functions never entered, debugging aids excluded, sorted by key."""
    return sorted(
        (f for ident, f in functions.items() if ident not in reached and not f.exempt),
        key=lambda f: f.key,
    )


def canonical(missing: Iterable[Function]) -> str:
    return "".join(f"{f.key}\n" for f in missing)


def _covers(entry: str, key: str) -> bool:
    if "::" not in entry:  # a module
        return key.startswith(entry + "::")
    return key == entry or key.startswith(entry + ".")


def parse_allowlist(text: str, root: pathlib.Path) -> tuple[dict[str, str], list[str]]:
    """``({key: reason}, problems)``; blank lines and ``#`` comments are skipped."""
    entries: dict[str, str] = {}
    problems = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        reason = reason.strip()
        where = f"allowlist line {number} ({key})"
        if key in entries:
            problems.append(f"{where}: listed twice")
        entries[key] = reason
        problem = _reason_problem(reason, root)
        if problem:
            problems.append(f"{where}: {problem}")
    return entries, problems


def _reason_problem(reason: str, root: pathlib.Path) -> str | None:
    match = _TAG.match(reason)
    if not match:
        return "reason must start with (i), (ii) or (iii)"
    tag, text = match.groups()
    if re.fullmatch(r"\W*tested\W*", text, re.IGNORECASE):
        return '"tested" is not a reason'
    if tag == "i":
        return None if "§" in text else "(i) must cite the paper section (§) it backs"
    pattern = r"examples/[\w/]+\.py" if tag == "ii" else r"tests/[\w/]+\.py"
    named = re.findall(pattern, text)
    if not named:
        kind = "an examples/*.py file" if tag == "ii" else "a tests/*.py file"
        return f"({tag}) must name {kind}"
    absent = [name for name in named if not (root / name).is_file()]
    return f"names a missing file: {', '.join(absent)}" if absent else None


def check(missing: list[Function], entries: dict[str, str]) -> list[str]:
    """Unallowlisted unreached functions, then stale entries."""
    keys = [f.key for f in missing]
    problems = [
        f"unreached and not allowlisted: {key}"
        for key in keys
        if not any(_covers(entry, key) for entry in entries)
    ]
    problems += [
        f"stale allowlist entry (reached, or gone): {entry}"
        for entry in sorted(entries)
        if not any(_covers(entry, key) for key in keys)
    ]
    return problems


def _recorded_worlds(scratch: pathlib.Path) -> list[tuple[str, Callable[[], object]]]:
    def experiments():
        from repro.experiments.__main__ import main

        return main(
            ["all", "--smoke", "--metrics-out", str(scratch / "metrics"),
             "--baseline", str(scratch / "baselines")]
        )

    def benchmarks():
        import pytest

        return int(pytest.main([str(ROOT / "benchmarks"), "-q", "-p", "no:cacheprovider"]))

    def selftest():
        from bench.__main__ import main

        return main(["run", "--selftest"])

    worlds = [
        ("experiments all --smoke", experiments),
        ("pytest benchmarks", benchmarks),
        ("bench run --selftest", selftest),
    ]

    def example(path: pathlib.Path):
        runpy.run_path(str(path), run_name="__main__")

    for path in sorted((ROOT / "examples").glob("*.py")):
        worlds.append((f"examples/{path.name}", lambda path=path: example(path)))
    return worlds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.reachability", description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare the unreached set to the allowlist")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))  # bench
    functions = enumerate_functions(ROOT, ROOT / "src" / "repro")
    with tempfile.TemporaryDirectory() as scratch, CallTracer() as tracer:
        for name, world in _recorded_worlds(pathlib.Path(scratch)):
            tracer.run(name, world)
    missing = unreached(functions, tracer.reached())
    exempt = sum(f.exempt for f in functions.values())
    print(
        f"reachability: {len(functions)} functions, {exempt} debugging aids exempt, "
        f"{len(missing)} unreached ({sum(f.lines for f in missing)} lines)",
        file=sys.stderr,
    )
    if not args.check:
        sys.stdout.write(canonical(missing))
        return 0
    entries, problems = parse_allowlist(ALLOWLIST.read_text(encoding="utf-8"), ROOT)
    problems += check(missing, entries)
    for problem in problems:
        print(f"reachability: {problem}")
    print(f"reachability: {len(entries)} allowlist entries, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
