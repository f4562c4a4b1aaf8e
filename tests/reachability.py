"""Which ``src/repro`` functions run in no recorded world.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.reachability            # print the unreached set
    PYTHONPATH=src python -m tests.reachability --check    # compare it to the allowlist
    PYTHONPATH=src python -m tests.reachability --options  # the option census

*Which functions exist.*  Every ``src/repro/**/*.py`` is compiled and its
nested code objects walked.  Lambdas, comprehensions, generator expressions,
class bodies and module bodies are skipped.  A function is keyed
``path::qualname`` (``src/repro/core/stack.py::ChunnelStack.send``), never by
line number, so unrelated edits do not churn the allowlist.  A function whose
``def`` line carries ``# pragma: no cover - debugging aid`` is exempt.

*Which functions run.*  Each recorded world runs in its own worker process
(``os.cpu_count()`` at a time) under a call-only ``sys.settrace`` function,
and the reached sets are united: every row of ``repro.experiments`` at
``--smoke`` (what ``all --smoke`` runs), and every figure and ablation row
at its default tier (the run recorded under ``benchmarks/results``), one
run a world, each with both ``--metrics-out`` and ``--baseline`` (so every
recorded file's writer runs); then bench's selftest and every
``examples/*.py``.  A settrace hook, not a setprofile one: bench's traced
mode runs cProfile, which replaces the profile hook.  A world can still
drop the trace hook (CPython removes one that raises, for instance at the
recursion limit), so after each one the tool asserts the hook is its own
and fails loudly otherwise; a world that exits non-zero fails the run too.

*The option census* (``--options``) runs the same worlds under a different
hook.  At the call of every reached library function (``src/repro`` outside
``experiments/``) that has defaulted parameters -- a dataclass's defaulted
fields count as its ``__init__``'s -- it records the distinct values each
such parameter took: None, bool, int, float, str and short tuples of them by
``repr``, anything else as ``<object>`` (its identity varies, so it never
counts as one value).  It prints one line a reached parameter,
``path::qualname(param) default=... seen=...``, sorted, then the counts --
defaulted, reached, and single-valued primitive (the options that no two
callers set differently, each a candidate to fold into a constant) -- in
all, and for function parameters and dataclass fields apart.  It reads
only what callers pass: an attribute written after construction is a second
caller it cannot see.  ``experiments/`` is left out because its configs are
censused without running anything:
``tests/experiments/test_contract.py::TestConfigCensus`` requires every
config field to differ between a row's tiers or be set by one of its flags.

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
import ast
import collections
import contextlib
import dataclasses
import dis
import inspect
import io
import multiprocessing
import os
import pathlib
import re
import runpy
import sys
import tempfile
import time
from typing import Callable, Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = pathlib.Path(__file__).resolve().parent / "reachability_allowlist.txt"
DEBUGGING_AID = "# pragma: no cover - debugging aid"
_SKIPPED_NAMES = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_TAG = re.compile(r"^\((i|ii|iii)\)\s+(.*)$")
OBJECT = "<object>"  # a census value that is not a primitive
_PRIMITIVES = (type(None), bool, int, float, str)
_RESUMABLE = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


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


class _Hook:
    """A call-only ``sys.settrace`` hook; a subclass records what each call shows.

    ``_trace_function`` builds the function installed: it runs on every
    Python call of a world, so it is a closure, not a bound method.
    """

    def _trace_function(self) -> Callable:
        raise NotImplementedError

    def __enter__(self):
        self._previous = sys.gettrace()
        self._function = self._trace_function()
        sys.settrace(self._function)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def run(self, name: str, world: Callable[[], object]) -> None:
        """Run one world; it must exit 0 and leave this hook installed."""
        captured = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            try:
                status = world()
            except SystemExit as stop:
                status = stop.code
        if sys.gettrace() is not self._function:
            raise SystemExit(f"reachability: the trace hook was lost during {name}")
        if status not in (0, None):
            sys.stderr.write(captured.getvalue()[-4000:])
            raise SystemExit(f"reachability: {name} exited {status!r}")
        print(f"reachability: ran {name} ({time.perf_counter() - start:.1f} s)", file=sys.stderr)


class CallTracer(_Hook):
    """Records every code object entered."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _trace_function(self) -> Callable:
        add = self.codes.add

        def trace(frame, event, arg):
            add(frame.f_code)  # and no line events inside the frame

        return trace

    def reached(self) -> set:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in self.codes
        }

    result = reached


@dataclasses.dataclass(frozen=True)
class Option:
    key: str  # path::qualname(param)
    param: str
    default: str  # the default's source text
    field: bool = False  # a dataclass field, not a function parameter


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(re.search(r"(^|\.)dataclass\b", ast.unparse(d)) for d in node.decorator_list)


def _options_in(node, prefix: str, path: str, real: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            qualname = prefix + child.name
            if _is_dataclass(child):
                fields = [
                    Option(f"{path}::{qualname}.__init__({field.target.id})", field.target.id,
                           ast.unparse(field.value), field=True)
                    for field in child.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and field.value is not None and "ClassVar" not in ast.unparse(field.annotation)
                    and "init=False" not in ast.unparse(field.value)
                ]
                if fields:
                    out[(real, qualname)] = fields
            _options_in(child, qualname + ".", path, real, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            args = child.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if pairs:
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(real, first, child.name)] = [
                    Option(f"{path}::{qualname}({a.arg})", a.arg, ast.unparse(d)) for a, d in pairs
                ]
            _options_in(child, qualname + ".<locals>.", path, real, out)
        else:
            _options_in(child, prefix, path, real, out)


def enumerate_options(root: pathlib.Path, package: pathlib.Path, skip: tuple = ()) -> dict:
    """Every defaulted parameter under ``package``, ``skip`` subpackages excluded.

    ``{(real path, first line, name): [Option]}`` for a function and
    ``{(real path, class qualname): [Option]}`` for a dataclass's fields.
    """
    found: dict = {}
    for file in sorted(package.rglob("*.py")):
        if file.relative_to(package).parts[0] in skip:
            continue
        tree = ast.parse(file.read_text(encoding="utf-8"))
        _options_in(tree, "", file.relative_to(root).as_posix(), os.path.realpath(file), found)
    return found


def _value_text(value) -> str:
    return repr(value) if _primitive(value) else OBJECT


def _primitive(value) -> bool:
    if type(value) in _PRIMITIVES:
        return True
    return type(value) is tuple and len(value) <= 8 and all(map(_primitive, value))


def _first_resume(code) -> int:
    """``f_lasti`` at a generator's first call event (it is called again on every resume)."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            return instruction.offset
    return -1  # before 3.11 a fresh frame has not run an instruction


class OptionTracer(_Hook):
    """Records the values each defaulted parameter of ``options`` takes."""

    def __init__(self, options: dict) -> None:
        self.options = options
        self.plans: dict = {}  # code -> (start offset or None, options), or () if none
        self.values: dict = collections.defaultdict(set)

    def _trace_function(self) -> Callable:
        plans, values = self.plans, self.values

        def trace(frame, event, arg):
            code = frame.f_code
            plan = plans.get(code)
            if plan is None:
                plan = plans[code] = self._plan(frame)
            if plan and (plan[0] is None or frame.f_lasti == plan[0]):
                local = frame.f_locals
                for option in plan[1]:
                    values[option.key].add(_value_text(local[option.param]))

        return trace

    def _plan(self, frame):
        code = frame.f_code
        if code.co_filename == "<string>" and code.co_name == "__init__":
            options = self._dataclass_fields(frame)
        else:
            ident = (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            options = self.options.get(ident, [])
        if not options:
            return ()
        return (_first_resume(code) if code.co_flags & _RESUMABLE else None, tuple(options))

    def _dataclass_fields(self, frame) -> list:
        """The defaulted fields a generated dataclass ``__init__`` takes."""
        instance = frame.f_locals.get(frame.f_code.co_varnames[0])
        owner = next(
            (c for c in type(instance).__mro__
             if getattr(vars(c).get("__init__"), "__code__", None) is frame.f_code),
            None,
        )
        fields = []
        for cls in owner.__mro__ if owner else ():
            file = getattr(sys.modules.get(cls.__module__), "__file__", None)
            if file:
                fields += self.options.get((os.path.realpath(file), cls.__qualname__), [])
        return fields

    def result(self) -> dict:
        return dict(self.values)


def census(options: dict, values: dict) -> str:
    """One line a reached parameter, sorted, then the counts: all options,
    then function parameters and dataclass fields apart."""
    every = {option.key: option for found in options.values() for option in found}
    reached = [every[key] for key in sorted(every) if key in values]
    lines = [
        f"{o.key} default={o.default} seen={' | '.join(sorted(values[o.key]))}\n" for o in reached
    ]

    def counts(label: str, keep) -> str:
        total = [o for o in every.values() if keep(o)]
        seen = [o for o in reached if keep(o)]
        single = [o for o in seen if len(values[o.key]) == 1 and OBJECT not in values[o.key]]
        return (
            f"{label}: {len(total)} defaulted, {len(seen)} reached, "
            f"{len(single)} single-valued primitive\n"
        )

    lines.append(counts("options", lambda o: True))
    lines.append(counts("  parameters", lambda o: not o.field))
    lines.append(counts("  dataclass fields", lambda o: o.field))
    return "".join(lines)


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


def _experiment_commands() -> list[list[str]]:
    """Every row at ``--smoke``, then every table row at its recorded default."""
    from repro.experiments.__main__ import EXPERIMENTS

    return [[name, "--smoke"] for name in EXPERIMENTS] + [
        [name] for name, row in EXPERIMENTS.items() if row.table
    ]


def _recorded_worlds(
    scratch: pathlib.Path, commands: list[list[str]]
) -> list[tuple[str, Callable[[], object]]]:
    """The experiment rows run as one world a row: rows share no state."""

    def experiment(command: list[str]):
        from repro.experiments.__main__ import main

        out = str(scratch / "_".join(command))
        return main([*command, "--metrics-out", out, "--baseline", out])

    def selftest():
        from bench.__main__ import main

        return main(["run", "--selftest"])

    worlds = [
        (f"experiments {' '.join(command)}", lambda command=command: experiment(command))
        for command in commands
    ]
    worlds.append(("bench run --selftest", selftest))

    def example(path: pathlib.Path):
        runpy.run_path(str(path), run_name="__main__")

    for path in sorted((ROOT / "examples").glob("*.py")):
        worlds.append((f"examples/{path.name}", lambda path=path: example(path)))
    return worlds


_make_tracer: Callable[[], _Hook] = CallTracer  # set before the workers fork

#: The longest worlds, traced, on 2 vCPUs: fig5's recorded run ~30 s, the
#: selftest ~26 s, fig5 --smoke ~13 s; every other world takes seconds.
#: They start first, and the short ones fill in behind them.
_LONGEST_FIRST = ("experiments fig5", "bench run --selftest", "experiments fig5 --smoke")


def _world_in_worker(job: tuple[int, str, list[list[str]]]):
    """Run world ``index`` under a fresh tracer: ``(failure or None, result)``."""
    index, scratch, commands = job
    name, world = _recorded_worlds(pathlib.Path(scratch), commands)[index]
    tracer = _make_tracer()
    try:
        with tracer:
            tracer.run(name, world)
    except SystemExit as failure:
        return str(failure.code), None
    return None, tracer.result()


def run_worlds(make_tracer: Callable[[], _Hook], scratch: pathlib.Path) -> list:
    """Each recorded world's result, each world run in its own forked worker.

    Workers run ``os.cpu_count()`` at a time.  Nothing of ``repro`` is
    imported in this process, so every worker imports it afresh under its
    hook and no world sees state another left behind.
    """
    global _make_tracer
    _make_tracer = make_tracer
    results = []
    with multiprocessing.get_context("fork").Pool(os.cpu_count(), maxtasksperchild=1) as pool:
        commands = pool.apply(_experiment_commands)
        names = [name for name, _world in _recorded_worlds(scratch, commands)]
        order = sorted(
            range(len(names)),
            key=lambda i: _LONGEST_FIRST.index(names[i]) if names[i] in _LONGEST_FIRST else 3,
        )
        jobs = [(index, str(scratch), commands) for index in order]
        for failure, result in pool.imap_unordered(_world_in_worker, jobs):
            if failure:
                raise SystemExit(failure)
            results.append(result)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.reachability", description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare the unreached set to the allowlist")
    mode.add_argument("--options", action="store_true", help="print the option census")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))  # bench
    package = ROOT / "src" / "repro"
    with tempfile.TemporaryDirectory() as scratch:
        if args.options:
            options = enumerate_options(ROOT, package, skip=("experiments",))
            values: dict = collections.defaultdict(set)
            for result in run_worlds(lambda: OptionTracer(options), pathlib.Path(scratch)):
                for key, seen in result.items():
                    values[key] |= seen
            sys.stdout.write(census(options, values))
            return 0
        functions = enumerate_functions(ROOT, package)
        reached = set().union(*run_worlds(CallTracer, pathlib.Path(scratch)))
    missing = unreached(functions, reached)
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
