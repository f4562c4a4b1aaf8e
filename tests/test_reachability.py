"""The reachability tool (``tests/reachability.py``) on a toy package."""

import sys
import textwrap

import pytest

from tests import reachability as reach

TOY = '''
import functools


def called():
    return [x for x in range(3)] + list(y for y in range(2))


def uncalled():
    return (lambda: 1)()


@functools.lru_cache(maxsize=None)
def decorated_uncalled():
    return 2


def outer():
    def inner():
        return 3

    return inner


class Shape:
    def area(self):
        return 0

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Shape>"

    class Nested:
        def method(self):
            return 1
'''


OPTIONS = '''
import dataclasses


def one_value(x, flag=True):
    return x


def two_values(x, level=1):
    return x


def object_value(x, sink=None):
    return x


def never_called(x, mode="a"):
    return x


def generator(n, step=1):
    step = 99  # a resumed frame must not report the rebound value
    yield n + step
    yield n


@dataclasses.dataclass
class Config:
    name: str
    retries: int = 3
    hidden: int = dataclasses.field(default=0, init=False)
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "src" / "toy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    yield tmp_path, package
    for name in [n for n in sys.modules if n == "toy" or n.startswith("toy.")]:
        del sys.modules[name]


def keys(functions):
    return sorted(f.key for f in functions)


class TestEnumeration:
    def test_functions_keyed_by_path_and_qualname(self, toy):
        root, package = toy
        functions = reach.enumerate_functions(root, package)
        assert keys(functions.values()) == [
            "src/toy/mod.py::Shape.Nested.method",
            "src/toy/mod.py::Shape.__repr__",
            "src/toy/mod.py::Shape.area",
            "src/toy/mod.py::called",
            "src/toy/mod.py::decorated_uncalled",
            "src/toy/mod.py::outer",
            "src/toy/mod.py::outer.<locals>.inner",
            "src/toy/mod.py::uncalled",
        ]  # no lambdas, comprehensions, genexprs, class or module bodies

    def test_debugging_aid_is_exempt(self, toy):
        root, package = toy
        functions = reach.enumerate_functions(root, package)
        exempt = [f.key for f in functions.values() if f.exempt]
        assert exempt == ["src/toy/mod.py::Shape.__repr__"]

class TestTracing:
    def test_called_is_reached_and_uncalled_is_not(self, toy):
        root, package = toy
        functions = reach.enumerate_functions(root, package)
        with reach.CallTracer() as tracer:
            from toy import mod

            def world():
                mod.called(), mod.Shape().area(), mod.outer()()

            tracer.run("toy world", world)
        missing = keys(reach.unreached(functions, tracer.reached()))
        assert missing == [
            "src/toy/mod.py::Shape.Nested.method",
            "src/toy/mod.py::decorated_uncalled",
            "src/toy/mod.py::uncalled",
        ]

    def test_a_world_that_drops_the_hook_fails_loudly(self):
        with reach.CallTracer() as tracer:
            with pytest.raises(SystemExit, match="trace hook was lost during rogue"):
                tracer.run("rogue", lambda: sys.settrace(None))

    def test_a_failing_world_fails_the_run(self):
        with reach.CallTracer() as tracer:
            with pytest.raises(SystemExit, match="broken exited 3"):
                tracer.run("broken", lambda: 3)


@pytest.fixture
def toy_options(tmp_path, monkeypatch):
    package = tmp_path / "src" / "toyopts"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "opts.py").write_text(textwrap.dedent(OPTIONS))
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    yield tmp_path, package
    for name in [n for n in sys.modules if n == "toyopts" or n.startswith("toyopts.")]:
        del sys.modules[name]


class TestOptionCensus:
    def census(self, toy_options):
        root, package = toy_options
        options = reach.enumerate_options(root, package)
        with reach.OptionTracer(options) as tracer:
            from toyopts import opts

            def world():
                opts.one_value(1), opts.one_value(2, flag=True)
                opts.two_values(1), opts.two_values(2, level=2)
                opts.object_value(1, sink=[]), opts.object_value(2, sink=[])
                list(opts.generator(1))
                opts.Config("a"), opts.Config("b", retries=3)

            tracer.run("toy world", world)
        return reach.census(options, tracer.result()).splitlines()

    def test_report_lines_and_counts(self, toy_options):
        assert self.census(toy_options) == [
            "src/toyopts/opts.py::Config.__init__(retries) default=3 seen=3",
            "src/toyopts/opts.py::generator(step) default=1 seen=1",
            "src/toyopts/opts.py::object_value(sink) default=None seen=<object>",
            "src/toyopts/opts.py::one_value(flag) default=True seen=True",
            "src/toyopts/opts.py::two_values(level) default=1 seen=1 | 2",
            "options: 6 defaulted, 5 reached, 3 single-valued primitive",
            "  parameters: 5 defaulted, 4 reached, 2 single-valued primitive",
            "  dataclass fields: 1 defaulted, 1 reached, 1 single-valued primitive",
        ]  # never_called(mode) is defaulted but unreached; init=False is no option

    def test_primitive_values_by_repr_others_as_objects(self):
        assert reach._value_text(("a", 1, None, (2.5,))) == "('a', 1, None, (2.5,))"
        assert reach._value_text(tuple(range(9))) == reach.OBJECT
        assert reach._value_text(["list"]) == reach.OBJECT


def missing_of(*names):
    return [reach.Function(key=name, lines=1, exempt=False) for name in names]


class TestCheck:
    def test_unallowlisted_function_and_stale_entry_reported(self, tmp_path):
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_x.py").write_text("")
        entries, problems = reach.parse_allowlist(
            "src/toy/mod.py::uncalled (iii) forced by tests/test_x.py\n"
            "src/toy/mod.py::Shape (iii) forced by tests/test_x.py\n",
            tmp_path,
        )
        assert problems == []
        report = reach.check(
            missing_of("src/toy/mod.py::uncalled", "src/toy/mod.py::outer"), entries
        )
        assert report == [
            "unreached and not allowlisted: src/toy/mod.py::outer",
            "stale allowlist entry (reached, or gone): src/toy/mod.py::Shape",
        ]

    def test_class_and_module_entries_cover_their_functions(self):
        entries = {"src/toy/mod.py::Shape": "", "src/toy/other.py": ""}
        report = reach.check(
            missing_of("src/toy/mod.py::Shape.Nested.method", "src/toy/other.py::f"),
            entries,
        )
        assert report == []

    @pytest.mark.parametrize(
        "reason, problem",
        [
            ("", "must start with (i), (ii) or (iii)"),
            ("(iii) tested", '"tested" is not a reason'),
            ("(ii) Tested.", '"tested" is not a reason'),
            ("(i) the anycast world", "must cite the paper section"),
            ("(ii) the quickstart", "must name an examples/*.py file"),
            ("(iii) a unit test", "must name a tests/*.py file"),
            ("(iii) tests/nowhere.py forces it", "names a missing file: tests/nowhere.py"),
        ],
    )
    def test_bad_reasons_rejected(self, tmp_path, reason, problem):
        _entries, problems = reach.parse_allowlist(f"src/toy/mod.py::f {reason}\n", tmp_path)
        assert len(problems) == 1 and problem in problems[0]

    def test_listed_twice_rejected(self, tmp_path):
        line = "src/toy/mod.py::f (i) §3 claim, world fig3\n"
        _entries, problems = reach.parse_allowlist(line + line, tmp_path)
        assert problems == ["allowlist line 2 (src/toy/mod.py::f): listed twice"]

    def test_checked_in_allowlist_is_well_formed(self):
        _entries, problems = reach.parse_allowlist(
            reach.ALLOWLIST.read_text(encoding="utf-8"), reach.ROOT
        )
        assert problems == []
