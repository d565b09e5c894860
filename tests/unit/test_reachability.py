"""The reachability gate: every definition and option in ``src/`` is reached
by what a user runs, or named in an allowlist of ``tests/reachability.py``.

The repository check runs the same :func:`reachability.check` that CI runs
as ``python tests/reachability.py``; the other tests run it on small fake
trees.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import reachability
from reachability import ALLOWLIST, OPTION_ALLOWLIST, check

REPO = Path(__file__).resolve().parents[2]


def test_repository_has_no_unreached_definition():
    problems = check(REPO)
    assert not problems, "\n".join(problems)


def test_every_allowlist_entry_gives_a_reason():
    for name, reason in {**ALLOWLIST, **OPTION_ALLOWLIST}.items():
        assert reason.strip(), name


#: A minimal package: the console script reaches ``used`` and ``Tool``.
PACKAGE = {
    "src/pkg/__init__.py": """
        from .core import Tool, planted, used
        __all__ = ["Tool", "planted", "used"]
    """,
    "src/pkg/cli.py": """
        from .core import Tool, used

        def main():
            tool = Tool()
            tool.run()
            return used(len(tool))
    """,
    "src/pkg/core.py": '''
        """Core module."""

        def used(x):
            return x

        def planted():
            return 1

        class Tool:
            def __len__(self):
                return 0

            def run(self):
                return 1

            def planted_method(self):
                return 2
    ''',
    "tests/test_core.py": """
        from pkg.core import Tool, planted

        def test_planted():
            assert planted() == 1
            assert Tool().planted_method() == 2
    """,
}


def _tree(root: Path, extra=None) -> Path:
    for name, text in {**PACKAGE, **(extra or {})}.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def _check(root: Path, allowlist=None, option_allowlist=None):
    return check(root, allowlist or {}, package="pkg",
                 entry_points=("pkg.cli:main",),
                 option_allowlist=option_allowlist or {})


class TestFakeTrees:
    def test_function_and_method_only_a_test_calls_fail(self, tmp_path):
        problems = _check(_tree(tmp_path))
        assert problems == ["src/pkg/core.py:7 planted",
                            "src/pkg/core.py:17 Tool.planted_method"]

    def test_an_example_reaches_them(self, tmp_path):
        root = _tree(tmp_path, {"examples/demo.py": """
            import pkg
            print(pkg.planted(), pkg.Tool().planted_method())
        """})
        assert _check(root) == []

    def test_perfbench_span_strings_reach_them(self, tmp_path):
        root = _tree(tmp_path, {"perfbench/spans.py": """
            SPANS = [("pkg.core", "planted", "core.planted"),
                     ("pkg.core", "Tool.planted_method", "core.method")]
        """})
        assert _check(root) == []

    def test_dunder_and_attribute_called_methods_of_a_reached_class_pass(
            self, tmp_path):
        # Tool.__len__ runs through len() and Tool.run through an
        # attribute: neither is reported, only the two planted names.
        problems = _check(_tree(tmp_path))
        assert not any("Tool.__len__" in line or "Tool.run" in line
                       for line in problems)

    def test_methods_go_with_an_unreached_class(self, tmp_path):
        root = _tree(tmp_path, {"src/pkg/extra.py": """
            class Orphan:
                def __init__(self):
                    self.value = 1

                def helper(self):
                    return self.value
        """})
        problems = _check(root)
        assert "src/pkg/extra.py:2 Orphan" in problems
        assert not any("Orphan." in line for line in problems)

    def test_allowlisted_names_pass(self, tmp_path):
        allowlist = {"pkg.core:planted": "oracle",
                     "pkg.core:Tool.planted_method": "oracle"}
        assert _check(_tree(tmp_path), allowlist) == []

    @pytest.mark.parametrize("entry, verdict", [
        ("pkg.core:used", "now reached"),
        ("pkg.core:gone", "no such definition"),
    ])
    def test_stale_allowlist_entry_fails(self, tmp_path, entry, verdict):
        allowlist = {"pkg.core:planted": "oracle",
                     "pkg.core:Tool.planted_method": "oracle",
                     entry: "stale"}
        assert _check(_tree(tmp_path), allowlist) == [
            f"stale allowlist entry {entry}: {verdict}"]

    def test_module_level_code_is_a_root(self, tmp_path):
        root = _tree(tmp_path, {"src/pkg/registry.py": """
            def build():
                return {}

            REGISTRY = build()
        """})
        assert not any("build" in line for line in _check(root))

    def test_dunder_all_and_docstrings_reach_nothing(self, tmp_path):
        root = _tree(tmp_path, {"src/pkg/extra.py": '''
            """Mentions helper(), which only tests call."""
            __all__ = ["helper"]

            def helper():
                """helper"""
                return 1
        '''})
        assert "src/pkg/extra.py:5 helper" in _check(root)

    def test_reach_is_transitive_through_bodies(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/chain.py": """
                def first():
                    return second()

                def second():
                    return 2

                def lonely():
                    return third()

                def third():
                    return 3
            """,
            "examples/demo.py": """
                from pkg.chain import first
                print(first())
            """,
        })
        problems = [line for line in _check(root) if "chain" in line]
        assert problems == ["src/pkg/chain.py:8 lonely",
                            "src/pkg/chain.py:11 third"]

    def test_the_entry_point_is_a_root(self, tmp_path):
        root = _tree(tmp_path)
        problems = check(root, {}, package="pkg", entry_points=(),
                         option_allowlist={})
        assert problems == ["src/pkg/cli.py:4 main",
                            "src/pkg/core.py:4 used",
                            "src/pkg/core.py:7 planted",
                            "src/pkg/core.py:10 Tool"]

    def test_a_benchmark_reaches_them(self, tmp_path):
        root = _tree(tmp_path, {"benchmarks/bench_core.py": """
            from pkg.core import Tool, planted

            def test_core(benchmark):
                benchmark(planted)
                Tool().planted_method()
        """})
        assert _check(root) == []

    @pytest.mark.parametrize("directory", ["examples", "benchmarks"])
    def test_string_constants_reach_only_in_perfbench(self, tmp_path,
                                                      directory):
        root = _tree(tmp_path, {f"{directory}/names.py": """
            NAMES = ["pkg.core:planted", "Tool.planted_method"]
        """})
        assert _check(root) == _check(_tree(tmp_path / "bare"))

    def test_a_class_is_reached_only_through_its_own_name(self, tmp_path):
        # An attribute use of a method name does not reach its class.
        root = _tree(tmp_path, {
            "src/pkg/extra.py": """
                class Orphan:
                    def helper(self):
                        return 1
            """,
            "examples/demo.py": """
                def call(thing):
                    return thing.helper()
            """,
        })
        assert "src/pkg/extra.py:2 Orphan" in _check(root)

    def test_annotations_reach_nothing(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/typed.py": """
                class Shape:
                    pass

                def area(shape: Shape) -> Shape:
                    size: Shape = shape
                    return size
            """,
            "examples/demo.py": """
                from pkg.typed import area
                print(area(1))
            """,
        })
        problems = [line for line in _check(root) if "typed" in line]
        assert problems == ["src/pkg/typed.py:2 Shape"]

    def test_an_aliased_import_counts_as_its_name(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/runner.py": """
                from .core import planted as build

                def run():
                    return build()
            """,
            "examples/demo.py": """
                from pkg.runner import run
                print(run())
            """,
        })
        assert _check(root) == ["src/pkg/core.py:17 Tool.planted_method"]

    def test_bases_and_decorators_of_a_reached_class_are_reached(
            self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/shapes.py": """
                def register(cls):
                    return cls

                class Base:
                    def describe(self):
                        return "base"

                @register
                class Square(Base):
                    pass
            """,
            "examples/demo.py": """
                from pkg.shapes import Square
                print(Square().describe())
            """,
        })
        assert not any("shapes" in line for line in _check(root))


#: A module whose two options (``scaled(factor=)`` and the constructor's
#: ``unit=``) reach only through what the example of a test passes.
OPTIONS = {
    "src/pkg/opts.py": """
        def scaled(x, factor=1.0):
            return x * factor

        class Meter:
            def __init__(self, unit="m"):
                self.unit = unit

        class Gauge(Meter):
            pass
    """,
    "tests/test_opts.py": """
        from pkg.opts import Meter, scaled

        def test_options():
            assert scaled(2, factor=3) == 6
            assert Meter(unit="s").unit == "s"
    """,
}


class TestOptions:
    def _options(self, tmp_path, example, extra=None, option_allowlist=None):
        root = _tree(tmp_path, {**OPTIONS, "examples/demo.py": example,
                                **(extra or {})})
        return [line for line in _check(root,
                                        option_allowlist=option_allowlist)
                if "=)" in line]

    def test_an_option_no_reached_call_passes_fails(self, tmp_path):
        # The test passes both options; tests are not roots.
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            print(scaled(2), Meter().unit)
        """)
        assert problems == ["src/pkg/opts.py:2 scaled(factor=)",
                            "src/pkg/opts.py:6 Meter.__init__(unit=)"]

    @pytest.mark.parametrize("example", [
        'print(scaled(2, factor=3), Meter(unit="s"))',
        'print(scaled(2, 3), Meter("s"))',
        'options = {}\nprint(scaled(2, **options), Meter(**options))',
        'print(scaled(2, factor=3), Gauge(unit="s"))',
        'REGISTRY = {"scaled": scaled, "meter": Meter}\n'
        'print(REGISTRY["scaled"](2), REGISTRY["meter"]())',
        'args = (3,)\nprint(scaled(2, *args), Meter(*args))',
        'import functools\n'
        'print(functools.partial(scaled)(2), [Meter][0]())',
    ], ids=["keyword", "position", "kwargs", "subclass-name", "registry",
            "star-args", "callback"])
    def test_a_passed_option_is_reached(self, tmp_path, example):
        assert self._options(
            tmp_path, "from pkg.opts import Gauge, Meter, scaled\n"
            + example) == []

    @pytest.mark.parametrize("call", ['super().__init__(unit="s")',
                                      'Meter.__init__(self, "s")'])
    def test_a_subclass_constructor_passes_to_its_base(self, tmp_path, call):
        problems = self._options(tmp_path, """
            from pkg.opts import scaled
            from pkg.sub import Ruler
            print(scaled(2, 3), Ruler().unit)
        """, {"src/pkg/sub.py": f"""
            from .opts import Meter

            class Ruler(Meter):
                def __init__(self):
                    {call}
        """})
        assert problems == []

    @pytest.mark.parametrize("call", ['super().__init__(unit="s")',
                                      'Base.__init__(self, unit="s")'])
    def test_a_base_constructor_call_passes_only_to_that_base(self, tmp_path,
                                                               call):
        # Another class's base takes unit= too; Meter's stays unreached.
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            from pkg.other import Child
            print(scaled(2, 3), Meter().unit, Child().unit)
        """, {"src/pkg/other.py": f"""
            class Base:
                def __init__(self, unit):
                    self.unit = unit

            class Child(Base):
                def __init__(self):
                    {call}
        """})
        assert problems == ["src/pkg/opts.py:6 Meter.__init__(unit=)"]

    def test_cls_in_a_classmethod_calls_its_class(self, tmp_path):
        problems = self._options(tmp_path, """
            from pkg.opts import scaled
            from pkg.sub import Dial
            print(scaled(2, 3), Dial.parse("s").unit)
        """, {"src/pkg/sub.py": """
            class Dial:
                def __init__(self, unit="m"):
                    self.unit = unit

                @classmethod
                def parse(cls, text):
                    return cls(unit=text)
        """})
        assert problems == []

    def test_closures_binding_loop_variables_are_exempt(self, tmp_path):
        root = _tree(tmp_path, {
            "src/pkg/loops.py": """
                def handlers():
                    return [lambda value, index=index: value + index
                            for index in range(3)]

                def run_all():
                    def bound(value, scale=2):
                        return value * scale
                    return [bound(handler(1)) for handler in handlers()]
            """,
            "examples/demo.py": """
                from pkg.loops import run_all
                print(run_all())
            """,
        })
        assert not any("loops" in line for line in _check(root))

    @pytest.mark.parametrize("entry, verdict", [
        ("pkg.opts:scaled(factor=)", "now passed, or its definition "
                                     "unreached"),
        ("pkg.opts:scaled(gone=)", "no such option"),
    ])
    def test_stale_option_allowlist_entry_fails(self, tmp_path, entry,
                                                verdict):
        problems = self._options(
            tmp_path, "from pkg.opts import Meter, scaled\n"
            "print(scaled(2, factor=3), Meter(unit='s'))",
            option_allowlist={entry: "stale"})
        assert problems == [f"stale option allowlist entry {entry}: {verdict}"]

    def test_a_method_option_passed_by_attribute_call(self, tmp_path):
        extra = {"src/pkg/dial.py": """
            class Dial:
                def read(self, value, rounding=None, *, clamp=False):
                    return value
        """}
        reached = self._options(tmp_path / "a", """
            from pkg.dial import Dial
            print(Dial().read(1, 2, clamp=True))
        """, extra)
        unbound = self._options(tmp_path / "b", """
            from pkg.dial import Dial
            print(Dial.read(Dial(), 1, 2))
        """, extra)
        assert [line for line in reached if "Dial" in line] == []
        assert [line for line in unbound if "Dial" in line] == [
            "src/pkg/dial.py:3 Dial.read(clamp=)"]

    def test_positions_never_reach_a_keyword_only_option(self, tmp_path):
        problems = self._options(tmp_path, """
            from pkg.kw import tagged
            print(tagged(1, 2, 3, 4))
        """, {"src/pkg/kw.py": """
            def tagged(x, *rest, label="x"):
                return x, rest, label
        """})
        assert problems == ["src/pkg/kw.py:2 tagged(label=)"]

    def test_a_call_in_unreached_code_passes_nothing(self, tmp_path):
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            print(scaled(2), Meter(unit="s"))
        """, {"src/pkg/lonely.py": """
            from .opts import scaled

            def lonely():
                return scaled(2, factor=3)
        """})
        assert problems == ["src/pkg/opts.py:2 scaled(factor=)"]

    def test_module_level_code_passes_options(self, tmp_path):
        problems = self._options(tmp_path, """
            from pkg.opts import Meter
            from pkg.table import TABLE
            print(TABLE, Meter(unit="s"))
        """, {"src/pkg/table.py": """
            from .opts import scaled

            TABLE = [scaled(x, factor=2) for x in range(3)]
        """})
        assert problems == []

    def test_perfbench_strings_pass_no_option(self, tmp_path):
        # A span string names a definition (reaching it) but calls nothing.
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            print(scaled(2), Meter(unit="s"))
        """, {"perfbench/spans.py": """
            SPANS = [("pkg.opts", "scaled", "opts.scaled")]
        """})
        assert problems == ["src/pkg/opts.py:2 scaled(factor=)"]

    def test_an_attribute_of_a_class_is_not_a_value(self, tmp_path):
        # ``Meter.unit`` reads the class; it does not hand it to a caller
        # that could construct it with other arguments.
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            print(scaled(2, 3), Meter.__name__, Meter())
        """)
        assert problems == ["src/pkg/opts.py:6 Meter.__init__(unit=)"]

    def test_other_dunder_methods_are_out_of_scope(self, tmp_path):
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            from pkg.law import Law
            print(scaled(2, 3), Meter("s"), Law()(1.0))
        """, {"src/pkg/law.py": """
            class Law:
                def __call__(self, x, gain=1.0):
                    return gain * x
        """})
        assert problems == []

    def test_one_name_passes_every_definition_of_it(self, tmp_path):
        # Matching by name: passing factor= to any ``scaled`` reaches both.
        problems = self._options(tmp_path, """
            from pkg.opts import Meter, scaled
            from pkg.other import Other
            print(scaled(2), Meter("s"), Other().scaled(2, factor=3))
        """, {"src/pkg/other.py": """
            class Other:
                def scaled(self, x, factor=2.0):
                    return x * factor
        """})
        assert problems == []

    def test_the_option_count(self, tmp_path):
        root = _tree(tmp_path, {**OPTIONS, "src/pkg/kw.py": """
            def tagged(x, y=1, *rest, label="x", width, **extra):
                return x
        """})
        definitions, _ = reachability.scan(root, "pkg")
        counted = {d.qualname: [o.name for o in d.options]
                   for d in definitions if d.options}
        assert counted == {"scaled": ["factor"],
                           "Meter.__init__": ["unit"],
                           "tagged": ["y", "label"]}
        assert reachability.count_options(definitions) == 4

    def test_an_allowlisted_option_passes(self, tmp_path):
        problems = self._options(
            tmp_path, "from pkg.opts import Meter, scaled\n"
            "print(scaled(2), Meter(unit='s'))",
            option_allowlist={"pkg.opts:scaled(factor=)": "test hook"})
        assert problems == []


class TestScript:
    def test_main_prints_each_problem_and_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(reachability, "check",
                            lambda root: ["src/repro/extra.py:3 helper"])
        assert reachability.main() == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "src/repro/extra.py:3 helper"
        assert lines[1].startswith("1 reachability problem(s)")

    def test_runs_on_the_standard_library_alone(self, tmp_path):
        # Isolated mode: no PYTHONPATH, no script directory on sys.path.
        completed = subprocess.run(
            [sys.executable, "-I", str(REPO / "tests" / "reachability.py")],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            check=False)
        assert (completed.returncode, completed.stderr) == (0, "")
        count, _, rest = completed.stdout.partition(" ")
        assert rest == "defaulted parameters in src/\n"
        assert int(count) > 0
