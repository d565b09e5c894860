"""The reachability gate: every definition in ``src/`` is reached by what a
user runs, or named in the allowlist of ``tests/reachability.py``.

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
from reachability import ALLOWLIST, check

REPO = Path(__file__).resolve().parents[2]


def test_repository_has_no_unreached_definition():
    problems = check(REPO)
    assert not problems, "\n".join(problems)


def test_every_allowlist_entry_gives_a_reason():
    for name, reason in ALLOWLIST.items():
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


def _check(root: Path, allowlist=None):
    return check(root, allowlist or {}, package="pkg",
                 entry_points=("pkg.cli:main",))


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
        problems = check(root, {}, package="pkg", entry_points=())
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
        assert (completed.returncode, completed.stdout,
                completed.stderr) == (0, "", "")
