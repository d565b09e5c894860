"""Which definitions of ``src/repro`` does anything a user runs reach?

A definition stays in ``src/`` only if something a user runs reaches it: a
CLI command, a runner matrix, an example, a paper-figure experiment or
perfbench.  This check works that out with the standard library's ``ast``
alone, so it runs in seconds with no package installed::

    python tests/reachability.py

It prints each unreached definition that :data:`ALLOWLIST` does not name as
``path:line name``, and each stale allowlist entry, and exits 1 if there is
any.  ``tests/unit/test_reachability.py`` runs the same :func:`check` in
tier-1.

The definitions are the top-level functions and classes of every module
under ``src/repro`` and the methods of those classes.  Reach starts from
these roots:

- the module-level code of every ``src/`` module, leaving out imports (so a
  package ``__init__`` re-export reaches nothing), ``__all__`` and
  docstrings;
- :data:`ENTRY_POINTS` (the console script);
- every name in :data:`ROOT_DIRS`: identifiers, attributes and imported
  names, and in perfbench also the identifier parts of string constants
  (its tracer names the functions it wraps by ``"Class.method"`` strings).

Reach is transitive through definition bodies, by name.  Inside ``src/``
modules import the names they use, so a reached body reaches a top-level
definition by using its bare name, and a method by using its name as an
attribute (``obj.method``) or a bare name.  A class is reached only through
its own name; its dunder methods are reached with it, and its other methods
only when their names are used.  Annotations and assignment targets reach
nothing.  Matching by name over-approximates reach (two definitions with
one name are reached together), so the check can miss dead code but never
calls live code dead.

The allowlist can only shrink: an entry that is now reached, or whose
definition no longer exists, is stale and fails the check.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Unreached definitions that stay, ``"module:qualname" -> reason``.
ALLOWLIST = {
    "repro.design.objectives:score_operating_point": (
        "scalar oracle: test_design.py checks the batched score_gain_grid "
        "against it"),
    "repro.characteristics.trajectory:CharacteristicTrajectory.settling_time": (
        "scalar oracle: test_design.py checks CharacteristicBatch."
        "settling_times against it, and score_operating_point scores with it"),
    "repro.characteristics.poincare:compute_poincare_section": (
        "scalar oracle: test_trajectory_batch.py applies it to the members "
        "of a reached integrate_characteristic_batch run and to their "
        "scalar references"),
    "repro.characteristics.poincare:PoincareSection": (
        "scalar oracle: the result compute_poincare_section returns"),
    "repro.characteristics.limit_cycle:is_convergent_spiral": (
        "predicate: test_paper_claims.py applies it to a reached "
        "integrate_characteristic trajectory (JRJ converges without delay)"),
    "repro.runner.faults:corrupt_cache_entry": (
        "chaos-suite fault injector: encodes the cache entry layout that "
        "runner/cache.py owns"),
    "repro.runner.faults:truncate_journal": (
        "chaos-suite fault injector: encodes the journal layout that "
        "runner/journal.py owns"),
    "repro.exceptions:JobTimeoutError": (
        "named by executor messages and docs/robustness.md until the "
        "executor constructs it"),
    "repro.exceptions:ResultTransportError": (
        "named by executor messages and docs/robustness.md until the "
        "executor constructs it"),
}

#: Functions a user runs directly (``[project.scripts]`` in pyproject.toml).
ENTRY_POINTS = ("repro.cli:main",)

#: Directories outside ``src/`` whose every name is a root.
ROOT_DIRS = ("examples", "benchmarks", "perfbench")

#: Root directories whose string constants also name definitions.
STRING_ROOT_DIRS = ("perfbench",)

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


@dataclass
class Uses:
    """Bare names and attribute names that some code uses."""

    names: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)

    def update(self, other: "Uses") -> None:
        self.names |= other.names
        self.attrs |= other.attrs


@dataclass
class Definition:
    """One top-level function or class, or one method of such a class."""

    module: str
    qualname: str
    path: str
    line: int
    owner: str | None = None  # the class's key, for a method
    uses: Uses = field(default_factory=Uses, repr=False)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _binds_dunder_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _uses(nodes, aliases: dict[str, str]) -> Uses:
    """What *nodes* use, leaving out imports, annotations and stores.

    A use of the name ``y`` bound by ``from m import x as y`` counts as
    ``x``.
    """
    uses = Uses()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                uses.names.add(aliases.get(node.id, node.id))
        elif isinstance(node, ast.Attribute):
            uses.attrs.add(node.attr)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, _FUNCTIONS):
            annotations.append(node.returns)
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _IMPORTS)
                     and not any(child is a for a in annotations))
    return uses


def _all_names(tree: ast.AST, strings: bool) -> set[str]:
    """Every name a root file mentions, imported names included."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, _IMPORTS):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value.strip(".:"))):
            names.update(re.split(r"[.:]", node.value.strip(".:")))
    return names


def scan(root: Path, package: str = "repro"
         ) -> tuple[list[Definition], Uses]:
    """Return the definitions of ``src/<package>`` and the roots' uses."""
    package_dir = root / "src" / package
    definitions: list[Definition] = []
    roots = Uses()
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parts = list(path.relative_to(package_dir.parent).with_suffix("").parts)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        relpath = path.relative_to(root).as_posix()
        aliases = {alias.asname: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        defs = [node for node in tree.body
                if isinstance(node, (*_FUNCTIONS, ast.ClassDef))]
        roots.update(_uses([node for node in tree.body
                            if node not in defs and not _is_docstring(node)
                            and not _binds_dunder_all(node)], aliases))
        for node in defs:
            outer = Definition(module, node.name, relpath, node.lineno)
            definitions.append(outer)
            if isinstance(node, _FUNCTIONS):
                outer.uses = _uses(node.decorator_list + [node.args]
                                   + node.body, aliases)
                continue
            class_level = node.decorator_list + node.bases + node.keywords
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    definitions.append(Definition(
                        module, f"{node.name}.{item.name}", relpath,
                        item.lineno, owner=outer.key,
                        uses=_uses(item.decorator_list + [item.args]
                                   + item.body, aliases)))
                elif not _is_docstring(item):
                    class_level.append(item)
            outer.uses = _uses(class_level, aliases)
    for directory in ROOT_DIRS:
        strings = directory in STRING_ROOT_DIRS
        for path in sorted((root / directory).rglob("*.py")):
            names = _all_names(ast.parse(path.read_text()), strings)
            roots.update(Uses(names, names))
    return definitions, roots


def reached_keys(definitions: list[Definition], roots: Uses,
                 entry_points=ENTRY_POINTS) -> set[str]:
    """Keys of the definitions reached from *roots* (a fixpoint)."""
    uses = Uses(set(roots.names), set(roots.attrs))
    reached: set[str] = set()
    pending = definitions
    changed = True
    while changed:
        changed = False
        waiting = []
        for definition in pending:
            name = definition.name
            if definition.owner is None:
                hit = name in uses.names or definition.key in entry_points
            else:
                hit = definition.owner in reached and (
                    (name.startswith("__") and name.endswith("__"))
                    or name in uses.attrs or name in uses.names)
            if hit:
                reached.add(definition.key)
                uses.update(definition.uses)
                changed = True
            else:
                waiting.append(definition)
        pending = waiting
    return reached


def check(root: Path, allowlist: dict[str, str] = ALLOWLIST,
          package: str = "repro", entry_points=ENTRY_POINTS) -> list[str]:
    """Problems of the tree at *root*, one line each; empty when clean.

    A method of an unreached class is not reported apart: it goes with its
    class.
    """
    definitions, roots = scan(root, package)
    reached = reached_keys(definitions, roots, entry_points)
    dead = [d for d in definitions if d.key not in reached]
    dead_keys = {d.key for d in dead}
    problems = [f"{d.path}:{d.line} {d.qualname}" for d in dead
                if d.key not in allowlist and d.owner not in dead_keys]
    existing = {d.key for d in definitions}
    for key in allowlist:
        if key not in existing:
            problems.append(f"stale allowlist entry {key}: no such definition")
        elif key not in dead_keys:
            problems.append(f"stale allowlist entry {key}: now reached")
    return problems


def main() -> int:
    problems = check(Path(__file__).resolve().parents[1])
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} reachability problem(s): delete each "
              "unreached definition (or call it from what a user runs), and "
              "drop each stale entry from ALLOWLIST in tests/reachability.py")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
