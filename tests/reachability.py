"""Which definitions and options of ``src/repro`` does anything a user run
reach?

A definition stays in ``src/`` only if something a user runs reaches it: a
CLI command, a runner matrix, an example, a paper-figure experiment or
perfbench.  So does an option, a parameter with a default: it stays only if
something a user runs passes it.  This check works both out with the
standard library's ``ast`` alone, so it runs in seconds with no package
installed::

    python tests/reachability.py

It prints each unreached definition that :data:`ALLOWLIST` does not name as
``path:line name``, each unreached option that :data:`OPTION_ALLOWLIST` does
not name as ``path:line name(option=)``, and each stale allowlist entry, and
exits 1 if there is any.  On a clean tree it prints one line: the number of
defaulted parameters in ``src/``.  ``tests/unit/test_reachability.py`` runs
the same :func:`check` in tier-1.

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

The option rule covers the defaulted parameters of every reached function
and method, ``__init__`` included; other dunder methods run through syntax,
not calls, so their options are out of its scope, and so are closures and
lambdas (which bind loop variables through defaults), dataclass fields and
module constants.  An option is reached when a call in reached code (a
reached body, module-level code or a root directory) whose callee has the
definition's name passes it, by keyword or by position.  A call of a class
by its name, or of ``cls`` inside one of its methods, calls the ``__init__``
of the class and of its bases; positions count from the first parameter
after ``self`` (one further for a method, so an unbound ``Class.method(obj,
...)`` call is covered too).  Every option of a definition is reached when
a call of its name unpacks ``*``/``**`` arguments, or when its name is used
as a value rather than called: stored in a registry, handed to ``JobSpec``,
``build_matrix`` or ``set_defaults(func=...)``, passed as a callback.  Like
definitions, options match by name, so the rule can miss a dead option but
never calls a live one dead.

Both allowlists can only shrink: an entry that is now reached, or whose
definition or option no longer exists, is stale and fails the check.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Unreached definitions that stay, ``"module:qualname" -> reason``.
ALLOWLIST = {
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

#: Unreached options that stay, ``"module:qualname(option=)" -> reason``.
OPTION_ALLOWLIST = {
    "repro.queueing.simulator:Simulator.__init__(max_events=)": (
        "feeds HealthMonitor.check_event_budget, which perfbench/tracer.py "
        "wraps by name; without it that check is never called"),
    "repro.queueing.multihop:MultiHopSimulator.__init__(max_events=)": (
        "feeds HealthMonitor.check_event_budget, which perfbench/tracer.py "
        "wraps by name; without it that check is never called"),
    "repro.stochastic.ensemble:run_ensemble(feedback_delay=)": (
        "the delayed Langevin path the ROADMAP keeps (Section 7 ensembles)"),
    "repro.runner.cache:ResultCache.prune(now=)": (
        "test hook: test_runner.py prunes at a fixed clock instead of "
        "sleeping past real entry ages"),
    "repro.runner.executor:run_jobs(retry_policy=)": (
        "test hook: test_runner_faults.py exhausts a one-crash budget "
        "(RetryPolicy(max_crashes=1)) under a worker-kill plan"),
    "repro.queueing.random_streams:RandomStreams.jitter_factors(block_size=)": (
        "test hook: test_event_engine.py and test_queueing_primitives.py "
        "refill the jitter buffer across small block boundaries"),
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
class Passes:
    """What the calls of one name pass: the most positional arguments of
    any call, every keyword, and whether any call unpacks ``*``/``**``."""

    positional: int = 0
    keywords: set[str] = field(default_factory=set)
    unpacked: bool = False

    def update(self, other: "Passes") -> None:
        self.positional = max(self.positional, other.positional)
        self.keywords |= other.keywords
        self.unpacked = self.unpacked or other.unpacked


@dataclass
class Uses:
    """Bare names and attribute names that some code uses, what its calls
    pass by callee name, and the names it uses as values (not called)."""

    names: set[str] = field(default_factory=set)
    attrs: set[str] = field(default_factory=set)
    calls: dict[str, Passes] = field(default_factory=dict)
    values: set[str] = field(default_factory=set)

    def update(self, other: "Uses") -> None:
        self.names |= other.names
        self.attrs |= other.attrs
        for name, passes in other.calls.items():
            self.calls.setdefault(name, Passes()).update(passes)
        self.values |= other.values


@dataclass
class Option:
    """One defaulted parameter of a function or method."""

    name: str
    line: int
    position: int | None  # among the positional parameters; None: keyword-only


@dataclass
class Definition:
    """One top-level function or class, or one method of such a class."""

    module: str
    qualname: str
    path: str
    line: int
    owner: str | None = None  # the class's key, for a method
    uses: Uses = field(default_factory=Uses, repr=False)
    options: list[Option] = field(default_factory=list, repr=False)
    bases: list[str] = field(default_factory=list, repr=False)  # of a class

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


def _callee(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _callees(func: ast.AST, bases) -> list[str]:
    """The names a call of *func* calls by: ``super().__init__`` and
    ``Base.__init__`` call the base classes' constructors."""
    if isinstance(func, ast.Attribute) and func.attr == "__init__":
        if (isinstance(func.value, ast.Call)
                and _callee(func.value.func) == "super"):
            return list(bases)
        return [_callee(func.value) or func.attr]
    name = _callee(func)
    return [] if name is None else [name]


def _uses(nodes, aliases: dict[str, str], bases=()) -> Uses:
    """What *nodes* use, leaving out imports, annotations and stores.

    A use of the name ``y`` bound by ``from m import x as y`` counts as
    ``x``.  *bases* are the bases of the class whose method *nodes* are.
    """
    uses = Uses()
    # Called functions and the ``x`` of ``x.attr`` are used, but not as
    # values: nothing can call them with other arguments.
    not_values: set[int] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            not_values.add(id(node.func))
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            passes = Passes(len(plain),
                            {k.arg for k in node.keywords if k.arg},
                            len(plain) < len(node.args)
                            or any(k.arg is None for k in node.keywords))
            for name in _callees(node.func, bases):
                uses.calls.setdefault(aliases.get(name, name),
                                      Passes()).update(passes)
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                name = aliases.get(node.id, node.id)
                uses.names.add(name)
                if id(node) not in not_values:
                    uses.values.add(name)
        elif isinstance(node, ast.Attribute):
            uses.attrs.add(node.attr)
            not_values.add(id(node.value))
            if id(node) not in not_values and isinstance(node.ctx, ast.Load):
                uses.values.add(node.attr)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, _FUNCTIONS):
            annotations.append(node.returns)
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _IMPORTS)
                     and not any(child is a for a in annotations))
    return uses


def _options(node: ast.AST) -> list[Option]:
    """The defaulted parameters of a function definition."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    options = [Option(arg.arg, arg.lineno, index)
               for index, arg in enumerate(positional) if index >= first]
    options += [Option(arg.arg, arg.lineno, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults,
                                        strict=True)
                if default is not None]
    return options


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
                outer.options = _options(node)
                continue
            outer.bases = [name for name in map(_callee, node.bases) if name]
            # Inside its methods, ``cls(...)`` constructs the class.
            in_class = {**aliases, "cls": node.name}
            class_level = node.decorator_list + node.keywords
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    definitions.append(Definition(
                        module, f"{node.name}.{item.name}", relpath,
                        item.lineno, owner=outer.key,
                        uses=_uses(item.decorator_list + [item.args]
                                   + item.body, in_class, outer.bases),
                        options=_options(item)))
                elif not _is_docstring(item):
                    class_level.append(item)
            outer.uses = _uses(class_level, aliases)
            # A base is reached, but naming it in ``class C(Base)`` hands
            # it to no caller: C's constructor calls reach Base's options.
            bases = _uses(node.bases, aliases)
            outer.uses.update(Uses(bases.names, bases.attrs, bases.calls))
    for directory in ROOT_DIRS:
        strings = directory in STRING_ROOT_DIRS
        for path in sorted((root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = _all_names(tree, strings)
            uses = _uses([tree], {})
            roots.update(Uses(names, names, uses.calls, uses.values))
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
                    _is_dunder(name) or name in uses.attrs
                    or name in uses.names)
            if hit:
                reached.add(definition.key)
                uses.update(definition.uses)
                changed = True
            else:
                waiting.append(definition)
        pending = waiting
    return reached


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached_options(definitions: list[Definition], roots: Uses,
                      reached: set[str]
                      ) -> list[tuple[Definition, Option]]:
    """The options of reached definitions that no reached call passes."""
    uses = Uses()
    uses.update(roots)
    for definition in definitions:
        if definition.key in reached:
            uses.update(definition.uses)
    classes = {d.key: d for d in definitions if d.owner is None}
    subclasses: dict[str, set[str]] = {}
    for cls in classes.values():
        for base in cls.bases:
            subclasses.setdefault(base, set()).add(cls.name)
    unreached = []
    for definition in definitions:
        name = definition.name
        if definition.key not in reached or not definition.options:
            continue
        if definition.owner is None:
            callees, shift = {name}, 0
        elif name == "__init__":
            # The class's own name, and every subclass's, calls it.
            callees, pending = {name}, [classes[definition.owner].name]
            while pending:
                current = pending.pop()
                if current not in callees:
                    callees.add(current)
                    pending.extend(subclasses.get(current, ()))
            shift = 1
        elif _is_dunder(name):
            continue
        else:
            callees, shift = {name}, 1
        if callees & uses.values:
            continue
        passes = Passes()
        for callee in callees & uses.calls.keys():
            passes.update(uses.calls[callee])
        if passes.unpacked:
            continue
        for option in definition.options:
            by_position = (option.position is not None
                           and option.position < passes.positional + shift)
            if option.name not in passes.keywords and not by_position:
                unreached.append((definition, option))
    return unreached


def count_options(definitions: list[Definition]) -> int:
    """The number of defaulted parameters of the definitions."""
    return sum(len(d.options) for d in definitions)


def check(root: Path, allowlist: dict[str, str] = ALLOWLIST,
          package: str = "repro", entry_points=ENTRY_POINTS,
          option_allowlist: dict[str, str] = OPTION_ALLOWLIST) -> list[str]:
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
    unreached = {f"{d.key}({o.name}=)": (d, o)
                 for d, o in unreached_options(definitions, roots, reached)}
    problems += [f"{d.path}:{o.line} {d.qualname}({o.name}=)"
                 for key, (d, o) in unreached.items()
                 if key not in option_allowlist]
    options = {f"{d.key}({o.name}=)" for d in definitions for o in d.options}
    for key in option_allowlist:
        if key not in options:
            problems.append(f"stale option allowlist entry {key}: "
                            "no such option")
        elif key not in unreached:
            problems.append(f"stale option allowlist entry {key}: "
                            "now passed, or its definition unreached")
    return problems


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    problems = check(root)
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} reachability problem(s): delete each "
              "unreached definition or option (or use it from what a user "
              "runs), and drop each stale entry from ALLOWLIST or "
              "OPTION_ALLOWLIST in tests/reachability.py")
        return 1
    print(f"{count_options(scan(root)[0])} defaulted parameters in src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
