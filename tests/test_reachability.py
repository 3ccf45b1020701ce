"""Every public symbol in ``src/repro`` has a user.

A symbol is a top-level name of a module, or a public method or property
of a top-level class (dunders excluded).  A user is a reference that
survives outside the test suite:

* code under ``examples/``, ``benchmarks/`` or ``perfbench/``;
* a code span or code block in README.md, DESIGN.md or EXPERIMENTS.md;
* a ``[project.scripts]`` target in ``pyproject.toml``;
* a class or function registered as an audit rule by decorator;
* a method of a class whose standard-library base calls it by name (an
  ``asyncio.DatagramProtocol`` callback, an ``ast.NodeVisitor`` visitor);
* module-level statements of ``src/repro`` that are not definitions;
* and, transitively, the body of any ``src/repro`` definition that is
  itself reached.

References are matched by name: a ``Name``, an ``Attribute``'s attribute,
or an identifier-shaped string constant (``"repro.units.bps_to_mbps"``,
``"build_scenario"``), which is how perfbench and the lint tables point at
code.  Imports, ``__all__`` entries and docstrings are not references, so
a package ``__init__`` re-export alone keeps nothing alive.  A reached
class brings its bases, decorators, class-level statements and dunder
methods along, but each other method's body counts only once the
method's own name is reached.  Tests are not users either: a symbol only
tests reach belongs under ``tests/``.

A package ``__init__.py`` re-exports nothing: it defines no ``__all__``
and imports only names its own body uses, so each name has one import
path, the module that defines it.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parent.parent
USER_DIRS = ("examples", "benchmarks", "perfbench")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
RULE_DECORATORS = {"register", "register_project"}
#: Standard-library bases that call a subclass's methods by name: asyncio
#: calls a protocol's callbacks, ``ast.NodeVisitor.visit`` its visitors.
FRAMEWORK_BASES = {"DatagramProtocol", "NodeVisitor"}

#: Symbols kept without a user, each with its reason.
EXEMPT: Dict[str, str] = {
    "repro.analysis.lindley.lindley_waits_loop":
        "the loop reference test_lindley checks lindley_waits against",
    "repro.queueing.mdk1.md1_mean_wait":
        "the M/D/1 oracle of test_md1_wait_matches_simulated_link",
    "repro.netdyn.trace.ProbeTrace.load_csv":
        "reads back the trace CSVs campaigns and --save-trace write; "
        "ROADMAP item 14 fuzzes it",
    "repro.obs.lifecycle.PacketLifecycleTracer.fate":
        "a packet's fate from the hop records; ROADMAP item 13 keeps it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:[.:][A-Za-z_][A-Za-z0-9_]*)*")
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
_SCRIPT = re.compile(r"\"(repro[\w.]*):(\w+)\"")

Definition = Tuple[str, str]  # (module, symbol or Class.member)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _names(node: ast.AST) -> Iterator[str]:
    """Every name ``node`` refers to, imports and docstrings excluded."""
    docstrings = {id(stmt.value) for stmt in ast.walk(node)
                  if isinstance(stmt, ast.Expr)
                  and isinstance(stmt.value, ast.Constant)}
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and id(child) not in docstrings
              and _DOTTED.fullmatch(child.value)):
            yield from re.split(r"[.:]", child.value)


def _defined_names(stmt: ast.stmt) -> List[str]:
    """The top-level names ``stmt`` defines, or [] for any other statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    if targets and all(isinstance(t, ast.Name) for t in targets):
        return [t.id for t in targets]  # type: ignore[attr-defined]
    return []


def _is_member(stmt: ast.stmt) -> bool:
    """True for a method or property of a class body, dunders excluded."""
    return (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__") and stmt.name.endswith("__")))


def _shell(stmt: ast.stmt) -> List[ast.AST]:
    """What reaching ``stmt`` walks: a class without its members' bodies."""
    if not isinstance(stmt, ast.ClassDef):
        return [stmt]
    return [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
            *(child for child in stmt.body if not _is_member(child))]


def _is_dispatched(stmt: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Attribute) and base.attr in FRAMEWORK_BASES
               for base in stmt.bases)


def _is_registered_rule(stmt: ast.stmt) -> bool:
    decorators = getattr(stmt, "decorator_list", [])
    return any(isinstance(d, ast.Name) and d.id in RULE_DECORATORS
               for d in decorators)


@functools.lru_cache(maxsize=None)
def scan(kept: FrozenSet[str] = frozenset(),
         ) -> Tuple[Set[Definition], Set[Definition]]:
    """Return ``(public, reached)`` definitions of ``src/repro``.

    The bodies of the ``kept`` definitions (dotted names) are walked as
    roots, so what an exempt symbol uses stays reached.
    """
    bodies: Dict[str, List[Tuple[Definition, List[ast.AST]]]] = {}
    roots: List[ast.AST] = []
    root_names: Set[str] = set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = _defined_names(stmt)
            if names == ["__all__"]:
                continue
            if not names:
                roots.append(stmt)
            elif _is_registered_rule(stmt):
                root_names.update(names)
            for name in names:
                bodies.setdefault(name, []).append(((module, name),
                                                    _shell(stmt)))
            if not isinstance(stmt, ast.ClassDef):
                continue
            for member in filter(_is_member, stmt.body):
                bodies.setdefault(member.name, []).append(
                    ((module, f"{stmt.name}.{member.name}"), [member]))
                if _is_dispatched(stmt):
                    root_names.add(member.name)
    for directory in USER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            roots.append(ast.parse(path.read_text(encoding="utf-8")))
    for doc in DOCS:
        for span in _CODE.findall((REPO_ROOT / doc).read_text(encoding="utf-8")):
            root_names.update(_IDENTIFIER.findall(span))
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    root_names.update(name for _, name in _SCRIPT.findall(pyproject))

    reached: Set[Definition] = set()
    seen: Set[str] = set()
    pending = list(root_names)
    for entries in bodies.values():
        for definition, nodes in entries:
            if _dotted([definition])[0] in kept:
                for node in nodes:
                    pending.extend(_names(node))
    for node in roots:
        pending.extend(_names(node))
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for definition, nodes in bodies.get(name, ()):
            reached.add(definition)
            for node in nodes:
                pending.extend(_names(node))
    public = {definition for entries in bodies.values()
              for definition, _ in entries
              if not any(part.startswith("_")
                         for part in definition[1].split("."))}
    return public, reached


def _dotted(definitions: Iterable[Definition]) -> List[str]:
    return sorted(f"{module}.{name}" for module, name in definitions)


def test_every_public_symbol_has_a_user():
    public, reached = scan(frozenset(EXEMPT))
    unused = [name for name in _dotted(public - reached) if name not in EXEMPT]
    assert not unused, (
        "public symbols no user reaches (delete them, move them under "
        "tests/, or add them to EXEMPT with a reason):\n  "
        + "\n  ".join(unused))


def test_every_exemption_is_still_needed():
    public, reached = scan()
    unused = set(_dotted(public - reached))
    stale = sorted(name for name in EXEMPT if name not in unused)
    assert not stale, f"EXEMPT entries that exist and have a user, or are " \
                      f"gone: {stale}"


def _bound_names(node: ast.AST) -> Iterator[str]:
    """The names an import statement binds (``*`` for a star import)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]


def test_package_inits_re_export_nothing():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("__init__.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {name for node in ast.walk(tree)
                    for name in _bound_names(node)}
        module = _module_name(path)
        used: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names = set(_names(stmt))
            if "__all__" in names:  # its strings would read as uses
                offenders.append(f"{module}: defines __all__")
            else:
                used |= names
        offenders.extend(f"{module}: imports {name} and never uses it"
                         for name in sorted(imported - used))
    assert not offenders, (
        "package __init__ files re-export (import each name from the "
        "module that defines it):\n  " + "\n  ".join(offenders))
