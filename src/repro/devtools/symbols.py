"""Project-wide symbol table for whole-program analysis.

The per-file rules see one module at a time; the flow rules
(:mod:`repro.devtools.rules_flow`) need to reason about the program as a
whole: which dotted name is defined where, what a re-exported alias really
binds to, and which modules an entry point transitively imports.

:class:`Project` indexes a set of parsed modules (usually everything under
``src/repro``) into three tables:

* ``modules`` — dotted module name -> :class:`ModuleInfo` (AST, import map,
  statically imported module names);
* ``functions`` — fully-qualified function/method name
  (``repro.sim.kernel.Simulator.run``) -> :class:`FunctionInfo`;
* ``classes`` — fully-qualified class name -> :class:`ClassInfo` with its
  method table and resolved project base classes.

:meth:`Project.resolve` follows import chains (``repro.obs.KernelTracer``
-> ``repro.obs.tracer.KernelTracer``) until it lands on a definition, and
:meth:`Project.import_closure` computes the set of project modules that
executing an entry module imports — including ancestor package
``__init__`` modules, which Python runs first.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.devtools.core import FileContext
from repro.devtools.imports import ImportMap


def module_name_for_path(path: Union[str, Path]) -> Optional[str]:
    """Dotted module name of ``path``, derived from ``__init__.py`` ancestry.

    ``src/repro/sim/kernel.py`` -> ``"repro.sim.kernel"``;
    ``src/repro/sim/__init__.py`` -> ``"repro.sim"``.  ``None`` for a file
    that is not inside a package (no enclosing ``__init__.py``).
    """
    resolved = Path(path).resolve()
    if resolved.name == "__init__.py":
        parts: List[str] = []
    elif (resolved.parent / "__init__.py").exists():
        parts = [resolved.stem]
    else:
        return None
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    if not parts:
        return None
    return ".".join(reversed(parts))


def statement_module_names(node: ast.AST, module_name: str,
                           is_package: bool) -> List[str]:
    """Module names one import statement in ``module_name`` brings in.

    For ``from pkg import name`` both ``pkg`` and ``pkg.name`` are
    candidates — ``name`` may be a submodule; non-module names are
    filtered out later by intersecting with the project's module table.
    Any other statement brings in nothing.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        base = node.module or ""
    else:
        # Relative import: level 1 is the containing package (a package
        # __init__ contains itself), each extra level walks one package up.
        parts = module_name.split(".")
        package_parts = parts if is_package else parts[:-1]
        prefix = package_parts[:len(package_parts) - (node.level - 1)]
        base = ".".join(prefix + ([node.module] if node.module else []))
    if not base:
        return []
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _imported_module_names(tree: ast.AST, module_name: str,
                           is_package: bool) -> Set[str]:
    """Every module name statically imported anywhere in ``tree``.

    Conservative on purpose: function-local and ``TYPE_CHECKING`` imports
    are included (they over-approximate what can execute).
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        names.update(statement_module_names(node, module_name, is_package))
    return names


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: Qualified name of the enclosing class, None for module-level defs.
    class_qualname: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class definition with its method table."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: method name -> function qualname (own methods only; see
    #: :meth:`Project.resolve_method` for inherited lookup).
    methods: Dict[str, str] = field(default_factory=dict)
    #: Base-class qualnames resolved to project classes (best effort).
    bases: List[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str
    path: str
    context: FileContext
    imports: ImportMap
    #: Module names this module statically imports (project and external).
    imported_modules: Set[str] = field(default_factory=set)

    @property
    def is_package(self) -> bool:
        """True for a package's ``__init__`` module."""
        return Path(self.path).name == "__init__.py"


class Project:
    """Symbol table and import resolver over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_contexts(cls, contexts: Iterable[FileContext]) -> "Project":
        """Index already-parsed modules (files outside packages are skipped)."""
        project = cls()
        for ctx in contexts:
            name = module_name_for_path(ctx.path)
            if name is None or name in project.modules:
                continue
            info = ModuleInfo(name=name, path=ctx.path, context=ctx,
                              imports=ImportMap.from_tree(ctx.tree))
            info.imported_modules = _imported_module_names(
                ctx.tree, name, info.is_package)
            project.modules[name] = info
        for info in sorted(project.modules.values(), key=lambda m: m.name):
            project._index_module(info)
        project._resolve_bases()
        return project

    def _index_module(self, info: ModuleInfo) -> None:
        assert isinstance(info.context.tree, ast.Module)
        for stmt in info.context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{info.name}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=info.name, node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        class_qualname = f"{info.name}.{node.name}"
        cls_info = ClassInfo(qualname=class_qualname, module=info.name,
                             node=node)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{class_qualname}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=info.name, node=stmt,
                    class_qualname=class_qualname)
                cls_info.methods[stmt.name] = qualname
        self.classes[class_qualname] = cls_info

    def _resolve_bases(self) -> None:
        for cls_info in self.classes.values():
            module = self.modules[cls_info.module]
            for base in cls_info.node.bases:
                parts = _dotted_parts(base)
                if parts is None:
                    continue
                root = module.imports.bindings.get(parts[0], None)
                if root is None:
                    # Unimported name: a class defined in the same module?
                    candidate = f"{cls_info.module}.{parts[0]}"
                    resolved = self.resolve(candidate) \
                        if len(parts) == 1 else None
                else:
                    resolved = self.resolve(".".join([root] + parts[1:]))
                if resolved is not None and resolved in self.classes:
                    cls_info.bases.append(resolved)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, path: Optional[str]) -> Optional[str]:
        """Follow re-export chains until ``path`` names a definition.

        Returns the qualified name of a function or class in this project,
        or ``None`` when the path leaves the project (stdlib, numpy, a
        dynamic attribute, ...).  Handles aliasing through any number of
        ``from x import y as z`` hops and attribute suffixes on re-exports
        (``repro.obs.KernelTracer.on_event``).
        """
        seen: Set[str] = set()
        while path is not None and path not in seen:
            seen.add(path)
            if path in self.functions or path in self.classes:
                return path
            # Method access on a resolvable class: C.m -> the method.
            prefix, _, attr = path.rpartition(".")
            if prefix in self.classes and attr:
                method = self.resolve_method(prefix, attr)
                if method is not None:
                    return method
                return None
            path = self._follow_binding(path)
        return None

    def _follow_binding(self, path: str) -> Optional[str]:
        """One re-export hop: substitute the longest module prefix's alias."""
        parts = path.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:cut])
            module = self.modules.get(module_name)
            if module is None:
                continue
            binding = module.imports.bindings.get(parts[cut])
            if binding is None:
                return None
            return ".".join([binding] + parts[cut + 1:])
        return None

    def resolve_method(self, class_qualname: str,
                       method: str) -> Optional[str]:
        """Qualified name of ``method`` on a class or its project bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls_info = self.classes.get(current)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method]
            stack.extend(cls_info.bases)
        return None

    def class_and_ancestors(self, class_qualname: str) -> List[str]:
        """The class and every resolvable project base, nearest first."""
        ordered: List[str] = []
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in ordered or current not in self.classes:
                continue
            ordered.append(current)
            stack.extend(self.classes[current].bases)
        return ordered

    def _with_ancestor_packages(self, name: str) -> List[str]:
        """``name`` plus every enclosing package present in the project."""
        parts = name.split(".")
        candidates = [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
        return [c for c in candidates if c in self.modules]

    def import_closure(self, entry_module: str) -> List[str]:
        """Project modules transitively imported by ``entry_module``, sorted.

        Importing ``a.b.c`` executes ``a`` and ``a.b`` first, so ancestor
        package ``__init__`` modules are always part of the closure.  The
        result over-approximates runtime behaviour (conditional and
        function-local imports count), which is what reachability wants:
        code that *could* run is code whose module body executes.
        """
        if entry_module not in self.modules:
            raise KeyError(f"module {entry_module!r} is not in the project")

        closure: Set[str] = set()
        stack = [entry_module]
        while stack:
            name = stack.pop()
            for member in self._with_ancestor_packages(name):
                if member in closure:
                    continue
                closure.add(member)
                stack.extend(imported for imported
                             in self.modules[member].imported_modules
                             if imported not in closure)
        return sorted(closure)


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """Name/attribute chain as parts, None for anything more dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts
