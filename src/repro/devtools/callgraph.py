"""Call graph and interprocedural reachability over a :class:`Project`.

Static Python call resolution is necessarily approximate; this module errs
on the side of *over*-approximation (rapid-type-analysis style), which is
the safe direction for its consumers, the reachability rules: FLOW001 and
FLOW002 must not miss a stochastic call hiding behind a callback, and
OBS002 must not miss a telemetry import on the kernel's call graph.

Three kinds of edges are extracted from every analyzable unit (a function,
a method, or a module body):

* **direct calls** — ``run_experiment(cfg)`` resolved through the import
  map and re-export chains to a project function;
* **references** — ``sim.call_at(t, self._emit)`` passes ``self._emit`` as
  a callback, so a bare reference to a project function counts as a
  potential call (this is how event-driven code is reached);
* **dynamic method calls** — ``obj.run()`` with an unknown receiver is
  resolved against every *live* class (one whose constructor or definition
  is reachable) that defines ``run``, iterating to a fixed point.

Module bodies are units too: importing a module executes its top-level
statements (and class bodies), so reachability from a function seeds the
module bodies of its module's import closure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.imports import (
    ImportMap,
    attribute_chain,
    resolve_call_path,
)
from repro.devtools.symbols import Project

#: Qualname prefix marking a module-body pseudo-unit.
MODULE_UNIT_SUFFIX = ".<module>"


def module_unit(module_name: str) -> str:
    """Unit name of a module's top-level body."""
    return module_name + MODULE_UNIT_SUFFIX


@dataclass
class Unit:
    """One analyzable body of code: a function, method, or module body."""

    qualname: str
    module: str
    #: AST nodes whose subtrees make up the unit's executable body.
    body: List[ast.AST]
    #: Enclosing class qualname for methods (resolves ``self.x``).
    class_qualname: Optional[str] = None

    def walk(self) -> Iterator[ast.AST]:
        for node in self.body:
            yield from ast.walk(node)


@dataclass
class UnitEdges:
    """Raw edges extracted from one unit, before liveness resolution."""

    #: Resolved project functions called or referenced.
    targets: Set[str] = field(default_factory=set)
    #: Resolved project classes instantiated or referenced.
    classes: Set[str] = field(default_factory=set)
    #: Method names invoked on receivers of unknown type.
    dynamic_names: Set[str] = field(default_factory=set)


def _module_body_nodes(tree: ast.Module) -> List[ast.AST]:
    """Top-level nodes that execute at import time.

    Function bodies are excluded (they are their own units) but their
    decorators and default expressions run at import, as do class bodies
    (again minus method bodies, plus method decorators/defaults).
    """
    nodes: List[ast.AST] = []

    def add_statements(statements: Sequence[ast.stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nodes.extend(stmt.decorator_list)
                nodes.extend(stmt.args.defaults)
                nodes.extend(d for d in stmt.args.kw_defaults
                             if d is not None)
            elif isinstance(stmt, ast.ClassDef):
                nodes.extend(stmt.decorator_list)
                nodes.extend(stmt.bases)
                nodes.extend(kw.value for kw in stmt.keywords)
                add_statements(stmt.body)
            else:
                nodes.append(stmt)

    add_statements(tree.body)
    return nodes


class CallGraph:
    """Edges and reachability queries over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.units: Dict[str, Unit] = {}
        self._edges_cache: Dict[str, UnitEdges] = {}
        for info in project.functions.values():
            self.units[info.qualname] = Unit(
                qualname=info.qualname, module=info.module,
                body=list(info.node.body), class_qualname=info.class_qualname)
        for module in project.modules.values():
            assert isinstance(module.context.tree, ast.Module)
            self.units[module_unit(module.name)] = Unit(
                qualname=module_unit(module.name), module=module.name,
                body=_module_body_nodes(module.context.tree))

    # ------------------------------------------------------------------
    def edges_of(self, unit_name: str) -> UnitEdges:
        """Extract (and cache) the raw edges of one unit."""
        cached = self._edges_cache.get(unit_name)
        if cached is not None:
            return cached
        unit = self.units[unit_name]
        module = self.project.modules[unit.module]
        edges = UnitEdges()
        call_funcs: Set[int] = set()
        for node in unit.walk():
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                self._record_call(unit, node, module.imports, edges)
        # Second pass: bare references (names/attributes not in call
        # position) to project functions or classes — callbacks, aliases,
        # class objects stored for later instantiation.
        for node in unit.walk():
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            if id(node) in call_funcs:
                continue
            self._record_reference(unit, node, module.imports, edges)
        self._edges_cache[unit_name] = edges
        return edges

    def _record_call(self, unit: Unit, node: ast.Call,
                     imports: ImportMap, edges: UnitEdges) -> None:
        func = node.func
        # self.method() / cls.method() inside a class body.
        if (unit.class_qualname is not None
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")):
            resolved = self.project.resolve_method(unit.class_qualname,
                                                   func.attr)
            if resolved is not None:
                edges.targets.add(resolved)
            return
        resolved = self._resolve_in_module(func, unit.module, imports)
        if resolved is not None:
            if resolved in self.project.classes:
                edges.classes.add(resolved)
            else:
                edges.targets.add(resolved)
            return
        if isinstance(func, ast.Attribute):
            # Unknown receiver: match by method name against live classes.
            edges.dynamic_names.add(func.attr)

    def _record_reference(self, unit: Unit, node: ast.AST,
                          imports: ImportMap, edges: UnitEdges) -> None:
        if (unit.class_qualname is not None
                and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            resolved = self.project.resolve_method(unit.class_qualname,
                                                   node.attr)
            if resolved is not None:
                edges.targets.add(resolved)
            return
        resolved = self._resolve_in_module(node, unit.module, imports)
        if resolved is None:
            return
        if resolved in self.project.classes:
            edges.classes.add(resolved)
        else:
            edges.targets.add(resolved)

    def resolve_call(self, node: ast.AST, module: str) -> Optional[str]:
        """Resolve a call/reference expression as seen from ``module``.

        Public entry point for rules that need resolution without edge
        extraction.  Returns a project function/class qualname or ``None``.
        """
        info = self.project.modules.get(module)
        if info is None:
            return None
        return self._resolve_in_module(node, module, info.imports)

    def _resolve_in_module(self, node: ast.AST, module: str,
                           imports: ImportMap) -> Optional[str]:
        """Resolve a name/attribute chain seen from inside ``module``.

        Tries the import map first (aliases, re-exports), then falls back
        to a definition in the module itself — ``helper()`` with no import
        binding is a same-module call.
        """
        chain = attribute_chain(node)
        if chain is None:
            return None
        resolved = self.project.resolve(resolve_call_path(node, imports))
        if resolved is not None:
            return resolved
        if chain[0] in imports.bindings:
            return None  # imported but resolved outside the project
        return self.project.resolve(".".join([module] + chain))

    # ------------------------------------------------------------------
    def reachable_from(self, roots: Sequence[str],
                       seed_import_closure: bool = True) -> "ReachableSet":
        """Every unit reachable from ``roots`` (function or unit names).

        With ``seed_import_closure`` (the default), the module bodies of
        each root module's import closure are reachable too — running any
        function first imports its module, which executes those bodies.
        """
        parents: Dict[str, Optional[str]] = {}
        worklist: List[str] = []

        def enqueue(unit_name: str, parent: Optional[str]) -> None:
            if unit_name in parents or unit_name not in self.units:
                return
            parents[unit_name] = parent
            worklist.append(unit_name)

        root_units = []
        for root in roots:
            if root in self.units:
                root_units.append(root)
            elif root in self.project.modules:
                root_units.append(module_unit(root))
            else:
                raise KeyError(f"unknown call-graph root {root!r}")
        for unit_name in root_units:
            enqueue(unit_name, None)
        if seed_import_closure:
            for unit_name in root_units:
                module = self.units[unit_name].module
                for name in self.project.import_closure(module):
                    enqueue(module_unit(name), unit_name)

        live_classes: Set[str] = set()
        pending_dynamic: Set[str] = set()

        def enliven(class_qualname: str, parent: str) -> None:
            for member in self.project.class_and_ancestors(class_qualname):
                if member in live_classes:
                    continue
                live_classes.add(member)
                methods = self.project.classes[member].methods
                if "__init__" in methods:
                    enqueue(methods["__init__"], parent)
                for name, qualname in methods.items():
                    if name in pending_dynamic:
                        enqueue(qualname, parent)

        while worklist:
            unit_name = worklist.pop()
            edges = self.edges_of(unit_name)
            for target in edges.targets:
                enqueue(target, unit_name)
            for class_qualname in edges.classes:
                enliven(class_qualname, unit_name)
            for name in edges.dynamic_names:
                if name in pending_dynamic:
                    continue
                pending_dynamic.add(name)
                for class_qualname in sorted(live_classes):
                    methods = self.project.classes[class_qualname].methods
                    if name in methods:
                        enqueue(methods[name], unit_name)

        return ReachableSet(graph=self, parents=parents,
                            live_classes=live_classes)


@dataclass
class ReachableSet:
    """Result of one reachability query, with provenance."""

    graph: CallGraph
    #: unit name -> the unit it was first reached from (None for roots).
    parents: Dict[str, Optional[str]]
    live_classes: Set[str]

    def __contains__(self, unit_name: str) -> bool:
        return unit_name in self.parents

    def units(self) -> List[str]:
        """Every reachable unit name, sorted."""
        return sorted(self.parents)

    def chain(self, unit_name: str) -> List[str]:
        """Root-to-unit provenance path explaining why a unit is reachable."""
        path: List[str] = []
        current: Optional[str] = unit_name
        while current is not None:
            path.append(current)
            current = self.parents.get(current)
        path.reverse()
        return path



def kernel_reachable(project: Project,
                     roots: Sequence[str]) -> Optional[Tuple[CallGraph,
                                                             ReachableSet]]:
    """Build the graph and compute reachability, if any root exists.

    Returns ``None`` when none of ``roots`` is present in the project —
    e.g. when auditing a partial tree or test fixtures — so callers can
    skip whole-program rules gracefully.
    """
    graph = CallGraph(project)
    present = [root for root in roots
               if root in graph.units or root in project.modules]
    if not present:
        return None
    return graph, graph.reachable_from(present)
