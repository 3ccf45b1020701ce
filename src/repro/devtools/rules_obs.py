"""Observability rules: OBS001 (no ``print``), OBS002 (kernel telemetry).

Library modules must report through return values, the metrics registry, or
the tracers (:mod:`repro.obs`) — never by writing to stdout, which corrupts
machine-readable CLI output and is invisible to campaign manifests.  The
only sanctioned print sites are the CLI front-ends (``repro/cli.py``, the
audit tool's reporter) and the ASCII plotting package, whose entire job is
terminal output.

``OBS002`` guards the other direction of the telemetry boundary: the
campaign-level telemetry (:mod:`repro.obs.spans`,
:mod:`repro.obs.progress`, :mod:`repro.obs.bench`) instruments the code
*around* the simulation — ``_run_cell`` emits spans, ``run_campaign``
drives progress — but the simulation kernel itself must never see it.
Code on the ``Simulator.run`` call graph importing a telemetry module
would let wall-clock observation creep into the simulated path, the exact
coupling the zero-perturbation invariant (DESIGN.md) forbids.  Unlike
FLOW001 this rule bans the *import*, not just calls: a telemetry module
in scope on the hot path is one refactor away from being consulted.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, Iterator, Tuple

from repro.devtools.callgraph import CallGraph
from repro.devtools.core import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    register,
    register_project,
)
from repro.devtools.symbols import Project, statement_module_names


@register
class NoPrintRule(Rule):
    """OBS001: ``print()`` calls are banned outside the CLI/plotting."""

    rule_id = "OBS001"
    summary = ("print() is banned in library code; use return values, "
               "repro.obs metrics, or tracers (CLI and plotting exempt)")
    exempt_suffixes = ("repro/cli.py", "repro/devtools/audit.py")

    def applies_to(self, path: str) -> bool:
        posix = PurePath(path).as_posix()
        if "/plotting/" in posix or posix.endswith("/plotting"):
            return False
        return super().applies_to(path)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield ctx.finding(
                    self, node,
                    "print() in library code; return data or register an "
                    "observability instrument instead")


#: The simulation kernel's entry point.  Narrower than FLOW001's
#: KERNEL_ROOTS on purpose: ``_run_cell`` legitimately *emits* spans
#: around the simulation; only the simulation itself is off-limits.
SIMULATOR_ROOTS: Tuple[str, ...] = ("repro.sim.kernel.Simulator.run",)

#: Module subtrees banned on the simulator call graph: telemetry, plus
#: orchestration plumbing (lease serving and the warm-pool transport) —
#: the kernel computes results, it never dispatches or ships them.
TELEMETRY_MODULES: Tuple[str, ...] = (
    "repro.obs.spans",
    "repro.obs.progress",
    "repro.obs.bench",
    "repro.experiments.pool",
)


def _is_telemetry(module_name: str) -> bool:
    return any(module_name == banned
               or module_name.startswith(banned + ".")
               for banned in TELEMETRY_MODULES)


@register_project
class KernelTelemetryImportRule(ProjectRule):
    """OBS002: telemetry modules must stay off the simulator call graph."""

    rule_id = "OBS002"
    summary = ("repro.obs.spans/progress/bench must not be imported by "
               "code on the Simulator.run call graph; telemetry wraps "
               "the simulation, it never runs inside it")

    def check_project(self, project: Project) -> Iterator[Finding]:
        # The root's *import closure* over-approximates (a module imports
        # much that the kernel never executes), so unlike FLOW001
        # this walks the unseeded call graph: only modules whose code the
        # kernel actually executes are checked.
        graph = CallGraph(project)
        present = [root for root in SIMULATOR_ROOTS if root in graph.units]
        if not present:
            return
        reach = graph.reachable_from(present, seed_import_closure=False)
        first_unit: Dict[str, str] = {}
        for unit_name in reach.units():
            module = graph.units[unit_name].module
            first_unit.setdefault(module, unit_name)
        for module_name in sorted(first_unit):
            module = project.modules[module_name]
            if _is_telemetry(module_name):
                continue  # telemetry importing telemetry is its business
            if not self.applies_to(module.path):
                continue
            via = " -> ".join(reach.chain(first_unit[module_name]))
            for node in ast.walk(module.context.tree):
                for target in statement_module_names(
                        node, module_name, module.is_package):
                    if not _is_telemetry(target) \
                            or target not in project.modules:
                        continue
                    yield module.context.finding(
                        self, node,
                        f"`{target}` imported in `{module_name}`, whose "
                        f"code runs on the simulation kernel's call graph "
                        f"(via {via}); telemetry must instrument the "
                        f"campaign around the simulation, never the "
                        f"kernel itself")
                    break  # one finding per import statement
