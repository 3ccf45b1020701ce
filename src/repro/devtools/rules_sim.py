"""Simulator-encapsulation rule: SIM001.

The kernel's invariants (clock monotonicity, heap ordering, lazy
cancellation) only hold if outside code goes through the public API
(``sim.now``, ``schedule``, ``call_at``, ``pending_events``, ``streams``).
Reaching into ``sim._now`` or ``queue._heap`` from a component silently
couples it to kernel internals and lets it corrupt them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.core import FileContext, Finding, Rule, register

#: Private attributes of Simulator / EventQueue / RandomStreams.
_KERNEL_PRIVATE_ATTRS = frozenset({
    "_now",
    "_queue",
    "_running",
    "_stopped",
    "_events_executed",
    "_heap",
    "_counter",
    "_streams",
    "_seed",
})


@register
class KernelPrivateAccessRule(Rule):
    """SIM001: no private Simulator/EventQueue state access outside repro.sim."""

    rule_id = "SIM001"
    summary = ("private kernel state (`._now`, `._queue`, `._heap`, ...) may "
               "only be touched inside repro.sim; use the public API")
    # The kernel may touch its own internals.
    exempt_suffixes = (
        "repro/sim/kernel.py",
        "repro/sim/events.py",
        "repro/sim/random.py",
        "repro/sim/monitor.py",
        "repro/sim/__init__.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _KERNEL_PRIVATE_ATTRS:
                continue
            # A class touching *its own* same-named private attribute via
            # ``self``/``cls`` is unrelated to the kernel.
            if isinstance(node.value, ast.Name) and node.value.id in ("self",
                                                                     "cls"):
                continue
            yield ctx.finding(
                self, node,
                f"access to private kernel state `.{node.attr}`; use the "
                f"public Simulator API (now, schedule, call_at, "
                f"pending_events, streams)")
