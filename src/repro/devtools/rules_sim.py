"""Simulator-encapsulation rule: SIM001.

The kernel's invariants (clock monotonicity, heap ordering, unique
sequence numbers) only hold if outside code goes through the public API
(``sim.now``, ``schedule``, ``call_at``, ``pending_events``, ``streams``).
Reaching into ``sim._heap`` or ``sim._counter`` from a component silently
couples it to kernel internals and lets it corrupt them.  The clock
``sim.now`` is a plain attribute so the hot path reads it without a
property call; only the run loop may write it, so a store to (or delete
of) ``.now`` outside ``repro.sim`` is flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.core import FileContext, Finding, Rule, register

#: Private attributes of Simulator / RandomStreams.
_KERNEL_PRIVATE_ATTRS = frozenset({
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
    """SIM001: no private kernel state access or clock store outside repro.sim."""

    rule_id = "SIM001"
    summary = ("private kernel state (`._heap`, `._counter`, ...) may only be "
               "touched, and the clock `.now` only written, inside "
               "repro.sim; use the public API")
    # The kernel may touch its own internals.
    exempt_suffixes = (
        "repro/sim/kernel.py",
        "repro/sim/random.py",
        "repro/sim/__init__.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            private = node.attr in _KERNEL_PRIVATE_ATTRS
            clock_store = node.attr == "now" and isinstance(
                node.ctx, (ast.Store, ast.Del))
            if not (private or clock_store):
                continue
            # A class touching *its own* same-named attribute via
            # ``self``/``cls`` is unrelated to the kernel.
            if isinstance(node.value, ast.Name) and node.value.id in ("self",
                                                                     "cls"):
                continue
            if private:
                yield ctx.finding(
                    self, node,
                    f"access to private kernel state `.{node.attr}`; use "
                    f"the public Simulator API (now, schedule, call_at, "
                    f"pending_events, streams)")
            else:
                yield ctx.finding(
                    self, node,
                    "store to the simulation clock `.now`; only the "
                    "Simulator run loop advances it")
