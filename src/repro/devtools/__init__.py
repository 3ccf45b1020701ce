"""Static-analysis tooling that guards the library's core invariants.

The reproduction's results are only trustworthy if two properties hold
everywhere in ``src/repro``:

* **Determinism** — runs are bit-for-bit reproducible from a seed, so all
  randomness must route through :class:`repro.sim.random.RandomStreams` and
  nothing may read the wall clock or iterate over unordered sets in
  result-affecting code.
* **Unit safety** — every quantity is SI internally (seconds, bits, bits/s),
  with conversions expressed through :mod:`repro.units` helpers rather than
  hand-written ``* 1e-3`` style literals.

Two layers enforce them.  Per-file rules (:class:`~repro.devtools.core.Rule`)
lint one module at a time.  Whole-program rules
(:class:`~repro.devtools.core.ProjectRule`) see the full project —
symbol table (:mod:`repro.devtools.symbols`), call graph
(:mod:`repro.devtools.callgraph`) — and check *reachability*: entropy is
fine in live-measurement code, but not reachable from the simulation
kernel.  Nothing under ``repro.experiments`` or ``repro.obs`` imports this
package: the analyzer checks the code, it never runs with it.

Run the linter as ``repro-audit`` or ``python -m repro.devtools.audit``;
suppress a finding on one line with ``# repro: noqa[RULE]``.
"""
