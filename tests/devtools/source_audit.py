"""Audit a source string the way ``repro-audit`` audits a file."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.devtools.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    check_file,
)


def audit_source(source: str, path: str = "<string>",
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run ``rules`` (default: every per-file rule) over ``source``."""
    ctx = FileContext.from_source(source, path=path)
    return check_file(ctx, list(rules) if rules is not None else all_rules())
