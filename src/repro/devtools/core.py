"""Rule framework for the :mod:`repro.devtools` static analyzer.

A :class:`Rule` inspects one parsed module (:class:`FileContext`) and yields
:class:`Finding` objects.  Rules register themselves with :func:`register`
and are looked up by id (``DET001``, ``UNIT001``, ...).  Per-line
suppressions use the comment syntax::

    total = delta * 1e3  # repro: noqa[UNIT001]
    risky()              # repro: noqa            (suppresses every rule)

Multiple ids separate with commas: ``# repro: noqa[UNIT001,DET001]``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    Iterator,
    List,
    Sequence,
    Set,
    Type,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.devtools.symbols import Project

#: Matches a suppression comment; group 1 is the optional rule-id list.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

#: Sentinel stored in the suppression map meaning "every rule".
_ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule.

    Sorts by location so reports are stable regardless of rule order.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """Render as a classic ``path:line:col: RULE message`` diagnostic."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        """JSON-serializable form (consumed by CI tooling)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs to inspect one module."""

    path: str
    source: str
    tree: ast.AST
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str = "<string>") -> "FileContext":
        """Parse ``source`` and precompute its suppression map.

        Raises
        ------
        SyntaxError
            If the module does not parse; callers turn this into a
            ``PARSE001`` finding.
        """
        tree = ast.parse(source, filename=path)
        suppressions = expand_statement_suppressions(
            tree, parse_suppressions(source))
        return cls(path=path, source=source, tree=tree,
                   suppressions=suppressions)

    def finding(self, rule: Union["Rule", "ProjectRule"], node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(rule=rule.rule_id, path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)

    def is_suppressed(self, finding: Finding) -> bool:
        """True if the finding's line carries a matching noqa comment."""
        ids = self.suppressions.get(finding.line)
        if ids is None:
            return False
        return _ALL_RULES in ids or finding.rule in ids


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line numbers to the set of rule ids suppressed on that line."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            suppressed[lineno] = {_ALL_RULES}
        else:
            suppressed[lineno] = {part.strip() for part in ids.split(",")
                                  if part.strip()}
    return suppressed


#: Statement types whose physical extent a trailing noqa comment covers.
#: Compound statements (if/for/def/class/...) are excluded: a noqa inside
#: their body must not bleed onto the header line.
_SIMPLE_STATEMENTS = (
    ast.Expr, ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal,
)


def expand_statement_suppressions(
        tree: ast.AST,
        suppressed: Dict[int, Set[str]]) -> Dict[int, Set[str]]:
    """Spread suppressions across multi-line simple statements.

    A call or expression wrapped over several lines reports its findings
    at the statement's *first* line, while the natural place for the noqa
    comment is the *closing* line.  For every simple (non-compound)
    statement, a suppression on any of its physical lines therefore
    covers every line of the statement — in particular the first.
    """
    if not suppressed:
        return suppressed
    expanded: Dict[int, Set[str]] = {line: set(ids)
                                     for line, ids in suppressed.items()}
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STATEMENTS):
            continue
        first = node.lineno
        last = getattr(node, "end_lineno", None)
        if last is None or last <= first:
            continue
        ids: Set[str] = set()
        for line in range(first, last + 1):
            ids |= suppressed.get(line, set())
        if not ids:
            continue
        for line in range(first, last + 1):
            expanded.setdefault(line, set()).update(ids)
    return expanded


class Rule:
    """Base class for audit rules.

    Subclasses set :attr:`rule_id` and :attr:`summary`, optionally
    :attr:`exempt_suffixes` (posix path suffixes the rule never applies to,
    e.g. ``repro/units.py`` for the magic-literal rule), and implement
    :meth:`check`.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    exempt_suffixes: ClassVar[Sequence[str]] = ()

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (honors exemptions)."""
        posix = PurePath(path).as_posix()
        return not any(posix.endswith(suffix) for suffix in self.exempt_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program rules.

    Unlike :class:`Rule`, a project rule sees the entire indexed
    :class:`~repro.devtools.symbols.Project` at once — symbol table,
    import graph, call graph — and can reason across function and module
    boundaries.  Findings still anchor to a file/line, so per-line
    ``# repro: noqa[...]`` suppressions apply exactly as for file rules.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    exempt_suffixes: ClassVar[Sequence[str]] = ()

    def applies_to(self, path: str) -> bool:
        """Whether findings may be reported against ``path``."""
        posix = PurePath(path).as_posix()
        return not any(posix.endswith(suffix) for suffix in self.exempt_suffixes)

    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Yield findings for the whole project."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}
_PROJECT_REGISTRY: Dict[str, Type[ProjectRule]] = {}


def _guard_rule_id(rule_cls: Union[Type[Rule], Type[ProjectRule]]) -> None:
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY or rule_cls.rule_id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    _guard_rule_id(rule_cls)
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def register_project(rule_cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a whole-program rule to the registry."""
    _guard_rule_id(rule_cls)
    _PROJECT_REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def _load_builtin_rules() -> None:
    """Import the built-in rule modules so they self-register."""
    from repro.devtools import (  # noqa: F401  (imported for side effects)
        rules_determinism,
        rules_errors,
        rules_flow,
        rules_obs,
        rules_perf,
        rules_sim,
        rules_units,
    )


def all_rules() -> List[Rule]:
    """Instantiate every registered per-file rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    """Instantiate every registered whole-program rule, sorted by id."""
    _load_builtin_rules()
    return [_PROJECT_REGISTRY[rule_id]()
            for rule_id in sorted(_PROJECT_REGISTRY)]


def get_rule(rule_id: str) -> Union[Rule, ProjectRule]:
    """Instantiate the registered rule ``rule_id`` (file or project).

    Raises
    ------
    KeyError
        If no rule with that id exists.
    """
    _load_builtin_rules()
    if rule_id in _PROJECT_REGISTRY:
        return _PROJECT_REGISTRY[rule_id]()
    return _REGISTRY[rule_id]()


def check_file(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run the per-file ``rules`` over one parsed module.

    Rules whose :meth:`Rule.applies_to` excludes the path are skipped and
    findings on lines with a matching ``# repro: noqa[...]`` comment are
    dropped.  Returns the findings location-sorted.
    """
    findings = [finding
                for rule in rules if rule.applies_to(ctx.path)
                for finding in rule.check(ctx)
                if not ctx.is_suppressed(finding)]
    findings.sort(key=Finding.sort_key)
    return findings
