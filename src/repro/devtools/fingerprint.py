"""Normalized-AST code fingerprints and the derived cache salt.

The campaign cell cache must invalidate whenever the *semantics* of the
code that produces a cell change — and must NOT invalidate for cosmetic
edits (comments, docstrings, blank lines, reformatting that parses to the
same tree).  Hashing file bytes gets the first half right and the second
half wrong; a hand-bumped version constant gets both halves wrong the day
someone forgets to bump it.

:func:`fingerprint_source` hashes a module's *normalized* AST: the source
is parsed, docstrings are stripped, and the tree is serialized without
line/column attributes, so only executable structure feeds the digest.
:func:`derived_cache_salt` then folds together the fingerprints of every
project module transitively imported by the campaign worker's module
(an over-approximation of the code reachable from
``repro.experiments.campaign._run_cell`` — see
:meth:`~repro.devtools.symbols.Project.import_closure`), yielding a salt
that tracks the code automatically.

The analyzer itself (``repro.devtools``) is excluded from the closure: it
computes the salt but never simulates anything, and folding it in would
invalidate every cache whenever a lint rule changes.  The campaign
telemetry modules (spans, progress, structured logging, the bench schema)
are excluded for the same reason: they observe runs without influencing
results — the telemetry-off run is byte-identical by invariant — so
editing them must not throw away every cached cell.  Changes to the
fingerprint *algorithm* are covered by :data:`FINGERPRINT_VERSION`, which
is folded into every digest.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.devtools.symbols import Project
from repro.errors import AnalysisError

#: Version of the normalization + combination scheme.  Bump when the
#: algorithm changes so old salts can never collide with new ones.
FINGERPRINT_VERSION = 1

#: The campaign worker whose module roots the reachable-code closure.
SALT_ENTRY_FUNCTION = "repro.experiments.campaign._run_cell"

#: Module subtrees excluded from the salt closure (see module docstring).
#: Telemetry modules are excluded for the same reason devtools are: they
#: never influence deterministic results (the spans/progress-off run is
#: byte-identical), so editing them must not invalidate cached cells.
SALT_EXCLUDE_PREFIXES: Tuple[str, ...] = (
    "repro.devtools",
    # Dispatch plumbing, not physics: lease planning, serving, and the
    # warm-pool pipes move results between processes but never compute
    # them — serial==warm byte-identity is what the campaign tests
    # enforce — so editing the pool must not invalidate every cached
    # cell.
    "repro.experiments.pool",
    "repro.obs.bench",
    "repro.obs.progress",
    "repro.obs.spans",
    "repro.obs.structlog",
)

#: Human-readable prefix of every derived salt.
SALT_PREFIX = "repro-cell-v2"


def _strip_docstrings(tree: ast.Module) -> None:
    """Remove docstring expressions in place (module, class, function)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] if len(body) > 1 else [ast.Pass()]


def normalized_dump(source: str, path: str = "<string>") -> str:
    """Canonical serialization of a module's executable structure.

    Comments never reach the AST; docstrings are stripped; line numbers
    and column offsets are not serialized.  Two sources that differ only
    cosmetically produce identical dumps.

    Raises
    ------
    SyntaxError
        If ``source`` does not parse.
    """
    tree = ast.parse(source, filename=path)
    _strip_docstrings(tree)
    return ast.dump(tree, annotate_fields=False, include_attributes=False)


def fingerprint_source(source: str, path: str = "<string>") -> str:
    """SHA-256 hex digest of a module's normalized AST."""
    digest = hashlib.sha256()
    digest.update(f"fingerprint-v{FINGERPRINT_VERSION}\0".encode("utf-8"))
    digest.update(normalized_dump(source, path=path).encode("utf-8"))
    return digest.hexdigest()


def fingerprint_file(path: Union[str, Path]) -> str:
    """Fingerprint of one source file (see :func:`fingerprint_source`)."""
    path = Path(path)
    return fingerprint_source(path.read_text(encoding="utf-8"),
                              path=path.as_posix())


@dataclass
class SaltReport:
    """The derived salt plus everything that went into it."""

    salt: str
    entry: str
    #: module name -> normalized-AST fingerprint, for every module folded
    #: into the salt (sorted iteration == combination order).
    fingerprints: Dict[str, str]
    #: total modules indexed in the project (for "N of M" reporting).
    modules_in_project: int


def _entry_module(project: Project, entry: str) -> str:
    """The module whose import closure roots the salt.

    ``entry`` may be a function qualname (preferred: it asserts the worker
    still exists) or a bare module name.
    """
    if entry in project.modules:
        return entry
    resolved = project.resolve(entry)
    if resolved is not None and resolved in project.functions:
        return project.functions[resolved].module
    raise AnalysisError(
        f"salt entry point {entry!r} not found in the project; "
        f"was the campaign worker moved or renamed?")


def compute_salt_report(project: Project,
                        entry: str = SALT_ENTRY_FUNCTION,
                        exclude_prefixes: Sequence[str]
                        = SALT_EXCLUDE_PREFIXES) -> SaltReport:
    """Derive the cache salt for an already-indexed project."""
    entry_module = _entry_module(project, entry)
    closure = project.import_closure(entry_module,
                                     exclude_prefixes=exclude_prefixes)
    fingerprints: Dict[str, str] = {}
    for name in closure:  # import_closure returns sorted names
        module = project.modules[name]
        fingerprints[name] = fingerprint_source(module.context.source,
                                                path=module.path)
    digest = hashlib.sha256()
    digest.update(f"salt-v{FINGERPRINT_VERSION}\0".encode("utf-8"))
    for name in fingerprints:
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(fingerprints[name].encode("utf-8"))
        digest.update(b"\0")
    salt = f"{SALT_PREFIX}-{digest.hexdigest()[:16]}"
    return SaltReport(salt=salt, entry=entry, fingerprints=fingerprints,
                      modules_in_project=len(project.modules))


def default_package_dir() -> Path:
    """Directory of the installed ``repro`` package sources."""
    import repro
    package_file = getattr(repro, "__file__", None)
    if package_file is None:
        raise AnalysisError("repro package has no __file__; cannot locate "
                            "sources to fingerprint")
    return Path(package_file).resolve().parent


def derived_cache_salt(package_dir: Union[str, Path, None] = None,
                       entry: str = SALT_ENTRY_FUNCTION,
                       exclude_prefixes: Sequence[str]
                       = SALT_EXCLUDE_PREFIXES) -> str:
    """The code-derived campaign cell-cache salt.

    Parses the package under ``package_dir`` (default: the installed
    ``repro`` sources), computes the import closure of the entry point's
    module, and combines the normalized-AST fingerprints of every module
    in it.  Deterministic across processes and checkouts of the same
    code; insensitive to comment/docstring-only edits; sensitive to any
    semantic edit of reachable simulation code.
    """
    return derived_salt_report(package_dir, entry=entry,
                               exclude_prefixes=exclude_prefixes).salt


def derived_salt_report(package_dir: Union[str, Path, None] = None,
                        entry: str = SALT_ENTRY_FUNCTION,
                        exclude_prefixes: Sequence[str]
                        = SALT_EXCLUDE_PREFIXES) -> SaltReport:
    """Like :func:`derived_cache_salt` but returns the full report."""
    directory = Path(package_dir) if package_dir is not None \
        else default_package_dir()
    if not directory.is_dir():
        raise AnalysisError(f"package directory {directory} does not exist")
    project = Project.from_package(directory)
    if not project.modules:
        raise AnalysisError(f"no package modules found under {directory}")
    return compute_salt_report(project, entry=entry,
                               exclude_prefixes=exclude_prefixes)


def changed_modules(before: SaltReport, after: SaltReport) -> List[str]:
    """Module names whose fingerprints differ between two reports."""
    names = set(before.fingerprints) | set(after.fingerprints)
    return sorted(name for name in names
                  if before.fingerprints.get(name)
                  != after.fingerprints.get(name))
