"""The ``repro-audit`` command: run every rule over a source tree.

Usage::

    repro-audit src/repro                  # text report, exit 1 on findings
    repro-audit --format json src/repro    # machine-readable (CI)
    repro-audit --format github src/repro  # workflow annotations (CI)
    repro-audit --select UNIT001 src/repro # one rule only
    repro-audit --list-rules
    repro-audit fingerprint                # derived cache salt report
    python -m repro.devtools.audit src/repro

Per-file rules run on each module independently; whole-program rules
(``FLOW001``, ``FLOW002``, ``UNIT003``) run once over the project built
from every parseable file in the same invocation.  Exit codes: 0 clean,
1 findings, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.devtools.core import (
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    get_rule,
)
from repro.devtools.reporters import (
    render_github,
    render_json,
    render_rule_list,
    render_text,
)

#: Rule id used for files that fail to parse at all.
PARSE_RULE_ID = "PARSE001"


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a deduplicated, sorted ``.py`` list.

    Overlapping arguments (``repro-audit src src/repro``) or the same file
    reached through different spellings (``./src`` vs ``src``) collapse to
    one entry: files are deduplicated by resolved path while keeping the
    first-seen spelling, then sorted for stable reports.

    Raises
    ------
    FileNotFoundError
        If any requested path does not exist.
    """
    by_resolved: Dict[Path, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: List[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            by_resolved.setdefault(candidate.resolve(), candidate)
    return sorted(by_resolved.values())


def _parse_contexts(files: Sequence[Path],
                    ) -> Tuple[List[FileContext], List[Finding]]:
    """Parse every file once; unparseable files yield PARSE001 findings."""
    contexts: List[FileContext] = []
    parse_findings: List[Finding] = []
    for path in files:
        name = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(FileContext.from_source(source, path=name))
        except SyntaxError as exc:
            parse_findings.append(Finding(
                rule=PARSE_RULE_ID, path=name,
                line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}"))
    return contexts, parse_findings


def _check_project(contexts: Sequence[FileContext],
                   project_rules: Sequence[ProjectRule]) -> List[Finding]:
    """Run whole-program rules once over the parsed contexts."""
    if not project_rules:
        return []
    from repro.devtools.symbols import Project
    project = Project.from_contexts(contexts)
    ctx_by_path = {ctx.path: ctx for ctx in contexts}
    findings: List[Finding] = []
    for rule in project_rules:
        for finding in rule.check_project(project):
            if not rule.applies_to(finding.path):
                continue
            ctx = ctx_by_path.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding):
                continue
            findings.append(finding)
    return findings


def audit_paths(paths: Sequence[str],
                rules: Optional[Sequence[Rule]] = None,
                project_rules: Optional[Sequence[ProjectRule]] = None,
                ) -> Tuple[List[Finding], int]:
    """Audit every python file under ``paths``, both rule layers.

    ``rules``/``project_rules`` default to every registered rule of the
    respective kind; pass an empty sequence to skip a layer entirely.
    Returns ``(findings, files_checked)`` with findings location-sorted.
    """
    files = iter_python_files(paths)
    contexts, findings = _parse_contexts(files)
    active = list(rules) if rules is not None else all_rules()
    for ctx in contexts:
        findings.extend(
            finding
            for rule in active if rule.applies_to(ctx.path)
            for finding in rule.check(ctx)
            if not ctx.is_suppressed(finding))
    active_project = list(project_rules) if project_rules is not None \
        else all_project_rules()
    findings.extend(_check_project(contexts, active_project))
    findings.sort(key=Finding.sort_key)
    return findings, len(files)


def _select_rules(spec: Optional[str],
                  ) -> Tuple[Optional[List[Rule]],
                             Optional[List[ProjectRule]]]:
    """Split a ``--select`` spec into per-file and whole-program rules."""
    if spec is None:
        return None, None
    file_rules: List[Rule] = []
    project_rules: List[ProjectRule] = []
    for rule_id in spec.split(","):
        rule_id = rule_id.strip()
        if not rule_id:
            continue
        try:
            rule = get_rule(rule_id)
        except KeyError:
            known = ", ".join(r.rule_id for r in
                              list(all_rules()) + list(all_project_rules()))
            raise ValueError(f"unknown rule {rule_id!r} (known: {known})") \
                from None
        if isinstance(rule, ProjectRule):
            project_rules.append(rule)
        else:
            file_rules.append(rule)
    return file_rules, project_rules


def _main_fingerprint(argv: Sequence[str]) -> int:
    """The ``repro-audit fingerprint`` subcommand."""
    from repro.devtools.fingerprint import (
        SALT_ENTRY_FUNCTION,
        derived_salt_report,
    )
    from repro.errors import AnalysisError

    parser = argparse.ArgumentParser(
        prog="repro-audit fingerprint",
        description="Report the code-derived campaign cell-cache salt.")
    parser.add_argument("--package", metavar="DIR", default=None,
                        help="package directory to fingerprint "
                             "(default: the installed repro sources)")
    parser.add_argument("--entry", default=SALT_ENTRY_FUNCTION,
                        help="entry function/module rooting the closure "
                             f"(default {SALT_ENTRY_FUNCTION})")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--verbose", action="store_true",
                        help="list every module fingerprint folded in")
    args = parser.parse_args(argv)

    try:
        report = derived_salt_report(args.package, entry=args.entry)
    except AnalysisError as exc:
        print(f"repro-audit fingerprint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        import json
        print(json.dumps({
            "salt": report.salt,
            "entry": report.entry,
            "modules": report.fingerprints,
            "modules_in_project": report.modules_in_project,
        }, indent=2, sort_keys=True))
        return 0
    print(f"salt: {report.salt}")
    print(f"entry: {report.entry}")
    print(f"modules: {len(report.fingerprints)} of "
          f"{report.modules_in_project} fingerprinted")
    if args.verbose:
        for name, fingerprint in report.fingerprints.items():
            print(f"  {fingerprint[:16]}  {name}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point shared by the console script and ``python -m``."""
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "fingerprint":
        return _main_fingerprint(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="AST lint for repro's determinism/unit-safety invariants.")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to audit "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="report format (default text)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (default all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    args = parser.parse_args(arguments)

    all_known: List[Union[Rule, ProjectRule]] = []
    all_known.extend(all_rules())
    all_known.extend(all_project_rules())
    if args.list_rules:
        print(render_rule_list(all_known))
        return 0

    try:
        rules, project_rules = _select_rules(args.select)
        findings, files_checked = audit_paths(
            args.paths, rules=rules, project_rules=project_rules)
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-audit: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(findings, files_checked=files_checked))
    elif args.format == "github":
        print(render_github(findings, files_checked=files_checked))
    else:
        print(render_text(findings, files_checked=files_checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
