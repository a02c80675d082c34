"""Flow-analyzer driver: project loading, suppressions, baseline, CLI.

::

    python -m repro.qa flow src tests
    python -m repro.qa flow --write-baseline flow-baseline.json src
    python -m repro.qa flow --baseline flow-baseline.json src tests

Exit status mirrors sketch-lint: 0 clean, 1 findings, 2 usage or parse
error. Suppression comments are shared with sketch-lint (same
``# sketchlint: <token>`` syntax, same placement rules); the flow
tokens are ``lock-ok`` (SK108), ``fault-ok`` (SK109), ``impure-ok``
(SK110), and ``obs-gate-ok`` (SK111).

A *baseline* file is a JSON list of ``"path:line:rule"`` strings;
findings matching an entry are reported as baselined (and do not fail
the run), which lets the analyzer land on a tree with known debt
without freezing the rules themselves.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from ..lint import _suppressed_lines, iter_python_files
from ..rules import Finding
from .callgraph import Project
from .rules import run_flow_rules

__all__ = ["analyze_paths", "analyze_source", "load_project", "main"]


def load_project(paths: Sequence["Path | str"],
                 ) -> Tuple[Project, Dict[str, Tuple[str, ast.Module]]]:
    """Parse every Python file under ``paths`` into one Project.

    Returns the project plus a map ``path -> (source, tree)`` for
    suppression filtering. Raises :class:`SyntaxError` on a file that
    does not parse (annotated with the offending filename).
    """
    project = Project()
    parsed: Dict[str, Tuple[str, ast.Module]] = {}
    for file in iter_python_files(paths):
        path = str(file)
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=path)
        project.add_module(path, tree)
        parsed[path] = (source, tree)
    return project, parsed


def _filter_suppressed(findings: List[Finding],
                       parsed: Dict[str, Tuple[str, ast.Module]],
                       ) -> List[Finding]:
    suppressed_by_path: Dict[str, Dict[str, Set[int]]] = {}
    out = []
    for finding in findings:
        entry = parsed.get(finding.path)
        if entry is None:
            out.append(finding)
            continue
        table = suppressed_by_path.get(finding.path)
        if table is None:
            table = _suppressed_lines(*entry)
            suppressed_by_path[finding.path] = table
        if finding.line not in table.get(finding.rule, ()):
            out.append(finding)
    return out


def analyze_paths(paths: Sequence["Path | str"], *,
                  respect_suppressions: bool = True) -> List[Finding]:
    """Run the flow rules over every Python file under ``paths``."""
    project, parsed = load_project(paths)
    findings = run_flow_rules(project)
    if respect_suppressions:
        findings = _filter_suppressed(findings, parsed)
    return findings


def analyze_source(source: str, path: str) -> List[Finding]:
    """Analyze one module's source under a (possibly virtual) path.

    The single-module variant used by the fixture tests — the whole
    "project" is this module, so interprocedural reasoning stays within
    it.
    """
    tree = ast.parse(source, filename=path)
    project = Project()
    project.add_module(path, tree)
    findings = [f for f in run_flow_rules(project) if f.path == path]
    table = _suppressed_lines(source, tree)
    return [f for f in findings
            if f.line not in table.get(f.rule, ())]


def _baseline_key(finding: Finding) -> str:
    return f"{finding.path}:{finding.line}:{finding.rule}"


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa flow",
        description="Clock-sketch inter-procedural flow analyzer "
                    "(rules SK108-SK111).",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-finding listing")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline of accepted findings "
                             '("path:line:rule" entries)')
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write the current findings to FILE as a "
                             "baseline and exit 0")
    args = parser.parse_args(argv)

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"sketchflow: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        findings = analyze_paths(args.paths)
    except SyntaxError as exc:
        print(f"sketchflow: parse error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        payload = sorted(_baseline_key(f) for f in findings)
        Path(args.write_baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"sketchflow: baseline of {len(payload)} finding(s) "
              f"written to {args.write_baseline}")
        return 0

    baseline: Set[str] = set()
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"sketchflow: no such baseline: {args.baseline}",
                  file=sys.stderr)
            return 2
        baseline = set(json.loads(
            baseline_path.read_text(encoding="utf-8")))

    fresh = [f for f in findings if _baseline_key(f) not in baseline]
    known = len(findings) - len(fresh)
    if not args.quiet:
        for finding in fresh:
            print(finding.format())
    files = len(set(iter_python_files(args.paths)))
    status = "clean" if not fresh else f"{len(fresh)} finding(s)"
    extra = f", {known} baselined" if known else ""
    print(f"sketchflow: {files} file(s) analyzed, {status}{extra}")
    return 1 if fresh else 0


if __name__ == "__main__":
    raise SystemExit(main())
