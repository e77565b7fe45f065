"""Command-line front end for the static-analysis subsystem.

Invoked as ``python -m repro.lint [<paths>]``; with no paths it lints
the default roots (``src``, ``tests``, ``benchmarks``, ``examples`` —
whichever exist under the working directory).  Exits 0 on a clean
tree, 1 when diagnostics at or above ``--fail-on`` (default
``warning``) survive the baseline, 2 on usage errors.

``python -m repro.lint contract`` dispatches to the backend-contract
extractor (:mod:`repro.analysis.effects`): per-stage read/write sets,
stage-ordering dependencies, per-thread vs shared state, and
SoA-feasibility verdicts — ``--write-contract`` persists the canonical
``backend-contract.json``, ``--diff`` gates on drift against it.

``--changed`` scopes the run to the files the git working tree touched
plus their reverse import-dependent closure and everything that closure
imports, from the incremental cache — the fast pre-commit mode.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis.diagnostics import parse_severity
from repro.analysis.engine import DEFAULT_ROOTS, LintEngine, default_roots
from repro.analysis.flow.cache import DiagnosticCache
from repro.analysis.registry import all_rules, get_checker
from repro.analysis.reporters import render

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

DEFAULT_CACHE_DIR = ".repro-lint-cache"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Simulator-aware static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the src/tests/"
        "benchmarks/examples roots that exist here)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE...]",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--fail-on",
        choices=("note", "warning", "error"),
        default="warning",
        help="lowest severity that makes the exit code 1 (default: warning)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool workers for the per-file phase (0 = cpu count)",
    )
    phase = parser.add_mutually_exclusive_group()
    phase.add_argument(
        "--no-project",
        action="store_true",
        help="run only the fast per-file rules",
    )
    phase.add_argument(
        "--project-only",
        action="store_true",
        help="run only the project-wide passes",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="suppress diagnostics recorded in this baseline file; only "
        "new findings affect the exit code",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"incremental-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental per-file cache",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss statistics to stderr",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed in the git working tree plus their "
        "reverse import-dependents and the modules those import, from the "
        "incremental cache",
    )
    return parser


def _git_changed_files() -> list[str] | None:
    """Changed + untracked .py files relative to the cwd, or None when
    not inside a git work tree."""
    names: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        names.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    out: list[str] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = os.path.relpath(os.path.join(top, name))
        if os.path.isfile(path):
            out.append(path)
    return out


def _changed_scope(args: argparse.Namespace) -> list[str] | None:
    """Resolve ``--changed`` into a path list, or None for a full run.

    The dependency map lives in the incremental cache; when it is cold
    (or git is unavailable) the scope silently widens to the default
    roots so ``--changed`` is never less safe than a full run.
    """
    changed = _git_changed_files()
    if changed is None:
        print(
            "repro.lint: --changed: not a git work tree; linting everything",
            file=sys.stderr,
        )
        return None
    if not changed:
        return []
    if args.no_cache:
        return None
    cache = DiagnosticCache(args.cache_dir)
    cache.open([], [])  # fingerprints don't matter for the deps map
    deps = cache.deps_map()
    if not deps:
        print(
            "repro.lint: --changed: cold cache (no dependency map); "
            "linting everything",
            file=sys.stderr,
        )
        return None
    known = {os.path.normpath(p) for p in deps}
    normalized = {os.path.normpath(p) for p in changed}
    scope = set(changed)
    seeds = {p for p in deps if os.path.normpath(p) in normalized}
    dependents = cache.reverse_dependents(seeds)
    scope.update(dependents)
    # Project rules read what a module imports too (a callee's state
    # writes, a pool-submitted function's body), so the scope also holds
    # the forward import closure; linting an importer without its
    # callees would judge a partial program.
    work = sorted(seeds | dependents)
    imported = set(work)
    while work:
        for dep in deps.get(work.pop(), ()):
            if dep not in imported:
                imported.add(dep)
                work.append(dep)
    scope.update(imported - seeds)
    # Changed files outside the scanned roots (e.g. a new script) still
    # lint individually even though the deps map has never seen them.
    scope.update(p for p in changed if os.path.normpath(p) not in known)
    return sorted(scope)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "contract":
        from repro.analysis.effects.cli import contract_main

        return contract_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule}: {get_checker(rule).description}")
        return EXIT_CLEAN

    if args.changed and args.paths:
        print(
            "repro.lint: error: --changed and explicit paths are mutually "
            "exclusive",
            file=sys.stderr,
        )
        return EXIT_USAGE

    paths = args.paths or default_roots()
    if args.changed:
        scope = _changed_scope(args)
        if scope is not None:
            if not scope:
                print("no changed python files")
                return EXIT_CLEAN
            paths = scope
    if not paths:
        parser.print_usage(sys.stderr)
        print(
            "repro.lint: error: no paths given and no default roots "
            f"({'/'.join(DEFAULT_ROOTS)}) here",
            file=sys.stderr,
        )
        return EXIT_USAGE

    rules = None
    if args.rules is not None:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    try:
        engine = LintEngine(
            rules,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
        diags = engine.run(
            paths,
            jobs=jobs,
            file_phase=not args.project_only,
            project_phase=not args.no_project,
        )
        threshold = parse_severity(args.fail_on)
    except (KeyError, FileNotFoundError) as exc:
        # str(KeyError) repr-quotes its message; unwrap the original.
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro.lint: error: {msg}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline is not None:
        baseline_mod.write_baseline(args.write_baseline, diags)
        print(
            f"repro.lint: wrote baseline with {len(diags)} finding(s) to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return EXIT_CLEAN

    if args.baseline is not None:
        try:
            accepted = baseline_mod.load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro.lint: error: bad baseline: {exc}", file=sys.stderr)
            return EXIT_USAGE
        root = os.path.dirname(os.path.abspath(args.baseline)) or "."
        diags = baseline_mod.filter_new(diags, accepted, root=root)

    report = render(diags, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    else:
        print(report)

    if args.stats:
        stats = engine.cache_stats
        print(
            f"repro.lint: cache {stats.hits} hit(s) / {stats.misses} miss(es) "
            f"({stats.hit_rate:.0%})",
            file=sys.stderr,
        )

    failing = [d for d in diags if d.severity >= threshold]
    return EXIT_FINDINGS if failing else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
