"""Lint engine: file discovery, parsing, checker dispatch, suppression.

Two layers share one parse per file:

* the **per-file layer** (PR 1) hands every checker a
  :class:`FileContext` (path, source, parsed AST) and collects
  :class:`Diagnostic` records, now behind a file-hash-keyed incremental
  cache (:mod:`repro.analysis.flow.cache`) and an optional ``jobs``
  process pool;
* the **project layer** builds one
  :class:`~repro.analysis.flow.project.ProjectContext` from the same
  ``FileContext`` objects and runs every registered
  :class:`~repro.analysis.registry.ProjectChecker` (call-graph and
  effect-analysis passes) once per run.

Both layers filter through the per-file suppression tables; suppression
comments naming a rule the registry has never heard of earn a
``suppress`` warning so typos cannot silently disable nothing.
"""

from __future__ import annotations

import ast
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Iterator, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity, sort_key
from repro.analysis.flow.cache import CacheStats, DiagnosticCache, source_digest
from repro.analysis.registry import BaseChecker, ProjectChecker, all_rules, make_checkers
from repro.analysis.suppress import WILDCARD, SuppressionTable, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.flow.project import ProjectContext

#: Directory names never descended into.  ``lint_fixtures`` holds the
#: intentionally-broken counterexamples the test suite feeds the
#: checkers file-by-file; discovery must not trip over them.
_SKIP_DIRS = frozenset(
    {
        "__pycache__",
        ".git",
        ".venv",
        "venv",
        "build",
        "dist",
        ".mypy_cache",
        ".pytest_cache",
        ".repro-lint-cache",
        ".hypothesis",
        "node_modules",
        "lint_fixtures",
    }
)

#: Roots linted when the CLI is invoked with no paths: everything that
#: executes — the package, its tests, the benchmark figures and the
#: examples — not just ``src/``.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")


def _span_factory(tracer: Any) -> Callable[..., ContextManager[Any]]:
    """Phase-span helper: a no-op without a tracer.

    The tracer is duck-typed (anything with ``span(name, cat, **args)``)
    so this module keeps no dependency on :mod:`repro.perf`.
    """
    if tracer is None:
        return lambda name, **args: nullcontext()
    return lambda name, **args: tracer.span(name, cat="lint", **args)


@dataclass
class FileContext:
    """Everything a checker may inspect about one module."""

    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionTable

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    def relpath(self, root: str | None = None) -> str:
        try:
            return os.path.relpath(self.path, root or os.getcwd())
        except ValueError:  # different drive (Windows); keep absolute
            return self.path


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a deterministic .py file list."""
    for path in paths:
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def build_project(paths: Sequence[str]) -> ProjectContext:
    """Parse every .py under ``paths`` into one ProjectContext (files
    that do not parse are left out)."""
    from repro.analysis.flow.project import ProjectContext

    engine = LintEngine([])
    contexts = []
    for path in iter_python_files(paths):
        with open(path, "rb") as fh:
            raw = fh.read()
        ctx = engine._parse_context(path, raw)
        if ctx is not None:
            contexts.append(ctx)
    return ProjectContext(sorted(contexts, key=lambda c: c.path))


def default_roots(cwd: str | None = None) -> list[str]:
    """The :data:`DEFAULT_ROOTS` that exist under ``cwd``."""
    base = cwd or os.getcwd()
    return [os.path.join(base, r) if cwd else r for r in DEFAULT_ROOTS
            if os.path.isdir(os.path.join(base, r))]


def _syntax_diagnostic(path: str, exc: SyntaxError) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="syntax",
        message=f"syntax error: {exc.msg}",
        severity=Severity.ERROR,
    )


def _unknown_suppression_diags(ctx: FileContext) -> list[Diagnostic]:
    """``suppress`` warnings for directives naming unregistered rules."""
    known = set(all_rules()) | {WILDCARD, "syntax", "suppress"}
    diags: list[Diagnostic] = []
    for rule, line in ctx.suppressions.mentions:
        if rule not in known:
            diags.append(
                Diagnostic(
                    path=ctx.path,
                    line=line,
                    col=0,
                    rule="suppress",
                    message=(
                        f"suppression names unknown rule {rule!r}; it silences "
                        "nothing (registered rules: --list-rules)"
                    ),
                    severity=Severity.WARNING,
                    symbol=rule,
                )
            )
    return diags


# -- process-pool worker (module-level so fork/spawn can import it) -----
_WORKER_ENGINE: "LintEngine | None" = None
_WORKER_RULES: list[str] | None = None


def _pool_check_file(args: tuple[str, list[str]]) -> list[Diagnostic]:
    global _WORKER_ENGINE, _WORKER_RULES
    path, rules = args
    if _WORKER_ENGINE is None or _WORKER_RULES != rules:
        # Deliberate per-process memo: each pool worker keeps one warm
        # engine; the parent never reads these globals back.
        _WORKER_ENGINE = LintEngine(rules)
        _WORKER_RULES = rules
    return _WORKER_ENGINE.check_file(path)


class LintEngine:
    """Run per-file checkers and project passes over files."""

    def __init__(
        self,
        rules: Iterable[str] | None = None,
        *,
        cache_dir: str | None = None,
    ):
        self.checkers: list[BaseChecker] = make_checkers(rules)
        self.file_checkers = [c for c in self.checkers if not isinstance(c, ProjectChecker)]
        self.project_checkers = [c for c in self.checkers if isinstance(c, ProjectChecker)]
        self.cache = DiagnosticCache(cache_dir) if cache_dir else None

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats if self.cache else CacheStats()

    # -- per-file layer ------------------------------------------------
    def check_source(self, source: str, path: str = "<string>") -> list[Diagnostic]:
        """Lint one module given as text (unit-test/fixture entry)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [_syntax_diagnostic(path, exc)]
        ctx = FileContext(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )
        return sorted(self._check_context(ctx), key=sort_key)

    def _check_context(self, ctx: FileContext) -> list[Diagnostic]:
        found = _unknown_suppression_diags(ctx)
        for checker in self.file_checkers:
            if not checker.applies_to(ctx):
                continue
            for diag in checker.check(ctx):
                found.append(diag)
        return [
            d for d in found if not ctx.suppressions.is_suppressed(d.rule, d.line)
        ]

    def check_file(self, path: str) -> list[Diagnostic]:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        return self.check_source(source, path=path)

    # -- full runs -----------------------------------------------------
    def run(
        self,
        paths: Sequence[str],
        *,
        jobs: int = 1,
        file_phase: bool = True,
        project_phase: bool = True,
        tracer: "object | None" = None,
    ) -> list[Diagnostic]:
        """Lint every .py file reachable from ``paths``.

        ``jobs > 1`` fans the per-file phase out over a process pool;
        the project passes always run in-process (they need the shared
        :class:`ProjectContext`).  With a cache attached, files whose
        content hash is unchanged replay their recorded diagnostics.
        ``tracer`` may be a :class:`repro.perf.spans.SpanTracer`; the
        scan / per-file / project phases then record ``lint`` spans
        for Chrome-trace export (``repro.lint --trace-out``).
        """
        span = _span_factory(tracer)
        files = list(iter_python_files(paths))
        found: list[Diagnostic] = []
        contexts: list[FileContext] = []
        need_project = project_phase and bool(self.project_checkers)

        if self.cache is not None:
            self.cache.open(
                sorted(c.rule for c in self.file_checkers),
                sorted(c.rule for c in self.project_checkers),
            )

        digests: dict[str, str] = {}
        raws: dict[str, bytes] = {}
        pending: list[tuple[str, str, bytes]] = []  # (path, digest, raw)
        with span("lint.scan", files=len(files)):
            for path in files:
                with open(path, "rb") as fh:
                    raw = fh.read()
                digests[path] = source_digest(raw)
                raws[path] = raw

        # A project snapshot whose whole path->digest map matches skips
        # the ProjectContext build entirely; one changed file discards
        # it, re-running every project pass (transitive invalidation).
        # Project checkers may declare non-Python inputs (e.g. the
        # committed backend contract) via ``fingerprint_files``; their
        # digests join the snapshot key so editing one invalidates it.
        project_cached: list[Diagnostic] | None = None
        project_digests = dict(digests)
        if need_project:
            for checker in self.project_checkers:
                for extra in getattr(checker, "fingerprint_files", ()):
                    try:
                        with open(extra, "rb") as fh:
                            project_digests[extra] = source_digest(fh.read())
                    except OSError:
                        project_digests[extra] = "<missing>"
        if need_project and self.cache is not None:
            project_cached = self.cache.lookup_project(project_digests)
        build_project = need_project and project_cached is None

        for path in files:
            cached = (
                self.cache.lookup(path, digests[path])
                if self.cache is not None and file_phase
                else None
            )
            if cached is not None:
                found.extend(cached)
                if build_project:
                    ctx = self._parse_context(path, raws[path])
                    if ctx is not None:
                        contexts.append(ctx)
            else:
                pending.append((path, digests[path], raws[path]))

        with span("lint.file-checks", pending=len(pending), jobs=jobs):
            if pending and file_phase and jobs > 1:
                found.extend(self._run_pool(pending, jobs, build_project, contexts))
            else:
                for path, digest, raw in pending:
                    ctx = self._parse_context(path, raw)
                    if ctx is None:
                        diags = [self._syntax_for(path, raw)]
                    else:
                        if build_project:
                            contexts.append(ctx)
                        diags = self._check_context(ctx) if file_phase else []
                    if file_phase:
                        found.extend(diags)
                        if self.cache is not None:
                            self.cache.store(path, digest, diags)

        if need_project:
            with span("lint.project", modules=len(contexts)):
                if project_cached is not None:
                    found.extend(project_cached)
                else:
                    project_diags = self._run_project(contexts)
                    found.extend(project_diags)
                    if self.cache is not None:
                        self.cache.store_project(project_digests, project_diags)
        if self.cache is not None:
            self.cache.flush()
        return sorted(found, key=sort_key)

    def _run_pool(
        self,
        pending: list[tuple[str, str, bytes]],
        jobs: int,
        build_project: bool,
        contexts: list[FileContext],
    ) -> list[Diagnostic]:
        """Check ``pending`` files on a process pool; fall back serially."""
        rules = sorted(c.rule for c in self.file_checkers)
        found: list[Diagnostic] = []
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(
                    pool.map(_pool_check_file, [(p, rules) for p, _, _ in pending])
                )
        except (ImportError, OSError, NotImplementedError):
            results = [self.check_file(p) for p, _, _ in pending]
        for (path, digest, raw), diags in zip(pending, results):
            found.extend(diags)
            if self.cache is not None:
                self.cache.store(path, digest, diags)
            if build_project:
                ctx = self._parse_context(path, raw)
                if ctx is not None:
                    contexts.append(ctx)
        return found

    def _parse_context(self, path: str, raw: bytes) -> FileContext | None:
        try:
            source = raw.decode("utf-8")
            tree = ast.parse(source, filename=path)
        except (SyntaxError, UnicodeDecodeError):
            return None
        return FileContext(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    def _syntax_for(self, path: str, raw: bytes) -> Diagnostic:
        try:
            ast.parse(raw.decode("utf-8", errors="replace"), filename=path)
        except SyntaxError as exc:
            return _syntax_diagnostic(path, exc)
        return Diagnostic(
            path=path,
            line=1,
            col=0,
            rule="syntax",
            message="file is not valid UTF-8 Python",
            severity=Severity.ERROR,
        )

    def _run_project(self, contexts: list[FileContext]) -> list[Diagnostic]:
        """Build the shared ProjectContext and run every project pass."""
        from repro.analysis.flow.project import ProjectContext

        project = ProjectContext(sorted(contexts, key=lambda c: c.path))
        if self.cache is not None:
            self.cache.store_deps(_import_deps(project))
        tables = {ctx.path: ctx.suppressions for ctx in contexts}
        found: list[Diagnostic] = []
        for checker in self.project_checkers:
            for diag in checker.check_project(project):
                table = tables.get(diag.path)
                if table is not None and table.is_suppressed(diag.rule, diag.line):
                    continue
                found.append(diag)
        return found


def _import_deps(project: "Any") -> dict[str, list[str]]:
    """Project-internal import edges as a ``path -> [dep paths]`` map.

    An import of ``m.C`` depends on module ``m``; targets outside the
    scanned file set contribute no edge.  ``repro.lint --changed``
    walks it both ways to scope a diff: its reverse-dependent closure
    and everything that imports.
    """
    deps: dict[str, list[str]] = {}
    for _, mod in sorted(project.modules.items()):
        targets: set[str] = set()
        for dotted in mod.imports.values():
            dep = project.modules_by_name.get(dotted)
            if dep is None and "." in dotted:
                dep = project.modules_by_name.get(dotted.rsplit(".", 1)[0])
            if dep is not None and dep.path != mod.path:
                targets.add(dep.path)
        deps[mod.path] = sorted(targets)
    return deps
