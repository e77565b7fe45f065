"""Checker registry.

A checker subclasses :class:`BaseChecker`, sets ``rule`` (the name used
in reports and suppression comments) and implements ``check``; the
``@register`` decorator adds it to the global registry the engine
instantiates from.  Registration is idempotent by rule name so repeated
imports are harmless, but two *different* classes claiming one rule is
a programming error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, TypeVar

from repro.analysis.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext
    from repro.analysis.flow.project import ProjectContext


class BaseChecker:
    """One lint rule.

    ``default_paths``: when non-empty, the engine only runs the checker
    on files whose basename is in the set — rules like *config-bounds*
    are meaningful only for specific modules.
    """

    rule: str = ""
    description: str = ""
    default_paths: frozenset[str] = frozenset()

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        raise NotImplementedError

    def applies_to(self, ctx: "FileContext") -> bool:
        if not self.default_paths:
            return True
        return ctx.basename in self.default_paths


class ProjectChecker(BaseChecker):
    """A whole-project lint rule.

    Runs once per :meth:`LintEngine.run` against the shared
    :class:`~repro.analysis.flow.project.ProjectContext` instead of
    once per file; ``check`` (the per-file hook) is a no-op so the
    per-file dispatch loop can treat both kinds uniformly.  The engine
    still applies per-file suppression tables to every diagnostic a
    project pass emits, keyed on the diagnostic's path.

    ``fingerprint_files``: extra non-Python input paths (relative to
    the working directory) whose content the pass depends on; the
    engine folds their digests into the project-snapshot cache key so
    editing one invalidates the cached project diagnostics.
    """

    fingerprint_files: tuple[str, ...] = ()

    def check(self, ctx: "FileContext") -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        raise NotImplementedError


_C = TypeVar("_C", bound=type[BaseChecker])

_REGISTRY: dict[str, type[BaseChecker]] = {}


def register(cls: _C) -> _C:
    """Class decorator adding a checker to the registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} must set a non-empty rule name")
    existing = _REGISTRY.get(cls.rule)
    if existing is not None and existing is not cls:
        raise ValueError(f"rule {cls.rule!r} already registered by {existing.__name__}")
    _REGISTRY[cls.rule] = cls
    return cls


def all_rules() -> list[str]:
    _ensure_builtin_checkers()
    return sorted(_REGISTRY)


def get_checker(rule: str) -> type[BaseChecker]:
    _ensure_builtin_checkers()
    try:
        return _REGISTRY[rule]
    except KeyError:
        raise KeyError(f"unknown lint rule {rule!r}; available: {sorted(_REGISTRY)}") from None


def make_checkers(rules: Iterable[str] | None = None) -> list[BaseChecker]:
    """Instantiate the selected checkers (all registered ones by default)."""
    _ensure_builtin_checkers()
    names = all_rules() if rules is None else list(rules)
    return [get_checker(name)() for name in names]


def _ensure_builtin_checkers() -> None:
    """Import the built-in checker package so its rules self-register."""
    import repro.analysis.checkers  # noqa: F401  (import for side effect)
