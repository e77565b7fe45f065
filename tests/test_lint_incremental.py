"""Cache v2 behavior: project-snapshot transitive invalidation, the
recorded dependency map, and git-scoped ``repro.lint --changed``."""

import json
import os
import shutil
import subprocess
import textwrap

import pytest

from repro.analysis import LintEngine
from repro.analysis.cli import main as lint_main
from repro.analysis.flow.cache import DiagnosticCache

CALLER = """
from concurrent.futures import ProcessPoolExecutor

from callee import issue


def sweep(points):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(issue, points))
"""

CALLEE_CLEAN = """
_SEEN = []


def issue(point):
    rows = [point]
    return rows
"""

#: Same function, now mutating a module-level container.  That is a
#: fork-safety finding only because caller.py submits ``issue`` to a
#: process pool: the callee alone is not worker-reachable.
CALLEE_UNSAFE = """
_SEEN = []


def issue(point):
    _SEEN.append(point)
    return [point]
"""


def write_tree(root, callee=CALLEE_CLEAN):
    root.mkdir(exist_ok=True)
    (root / "caller.py").write_text(textwrap.dedent(CALLER))
    (root / "callee.py").write_text(textwrap.dedent(callee))


class TestTransitiveInvalidation:
    def test_unchanged_rerun_replays_the_project_snapshot(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache = str(tmp_path / "cache")
        LintEngine(["fork-safety"], cache_dir=cache).run([str(tree)])
        engine = LintEngine(["fork-safety"], cache_dir=cache)
        assert engine.run([str(tree)]) == []
        assert engine.cache_stats.project_hits == 1
        assert engine.cache_stats.project_misses == 0

    def test_editing_callee_invalidates_callers_project_results(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache = str(tmp_path / "cache")
        first = LintEngine(["fork-safety"], cache_dir=cache).run([str(tree)])
        assert first == []

        # Only the callee changes; the caller (whose pool submission
        # makes the callee worker-reachable) is untouched and cache-warm.
        write_tree(tree, callee=CALLEE_UNSAFE)
        engine = LintEngine(["fork-safety"], cache_dir=cache)
        diags = engine.run([str(tree)])
        assert engine.cache_stats.project_hits == 0
        assert engine.cache_stats.project_misses == 1
        assert [d.rule for d in diags] == ["fork-safety"]
        assert diags[0].path.endswith("callee.py")

    def test_cached_project_diags_match_fresh_ones(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree, callee=CALLEE_UNSAFE)
        cache = str(tmp_path / "cache")
        fresh = LintEngine(["fork-safety"], cache_dir=cache).run([str(tree)])
        cached = LintEngine(["fork-safety"], cache_dir=cache).run([str(tree)])
        assert [d.format() for d in cached] == [d.format() for d in fresh]
        assert fresh, "scenario should produce a finding"


class TestDependencyMap:
    def test_import_edge_recorded_during_project_phase(self, tmp_path):
        tree = tmp_path / "proj"
        write_tree(tree)
        cache_dir = str(tmp_path / "cache")
        LintEngine(cache_dir=cache_dir).run([str(tree)])
        cache = DiagnosticCache(cache_dir)
        cache.open([], [])
        deps = cache.deps_map()
        caller = str(tree / "caller.py")
        callee = str(tree / "callee.py")
        assert deps[caller] == [callee]
        assert cache.reverse_dependents({callee}) == {caller}

    def test_reverse_dependents_is_transitive(self, tmp_path):
        cache = DiagnosticCache(str(tmp_path / "cache"))
        cache.open([], [])
        cache.store_deps({"a.py": ["b.py"], "b.py": ["c.py"], "d.py": []})
        assert cache.reverse_dependents({"c.py"}) == {"a.py", "b.py"}
        assert cache.reverse_dependents({"d.py"}) == set()


needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git unavailable"
)


@needs_git
def _git(*cmds):
    env = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_SYSTEM": os.devnull}
    for cmd in cmds:
        subprocess.run(["git", *cmd], check=True, env={**os.environ, **env})


class TestChangedScope:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_tree(tmp_path / "src")
        (tmp_path / "src" / "unrelated.py").write_text(
            "import time\n\n\ndef now():\n    return time.perf_counter()\n"
        )
        _git(
            ["init", "-q"],
            ["config", "user.email", "lint@test"],
            ["config", "user.name", "lint"],
            ["add", "-A"],
            ["commit", "-qm", "seed"],
        )
        return tmp_path

    def test_clean_tree_lints_nothing(self, repo, capsys):
        lint_main([])  # warm the cache (also records the deps map)
        capsys.readouterr()
        assert lint_main(["--changed"]) == 0
        assert "no changed python files" in capsys.readouterr().out

    def test_changed_pulls_in_reverse_dependents_only(self, repo, capsys):
        assert lint_main([]) == 1  # unrelated.py's determinism finding
        capsys.readouterr()

        write_tree(repo / "src", callee=CALLEE_UNSAFE)
        assert lint_main(["--changed", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {d["rule"] for d in payload["diagnostics"]}
        paths = {os.path.basename(d["path"]) for d in payload["diagnostics"]}
        # The fork-safety finding needs caller.py's pool submission in
        # scope, so the dependent was linted; unrelated.py was not.
        assert rules == {"fork-safety"}
        assert paths == {"callee.py"}

    def test_changed_pulls_in_forward_imports(self, repo, capsys):
        write_tree(repo / "src", callee=CALLEE_UNSAFE)
        _git(["commit", "-qam", "unsafe callee"])
        assert lint_main([]) == 1  # warm the cache
        capsys.readouterr()

        with open(repo / "src" / "caller.py", "a") as fh:
            fh.write("# touched\n")
        assert lint_main(["--changed", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = {d["rule"] for d in payload["diagnostics"]}
        paths = {os.path.basename(d["path"]) for d in payload["diagnostics"]}
        # Only caller.py changed, but the finding lives in the callee it
        # submits to a pool: the imported module must be in scope.
        assert rules == {"fork-safety"}
        assert paths == {"callee.py"}

    def test_changed_rejects_explicit_paths(self, repo, capsys):
        assert lint_main(["--changed", "src"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cold_cache_widens_to_a_full_run(self, repo, capsys):
        write_tree(repo / "src", callee=CALLEE_UNSAFE)
        # No warm-up run: the deps map does not exist yet.
        assert lint_main(["--changed"]) == 1
        captured = capsys.readouterr()
        assert "cold cache" in captured.err
        # Full-run fallback sees every file, including unrelated.py.
        assert "determinism" in captured.out
