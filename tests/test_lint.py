"""The static-analysis subsystem: engine, suppressions, reporters, CLI,
and each checker against its fixture and against the real tree."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import LintEngine, Severity, all_rules, get_checker
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import iter_python_files
from repro.analysis.reporters import render

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "lint_fixtures")
SRC = os.path.join(HERE, os.pardir, "src")
ROOT = os.path.dirname(os.path.abspath(HERE))
BASELINE = os.path.join(ROOT, "lint-baseline.json")

#: per-file rule -> its dedicated counterexample fixture.
FIXTURE_OF = {
    "config-bounds": os.path.join(FIXTURES, "config_bounds", "config.py"),
    "dimension-mismatch": os.path.join(FIXTURES, "dimension_bad.py"),
}

#: project rule -> its counterexample fixture (file or directory).
PROJECT_FIXTURE_OF = {
    "emit-coverage": os.path.join(FIXTURES, "emit_coverage"),
    "paper-fidelity": os.path.join(FIXTURES, "paper_fidelity_bad.py"),
}

FIXTURE_RULES = sorted(FIXTURE_OF) + sorted(PROJECT_FIXTURE_OF)

#: A bit-cycle count plus a cycle count: one dimension-mismatch finding.
MISMATCH = "def f(ace_bit_cycles, warmup_cycles):\n    return ace_bit_cycles + warmup_cycles"


def run_rule(rule, path):
    if rule in PROJECT_FIXTURE_OF:
        return LintEngine([rule]).run([path])
    return LintEngine([rule]).check_file(path)


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert all_rules() == sorted(
            [*FIXTURE_OF, *PROJECT_FIXTURE_OF, "state-contract-drift"]
        )

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_checker("no-such-rule")

    def test_descriptions_nonempty(self):
        for rule in all_rules():
            assert get_checker(rule).description


class TestCheckersFireOnFixtures:
    @pytest.mark.parametrize("rule", FIXTURE_RULES)
    def test_rule_fires_on_its_fixture(self, rule):
        diags = run_rule(rule, PROJECT_FIXTURE_OF.get(rule) or FIXTURE_OF[rule])
        assert diags, f"{rule} stayed silent on its counterexample"
        assert all(d.rule == rule for d in diags)

    @pytest.mark.parametrize("rule", FIXTURE_RULES)
    def test_other_rules_stay_silent_on_fixture(self, rule):
        """Each fixture trips exactly its own checker among the rules of
        its kind (per-file or project)."""
        if rule in PROJECT_FIXTURE_OF:
            others = [r for r in PROJECT_FIXTURE_OF if r != rule]
            diags = LintEngine(others).run([PROJECT_FIXTURE_OF[rule]])
        else:
            others = [r for r in FIXTURE_OF if r != rule]
            diags = LintEngine(others).check_file(FIXTURE_OF[rule])
        assert diags == []

    def test_config_bounds_flags_field_and_missing_validate(self):
        diags = run_rule("config-bounds", FIXTURE_OF["config-bounds"])
        symbols = {d.symbol for d in diags}
        assert "PartiallyValidatedConfig.t_cache_miss" in symbols
        assert "UnvalidatedConfig" in symbols
        assert not any(s.startswith("FullyValidatedConfig") for s in symbols)


class TestRealTreeClean:
    def test_src_tree_is_clean_modulo_baseline(self):
        """Everything the full engine (per-file rules plus project
        passes) finds on src/ is recorded in the committed baseline."""
        from repro.analysis import filter_new, load_baseline

        diags = LintEngine().run([SRC])
        new = filter_new(diags, load_baseline(BASELINE), root=ROOT)
        assert new == [], "\n".join(d.format() for d in new)

    def test_per_file_rules_are_clean_without_baseline(self):
        diags = LintEngine().run([SRC], project_phase=False)
        assert diags == [], "\n".join(d.format() for d in diags)


class TestSuppressions:
    def test_line_suppression(self):
        src = MISMATCH + "  # lint: disable=dimension-mismatch\n"
        assert LintEngine(["dimension-mismatch"]).check_source(src) == []

    def test_line_suppression_is_rule_specific(self):
        src = MISMATCH + "  # lint: disable=config-bounds\n"
        diags = LintEngine(["dimension-mismatch"]).check_source(src)
        assert len(diags) == 1

    def test_file_suppression(self):
        src = (
            "# lint: disable-file=dimension-mismatch\n"
            + MISMATCH
            + "\n\n\ndef g(ace_bit_cycles, idle_cycles):\n"
            "    return ace_bit_cycles - idle_cycles\n"
        )
        assert LintEngine(["dimension-mismatch"]).check_source(src) == []

    def test_wildcard_suppression(self):
        src = MISMATCH + "  # lint: disable=all\n"
        assert LintEngine(["dimension-mismatch"]).check_source(src) == []

    def test_directive_inside_string_is_ignored(self):
        src = 's = "# lint: disable-file=all"\n' + MISMATCH + "\n"
        assert len(LintEngine(["dimension-mismatch"]).check_source(src)) == 1

    def test_one_directive_suppresses_multiple_rules(self):
        src = (
            "def f(ace_bit_cycles, warmup_cycles, capacity_bits):\n"
            "    return ace_bit_cycles + warmup_cycles, warmup_cycles - capacity_bits"
            "  # lint: disable=dimension-mismatch, config-bounds\n"
        )
        assert LintEngine(["dimension-mismatch", "config-bounds"]).check_source(src) == []

    def test_unknown_rule_in_directive_warns(self):
        src = "x = 1  # lint: disable=not-a-rule\n"
        diags = LintEngine().check_source(src)
        assert len(diags) == 1
        assert diags[0].rule == "suppress"
        assert diags[0].severity == Severity.WARNING
        assert "not-a-rule" in diags[0].message

    def test_known_rule_in_directive_does_not_warn(self):
        src = "x = 1  # lint: disable=dimension-mismatch,all\n"
        assert LintEngine().check_source(src) == []

    def test_file_suppression_applies_to_project_passes(self, tmp_path):
        body = "interval_cycles = 10_000\n"
        bad = tmp_path / "consts.py"
        bad.write_text(body)
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) != []
        bad.write_text("# lint: disable-file=paper-fidelity\n" + body)
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) == []

    def test_line_suppression_applies_to_project_passes(self, tmp_path):
        bad = tmp_path / "consts.py"
        bad.write_text("interval_cycles = 10_000  # lint: disable=paper-fidelity\n")
        assert LintEngine(["paper-fidelity"]).run([str(tmp_path)]) == []


class TestSuppressionBaselineInteraction:
    """Multi-rule inline directives combined with ``--baseline``: a
    finding both suppressed and baselined is absorbed exactly once (by
    the suppression, before the baseline filter) and the unused
    baseline budget raises no warnings."""

    #: two findings on one line, both silenced by one directive.
    SUPPRESSED = (
        "def f(ace_bit_cycles, warmup_cycles, capacity_bits):\n"
        "    return ace_bit_cycles + warmup_cycles, warmup_cycles - capacity_bits"
        "  # lint: disable=dimension-mismatch, config-bounds\n"
    )
    #: same findings, no directive — what the baseline was written from.
    UNSUPPRESSED = (
        "def f(ace_bit_cycles, warmup_cycles, capacity_bits):\n"
        "    return ace_bit_cycles + warmup_cycles, warmup_cycles - capacity_bits\n"
    )

    def test_suppressed_and_baselined_counts_once(self, capsys, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(self.UNSUPPRESSED)
        baseline = tmp_path / "baseline.json"
        assert lint_main(["--no-cache", "--write-baseline", str(baseline), str(bad)]) == 0
        # Baseline absorbs the unsuppressed findings.
        assert lint_main(["--no-cache", "--baseline", str(baseline), str(bad)]) == 0
        # Now also suppress them inline: still exit 0, no double
        # accounting, and no stale/suppress warnings about the unused
        # baseline budget.
        bad.write_text(self.SUPPRESSED)
        capsys.readouterr()
        assert lint_main(["--no-cache", "--baseline", str(baseline), str(bad)]) == 0
        out = capsys.readouterr()
        assert "no problems found" in out.out
        assert "suppress" not in out.out and "stale" not in out.out.lower()
        assert out.err == ""

    def test_baseline_budget_not_consumed_by_suppressed_finding(self, capsys, tmp_path):
        # One baselined finding, two identical sites: with one site
        # suppressed inline the baseline budget must still absorb the
        # other (the suppressed finding never reaches the filter).
        two_sites = tmp_path / "mod.py"
        two_sites.write_text(MISMATCH + "\n")
        baseline = tmp_path / "baseline.json"
        rules = ["--no-cache", "--rules", "dimension-mismatch"]
        assert lint_main(rules + ["--write-baseline", str(baseline), str(two_sites)]) == 0
        two_sites.write_text(
            "def f(ace_bit_cycles, warmup_cycles):\n"
            "    x = ace_bit_cycles + warmup_cycles  # lint: disable=dimension-mismatch, config-bounds\n"
            "    return ace_bit_cycles + warmup_cycles\n"
        )
        capsys.readouterr()
        assert lint_main(rules + ["--baseline", str(baseline), str(two_sites)]) == 0
        assert "no problems found" in capsys.readouterr().out

    def test_second_regression_still_fails_past_suppression(self, capsys, tmp_path):
        # The suppression only covers its own line: a third identical
        # site exceeds the baseline count and fails the gate.
        mod = tmp_path / "mod.py"
        mod.write_text(MISMATCH + "\n")
        baseline = tmp_path / "baseline.json"
        rules = ["--no-cache", "--rules", "dimension-mismatch"]
        assert lint_main(rules + ["--write-baseline", str(baseline), str(mod)]) == 0
        mod.write_text(
            "def f(ace_bit_cycles, warmup_cycles):\n"
            "    x = ace_bit_cycles + warmup_cycles  # lint: disable=dimension-mismatch, config-bounds\n"
            "    y = ace_bit_cycles + warmup_cycles\n"
            "    return ace_bit_cycles + warmup_cycles\n"
        )
        capsys.readouterr()
        assert lint_main(rules + ["--baseline", str(baseline), str(mod)]) == 1
        capsys.readouterr()


class TestEngine:
    def test_syntax_error_becomes_diagnostic(self):
        diags = LintEngine().check_source("def broken(:\n")
        assert len(diags) == 1
        assert diags[0].rule == "syntax"

    def test_iter_python_files_deterministic_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "a.cpython-311.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            LintEngine().run([os.path.join(FIXTURES, "does_not_exist.py")])


class TestReporters:
    def test_json_report_round_trips(self):
        diags = run_rule("dimension-mismatch", FIXTURE_OF["dimension-mismatch"])
        payload = json.loads(render(diags, "json"))
        assert payload["summary"]["total"] == len(diags)
        assert payload["diagnostics"][0]["rule"] == "dimension-mismatch"

    def test_text_report_mentions_rule_and_location(self):
        diags = run_rule("dimension-mismatch", FIXTURE_OF["dimension-mismatch"])
        text = render(diags, "text")
        assert "[dimension-mismatch]" in text
        assert "dimension_bad.py" in text

    def test_severity_str(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"
        assert str(Severity.NOTE) == "note"


class TestCLI:
    def test_exit_codes(self, capsys):
        assert lint_main(["--no-cache", "--baseline", BASELINE, SRC]) == 0
        assert lint_main(["--no-cache", FIXTURE_OF["dimension-mismatch"]]) == 1
        capsys.readouterr()

    def test_no_paths_and_no_default_roots_is_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--no-cache"]) == 2
        assert "no default roots" in capsys.readouterr().err

    def test_default_roots_discovered_from_cwd(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "src"
        src.mkdir()
        (src / "ok.py").write_text("x = 1\n")
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "bad.py").write_text("interval_cycles = 10_000\n")
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--no-cache"]) == 1
        assert "paper-fidelity" in capsys.readouterr().out

    def test_fail_on_threshold(self, capsys):
        # The emit-coverage rule produces warnings only on its fixture:
        # gating on errors passes, gating on warnings (default) fails.
        fixture = os.path.join(FIXTURES, "emit_coverage")
        base = ["--no-cache", "--rules", "emit-coverage"]
        assert lint_main(base + ["--fail-on", "error", fixture]) == 0
        assert lint_main(base + [fixture]) == 1
        assert lint_main(base + ["--fail-on", "warning", fixture]) == 1
        capsys.readouterr()

    def test_src_is_clean(self, capsys):
        # The tree carries no findings at all — the baseline is empty.
        assert lint_main(["--no-cache", SRC]) == 0
        capsys.readouterr()

    def test_baseline_round_trip(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        fixture = FIXTURE_OF["dimension-mismatch"]
        assert lint_main(["--no-cache", "--write-baseline", str(baseline), fixture]) == 0
        assert lint_main(["--no-cache", "--baseline", str(baseline), fixture]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines()] == all_rules()

    def test_rules_subset(self, capsys):
        # Only config-bounds runs: the dimension-mismatch fixture stays clean.
        assert lint_main(
            ["--rules", "config-bounds", FIXTURE_OF["dimension-mismatch"]]
        ) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, capsys):
        assert lint_main(["--rules", "bogus", SRC]) == 2
        capsys.readouterr()

    def test_json_format(self, capsys):
        assert lint_main(["--format", "json", FIXTURE_OF["dimension-mismatch"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1

    def test_module_entry_point(self):
        """`python -m repro.lint` is the documented front door."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--no-cache",
             "--baseline", BASELINE, SRC],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no problems found" in proc.stdout


class TestMypyGate:
    """Strict typing of the hot-path packages (CI enforces this; locally
    the test skips when mypy is not installed)."""

    def test_core_and_reliability_are_strict_clean(self):
        pytest.importorskip("mypy")
        env = dict(os.environ)
        env["MYPYPATH"] = SRC + os.pathsep + env.get("MYPYPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--strict", "-p", "repro.core", "-p", "repro.reliability"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(SRC),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
