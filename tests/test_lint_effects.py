"""The stage-effect / state-contract layer: local effect extraction,
the interprocedural fold, contract build/diff, the dimension lattice,
and the three rules riding them (``state-contract-drift``,
``escaped-state-write``, ``dimension-mismatch``)."""

import ast
import json
import textwrap

import pytest

from repro.analysis import LintEngine
from repro.analysis.effects.analyze import EffectAnalysis, PipelineContract
from repro.analysis.effects.cli import contract_main
from repro.analysis.effects.contract import (
    build_contract,
    diff_contracts,
    render_contract,
)
from repro.analysis.effects.dimensions import (
    BIT_CYCLES,
    BITS,
    CYCLES,
    FRACTION,
    PER_CYCLE,
    check_function,
    dimension_of_name,
)
from repro.analysis.effects.model import (
    extract_local_effects,
    paths_overlap,
    truncate_path,
)
from repro.analysis.engine import build_project

# ----------------------------------------------------------------------
# A miniature simulator tree exercised by most contract tests.
# ----------------------------------------------------------------------
MINI_PIPELINE = """
from collections import deque


class IssueQueue:
    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}
        self.count = 0

    def insert(self, tag, inst):
        self.entries[tag] = inst
        self.count += 1

    def dump(self):
        return self.entries


class ReorderBuffer:
    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = deque()

    def push(self, inst):
        self.entries.append(inst)

    def commit(self):
        if self.entries:
            return self.entries.popleft()
        return None


class MiniPipeline:
    def __init__(self, num_threads):
        self.num_threads = num_threads
        self.cycle = 0
        self.iq = IssueQueue(32)
        self.robs = [ReorderBuffer(64) for _ in range(num_threads)]
        self.fetch_q = [0] * num_threads
        self.bus = None

    def _fetch(self):
        for t in range(self.num_threads):
            self.fetch_q[t] += 1

    def _dispatch(self):
        self.iq.insert(self.cycle, self.fetch_q[0])

    def _commit(self):
        for rob in self.robs:
            rob.commit()

    def run(self, cycles):
        for _ in range(cycles):
            self.bus.stage = "fetch"
            self._fetch()
            self.bus.stage = "dispatch"
            self._dispatch()
            self.bus.stage = "commit"
            self._commit()
            self.cycle += 1
"""


def mini_project(tmp_path, source=MINI_PIPELINE, name="mini.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return build_project([str(tmp_path)])


def mini_contract(tmp_path, source=MINI_PIPELINE):
    return PipelineContract(mini_project(tmp_path, source))


def effects_of(body, qualname="m.C.f"):
    tree = ast.parse(textwrap.dedent(body))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return extract_local_effects(func, qualname)


# ----------------------------------------------------------------------
# Local effect extraction
# ----------------------------------------------------------------------
class TestLocalEffects:
    def test_attribute_reads_and_writes(self):
        eff = effects_of(
            """
            def f(self):
                self.total = self.count + 1
            """
        )
        assert "count" in eff.reads
        assert "total" in eff.writes

    def test_subscript_write_is_element_write(self):
        eff = effects_of(
            """
            def f(self, tag, inst):
                self.entries[tag] = inst
            """
        )
        assert "entries[*]" in eff.writes

    def test_alias_through_local(self):
        eff = effects_of(
            """
            def f(self, t):
                rob = self.robs[t]
                rob.head = 0
            """
        )
        assert "robs[*].head" in eff.writes

    def test_for_loop_aliases_element(self):
        eff = effects_of(
            """
            def f(self):
                for rob in self.robs:
                    rob.flush()
            """
        )
        assert any(c.receiver == "robs[*]" and c.method == "flush" for c in eff.calls)

    def test_mutator_on_unaliased_param_ignored(self):
        eff = effects_of(
            """
            def f(self, queue):
                queue.append(1)
            """
        )
        assert eff.writes == {}
        assert all(c.receiver != "queue" for c in eff.calls)

    def test_augassign_is_read_and_write(self):
        eff = effects_of(
            """
            def f(self):
                self.cycle += 1
            """
        )
        assert "cycle" in eff.reads and "cycle" in eff.writes

    def test_truncate_and_overlap(self):
        assert truncate_path("a.b.c.d.e") == "a.b.c.d"
        assert paths_overlap("robs[*]", "robs[*].entries[*]")
        assert not paths_overlap("robs[*]", "robstats")


# ----------------------------------------------------------------------
# Interprocedural fold
# ----------------------------------------------------------------------
class TestEffectFold:
    def test_callee_effects_reroot_through_receiver(self, tmp_path):
        project = mini_project(tmp_path)
        analysis = EffectAnalysis(project)
        summary = analysis.summary("mini.MiniPipeline._dispatch")
        assert "iq.entries[*]" in summary.writes
        assert "iq.count" in summary.writes

    def test_builtin_mutator_on_state_is_container_write(self, tmp_path):
        project = mini_project(tmp_path)
        analysis = EffectAnalysis(project)
        summary = analysis.summary("mini.ReorderBuffer.push")
        assert "entries[*]" in summary.writes

    def test_reachability_covers_stage_closure(self, tmp_path):
        project = mini_project(tmp_path)
        analysis = EffectAnalysis(project)
        reachable = analysis.reachable_from("mini.MiniPipeline.run")
        assert "mini.IssueQueue.insert" in reachable
        assert "mini.ReorderBuffer.commit" in reachable
        assert "mini.IssueQueue.dump" not in reachable

    def test_constructor_typing_covers_listcomp(self, tmp_path):
        project = mini_project(tmp_path)
        analysis = EffectAnalysis(project)
        types = analysis.attr_types("mini.MiniPipeline")
        assert types["iq"] == "mini.IssueQueue"
        assert types["robs"] == "mini.ReorderBuffer"


# ----------------------------------------------------------------------
# Pipeline contract
# ----------------------------------------------------------------------
class TestPipelineContract:
    def test_stages_in_run_order(self, tmp_path):
        contract = mini_contract(tmp_path)
        assert [s.name for s in contract.stages] == ["fetch", "dispatch", "commit"]

    def test_stage_dependency_on_fetch_queue(self, tmp_path):
        contract = mini_contract(tmp_path)
        dep = next(
            d
            for d in contract.dependencies
            if d.writer == "fetch" and d.reader == "dispatch"
        )
        assert any(p.startswith("fetch_q") for p in dep.paths)

    def test_state_partitioning(self, tmp_path):
        contract = mini_contract(tmp_path)
        assert "robs" in contract.per_thread
        assert "fetch_q" in contract.per_thread
        assert "iq" in contract.shared
        assert "cycle" in contract.shared

    def test_iq_and_rob_verdicts_with_locations(self, tmp_path):
        contract = mini_contract(tmp_path)
        iq = contract.structures["iq"]
        rob = contract.structures["rob"]
        assert not iq.vectorizable
        kinds = {b.kind for b in iq.blockers}
        assert "dynamic-container" in kinds  # self.entries = {}
        assert "escape" in kinds  # dump() returns self.entries
        assert all(b.line > 0 for b in iq.blockers)
        assert not rob.vectorizable
        assert any(
            b.kind == "dynamic-container" and "deque" in b.detail
            for b in rob.blockers
        )

    def test_dynamic_dispatch_only_inside_loop_bodies(self, tmp_path):
        methods = '''
    def scan(self, items):
        for item in items:
            if isinstance(item, int):  # flagged
                self.count += 1

    def over_iterable(self, items):
        for item in (items if isinstance(items, list) else [items]):
            self.count += item

    def outside_loop(self, item):
        return hasattr(item, "tag")

    def nested_class(self, items):
        for item in items:
            class Probe:
                def check(self, xs):
                    for x in xs:
                        return getattr(x, "tag", None)
        return items
'''
        source = MINI_PIPELINE.replace(
            "    def dump(self):", methods.lstrip("\n") + "\n    def dump(self):"
        )
        flagged = 1 + next(
            i
            for i, line in enumerate(textwrap.dedent(source).splitlines())
            if line.endswith("# flagged")
        )
        contract = mini_contract(tmp_path, source)
        dispatch = [
            b for b in contract.structures["iq"].blockers if b.kind == "dynamic-dispatch"
        ]
        assert [(b.qualname, b.line, b.detail) for b in dispatch] == [
            ("mini.IssueQueue.scan", flagged, "isinstance() per loop entry")
        ]

    def test_no_pipeline_raises_lookup_error(self, tmp_path):
        project = mini_project(tmp_path, source="class Plain:\n    pass\n")
        with pytest.raises(LookupError):
            PipelineContract(project)

    def test_bare_calls_fall_back_when_unlabeled(self, tmp_path):
        source = MINI_PIPELINE.replace('self.bus.stage = "fetch"\n            ', "")
        source = source.replace('self.bus.stage = "dispatch"\n            ', "")
        source = source.replace('self.bus.stage = "commit"\n            ', "")
        contract = mini_contract(tmp_path, source)
        assert [s.name for s in contract.stages] == ["fetch", "dispatch", "commit"]


# ----------------------------------------------------------------------
# Contract document: build, render, diff
# ----------------------------------------------------------------------
class TestContractDocument:
    def test_render_is_byte_stable(self, tmp_path):
        doc = build_contract(mini_contract(tmp_path))
        again = build_contract(mini_contract(tmp_path))
        assert render_contract(doc) == render_contract(again)

    def test_roundtrips_through_json(self, tmp_path):
        doc = build_contract(mini_contract(tmp_path))
        assert json.loads(render_contract(doc)) == doc

    def test_diff_reports_each_divergence(self, tmp_path):
        doc = build_contract(mini_contract(tmp_path))
        mutated = json.loads(render_contract(doc))
        mutated["state"]["shared"].append("zz_new_attr")
        diffs = diff_contracts(doc, mutated)
        assert len(diffs) == 1 and "zz_new_attr" in diffs[0]
        assert diff_contracts(doc, json.loads(render_contract(doc))) == []


# ----------------------------------------------------------------------
# The CLI: repro lint contract
# ----------------------------------------------------------------------
class TestContractCLI:
    def test_write_contract_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--write-contract"]) == 0
        first = (tmp_path / "backend-contract.json").read_bytes()
        assert contract_main(["mini.py", "--write-contract"]) == 0
        assert (tmp_path / "backend-contract.json").read_bytes() == first

    def test_diff_clean_then_drift(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--write-contract"]) == 0
        assert contract_main(["mini.py", "--diff"]) == 0
        # Seeded mutation: a new cross-object write in the dispatch
        # stage must flip the gate.
        mutated = textwrap.dedent(MINI_PIPELINE).replace(
            "self.iq.insert(self.cycle, self.fetch_q[0])",
            "self.iq.insert(self.cycle, self.fetch_q[0])\n        self.iq.count = 0",
        )
        (tmp_path / "mini.py").write_text(mutated)
        capsys.readouterr()
        assert contract_main(["mini.py", "--diff"]) == 1
        out = capsys.readouterr().out
        assert "contract drift" in out

    def test_diff_missing_contract_is_usage_error(self, tmp_path, monkeypatch):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--diff"]) == 2

    def test_json_format_prints_canonical_document(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pipeline"].endswith("MiniPipeline")
        assert [s["name"] for s in doc["stages"]] == ["fetch", "dispatch", "commit"]

    def test_text_summary_lists_blockers(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py"]) == 0
        out = capsys.readouterr().out
        assert "SoA-feasibility verdicts" in out
        assert "dynamic-container" in out


# ----------------------------------------------------------------------
# state-contract-drift / escaped-state-write project rules
# ----------------------------------------------------------------------
class TestContractCheckers:
    def test_drift_silent_without_committed_contract(self, tmp_path, monkeypatch):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert LintEngine(["state-contract-drift"]).run(["mini.py"]) == []

    def test_drift_silent_when_contract_matches(self, tmp_path, monkeypatch):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--write-contract"]) == 0
        assert LintEngine(["state-contract-drift"]).run(["mini.py"]) == []

    def test_drift_fires_on_divergence(self, tmp_path, monkeypatch):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--write-contract"]) == 0
        doc = json.loads((tmp_path / "backend-contract.json").read_text())
        doc["state"]["shared"].append("zz_phantom")
        (tmp_path / "backend-contract.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        diags = LintEngine(["state-contract-drift"]).run(["mini.py"])
        assert len(diags) == 1
        assert diags[0].rule == "state-contract-drift"
        assert "zz_phantom" in diags[0].message
        assert diags[0].symbol.endswith("MiniPipeline")

    def test_drift_silent_without_pipeline(self, tmp_path, monkeypatch):
        (tmp_path / "plain.py").write_text("class Plain:\n    pass\n")
        monkeypatch.chdir(tmp_path)
        assert LintEngine(["state-contract-drift"]).run(["plain.py"]) == []

    def test_escaped_write_flags_cross_object_mutation(self, tmp_path, monkeypatch):
        mutated = textwrap.dedent(MINI_PIPELINE).replace(
            "self.iq.insert(self.cycle, self.fetch_q[0])",
            "self.iq.insert(self.cycle, self.fetch_q[0])\n        self.iq.count = 0",
        )
        (tmp_path / "mini.py").write_text(mutated)
        monkeypatch.chdir(tmp_path)
        diags = LintEngine(["escaped-state-write"]).run(["mini.py"])
        assert len(diags) == 1
        diag = diags[0]
        assert diag.rule == "escaped-state-write"
        assert "iq.count" in diag.message
        assert diag.symbol == "mini.MiniPipeline._dispatch"
        assert diag.line > 0 and diag.end_line >= diag.line

    def test_escaped_write_clean_on_method_calls(self, tmp_path, monkeypatch):
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert LintEngine(["escaped-state-write"]).run(["mini.py"]) == []

    def test_drift_invalidates_cached_project_snapshot(self, tmp_path, monkeypatch):
        """Editing only backend-contract.json must bust the project
        cache (fingerprint_files), not serve stale clean results."""
        (tmp_path / "mini.py").write_text(textwrap.dedent(MINI_PIPELINE))
        monkeypatch.chdir(tmp_path)
        assert contract_main(["mini.py", "--write-contract"]) == 0
        cache = str(tmp_path / "lintcache")
        engine = LintEngine(["state-contract-drift"], cache_dir=cache)
        assert engine.run(["mini.py"]) == []
        doc = json.loads((tmp_path / "backend-contract.json").read_text())
        doc["version"] = 99
        (tmp_path / "backend-contract.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        engine2 = LintEngine(["state-contract-drift"], cache_dir=cache)
        diags = engine2.run(["mini.py"])
        assert diags and diags[0].rule == "state-contract-drift"


# ----------------------------------------------------------------------
# Dimension lattice + dimension-mismatch rule
# ----------------------------------------------------------------------
def findings_of(body):
    tree = ast.parse(textwrap.dedent(body))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return check_function(func)


class TestDimensionLattice:
    def test_name_seeding(self):
        assert dimension_of_name("ace_bit_cycles") == BIT_CYCLES
        assert dimension_of_name("_sample_bits") == BITS
        assert dimension_of_name("warmup_cycles") == CYCLES
        assert dimension_of_name("online_avf_estimate") == FRACTION
        assert dimension_of_name("entries") == "unknown"

    def test_bit_cycles_seeding_wins_over_bits(self):
        # checked before the *_bits suffix: a bit-cycle accumulator is
        # not a bit count.
        assert dimension_of_name("rob_bit_cycles") == BIT_CYCLES

    def test_cycles_plus_bit_cycles_flagged(self):
        findings = findings_of(
            """
            def f(self):
                total = self.ace_bit_cycles + self.warmup_cycles
            """
        )
        assert len(findings) == 1
        assert "mixed dimensions" in findings[0].message
        assert findings[0].line == 3

    def test_cycle_minus_cycle_is_duration_not_flagged(self):
        assert (
            findings_of(
                """
                def f(self):
                    wait_cycles = self.leave_cycle - self.enter_cycle
                """
            )
            == []
        )

    def test_dropped_normalization_flagged(self):
        # bits / (cycles * bits) leaves 1/cycles, not a fraction: the
        # shape of a dropped `/ (bits * cycles)` AVF normalization.
        findings = findings_of(
            """
            def f(self, cycles):
                avf = self.resident_bits / (cycles * self.capacity_bits)
            """
        )
        assert len(findings) == 1
        assert PER_CYCLE in findings[0].message

    def test_correct_normalization_clean(self):
        assert (
            findings_of(
                """
                def f(self, cycles):
                    avf = self.ace_bit_cycles / (cycles * self.capacity_bits)
                """
            )
            == []
        )

    def test_keyword_argument_mismatch_flagged(self):
        findings = findings_of(
            """
            def f(self, cycles):
                self.record(
                    online_avf_estimate=self.resident_bits
                    / (cycles * self.capacity_bits)
                )
            """
        )
        assert len(findings) == 1
        assert "online_avf_estimate" in findings[0].message

    def test_per_cycle_integration_allowed(self):
        # acc_bit_cycles += resident bits, once per cycle: canonical
        # ACE accumulation, not a mixup.
        assert (
            findings_of(
                """
                def f(self, iq):
                    self.ace_bit_cycles += iq.pred_ace_bits
                """
            )
            == []
        )

    def test_accumulating_cycles_into_bits_flagged(self):
        findings = findings_of(
            """
            def f(self):
                self.total_bits += self.stall_cycles
            """
        )
        assert len(findings) == 1
        assert "accumulating" in findings[0].message

    def test_literals_are_compatible(self):
        assert (
            findings_of(
                """
                def f(self):
                    self.cycle = self.cycle + 1
                """
            )
            == []
        )

    def test_finding_has_end_span(self):
        findings = findings_of(
            """
            def f(self):
                t = self.ace_bit_cycles + self.warmup_cycles
            """
        )
        f = findings[0]
        assert f.end_line == f.line and f.end_col > f.col


class TestDimensionChecker:
    def test_engine_integration(self, tmp_path):
        bad = tmp_path / "avfmath.py"
        bad.write_text(
            textwrap.dedent(
                """
                class A:
                    def close(self, cycles):
                        self.total = self.ace_bit_cycles + self.warmup_cycles
                """
            )
        )
        diags = LintEngine(["dimension-mismatch"]).run([str(bad)])
        assert len(diags) == 1
        assert diags[0].rule == "dimension-mismatch"
        assert diags[0].symbol == "close"

    def test_suppression_comment_respected(self, tmp_path):
        bad = tmp_path / "avfmath.py"
        bad.write_text(
            textwrap.dedent(
                """
                class A:
                    def close(self, cycles):
                        self.total = self.ace_bit_cycles + self.warmup_cycles  # lint: disable=dimension-mismatch
                """
            )
        )
        assert LintEngine(["dimension-mismatch"]).run([str(bad)]) == []

    def test_real_tree_is_clean(self):
        diags = LintEngine(["dimension-mismatch"]).run(["src"])
        assert diags == []
