"""The project-wide layer: the import-resolved call graph and the two
passes built on it (paper-fidelity, emit-coverage)."""

import ast
import os
import textwrap

import pytest

from repro.analysis import LintEngine, Severity
from repro.analysis.checkers.paper_fidelity import PAPER_CONSTANTS
from repro.analysis.flow import CallGraph, build_module_info

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "lint_fixtures")


def run_pass(rule, *paths):
    """Run one project pass (engine run, both phases) over paths."""
    return LintEngine([rule]).run(list(paths))


def fixture(name):
    return os.path.join(FIXTURES, name)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
def graph_of(**sources):
    """Build a CallGraph from {dotted_module_name: source}."""
    modules = {}
    for name, src in sources.items():
        path = name.replace(".", os.sep) + ".py"
        modules[name] = build_module_info(path, ast.parse(textwrap.dedent(src)), name)
    return CallGraph(modules), modules


class TestCallGraph:
    def test_self_call_resolves_through_class(self):
        graph, _ = graph_of(
            m="""
            class A:
                def top(self):
                    self.helper()
                def helper(self):
                    pass
            """
        )
        assert graph.callees("m.A.top") == ["m.A.helper"]

    def test_inherited_method_resolves_through_mro(self):
        graph, _ = graph_of(
            m="""
            class Base:
                def helper(self):
                    pass
            class Child(Base):
                def top(self):
                    self.helper()
            """
        )
        assert graph.callees("m.Child.top") == ["m.Base.helper"]

    def test_super_call_resolves_to_base(self):
        graph, _ = graph_of(
            m="""
            class Base:
                def reset(self):
                    pass
            class Child(Base):
                def reset(self):
                    super().reset()
            """
        )
        assert graph.callees("m.Child.reset") == ["m.Base.reset"]

    def test_cross_module_base_through_import(self):
        graph, mods = graph_of(
            pkg_base="""
            class Base:
                def helper(self):
                    pass
            """,
            pkg_child="""
            from pkg_base import Base
            class Child(Base):
                def top(self):
                    self.helper()
            """,
        )
        assert graph.callees("pkg_child.Child.top") == ["pkg_base.Base.helper"]
        mro = graph.mro(mods["pkg_child"], mods["pkg_child"].classes["Child"])
        assert [c.qualname for _, c in mro] == ["pkg_child.Child", "pkg_base.Base"]

    def test_from_imported_function_call(self):
        graph, _ = graph_of(
            util="""
            def helper():
                pass
            """,
            main="""
            from util import helper
            def top():
                helper()
            """,
        )
        assert graph.callees("main.top") == ["util.helper"]

    def test_reaches_emit_through_helper_chain(self):
        graph, _ = graph_of(
            m="""
            class C:
                def a(self):
                    self.b()
                def b(self):
                    self.c()
                def c(self):
                    self.bus.emit("t", x=1)
                def lonely(self):
                    self.x = 1
            """
        )
        assert graph.reaches_emit("m.C.a")
        assert graph.reaches_emit("m.C.c")
        assert not graph.reaches_emit("m.C.lonely")

    def test_recursive_functions_terminate(self):
        graph, _ = graph_of(
            m="""
            def even(n):
                return n == 0 or odd(n - 1)
            def odd(n):
                return n != 0 and even(n - 1)
            """
        )
        assert not graph.reaches_emit("m.even")

    def test_super_resolves_through_package_reexport(self):
        # Regression: a base class imported from a package __init__
        # (``from pkg import Base``) used to leave super()/MRO edges
        # unresolved because the alias chain through the re-exporting
        # __init__ module was never followed.
        graph, mods = graph_of(
            **{
                "pkg": """
                from pkg.base import Base
                """,
                "pkg.base": """
                class Base:
                    def reset(self):
                        pass
                    def tick(self):
                        pass
                """,
                "pkg.sub": """
                from pkg import Base
                class Sub(Base):
                    def reset(self):
                        super().reset()
                    def spin(self):
                        self.tick()
                """,
            }
        )
        assert graph.callees("pkg.sub.Sub.reset") == ["pkg.base.Base.reset"]
        assert graph.callees("pkg.sub.Sub.spin") == ["pkg.base.Base.tick"]
        mro = graph.mro(mods["pkg.sub"], mods["pkg.sub"].classes["Sub"])
        assert [c.qualname for _, c in mro] == ["pkg.sub.Sub", "pkg.base.Base"]

    def test_classmethod_chain_through_reexport(self):
        graph, _ = graph_of(
            **{
                "pkg": """
                from pkg.base import Base
                """,
                "pkg.base": """
                class Base:
                    def tick(self):
                        pass
                """,
                "pkg.user": """
                from pkg import Base
                def drive(obj):
                    Base.tick(obj)
                """,
            }
        )
        assert graph.callees("pkg.user.drive") == ["pkg.base.Base.tick"]

    def test_super_reexport_disk_fixture(self):
        paths = [
            fixture(os.path.join("super_reexport", name))
            for name in ("__init__.py", "base.py", "sub.py")
        ]
        modules = {}
        for path in paths:
            info = build_module_info(path, ast.parse(open(path).read()))
            modules[info.name] = info
        graph = CallGraph(modules)
        pkg = "tests.lint_fixtures.super_reexport"
        assert graph.callees(f"{pkg}.sub.Sub.reset") == [f"{pkg}.base.Base.reset"]
        assert graph.callees(f"{pkg}.sub.Sub.spin") == [f"{pkg}.base.Base.tick"]


# ----------------------------------------------------------------------
# The four project passes, against their fixtures
# ----------------------------------------------------------------------
class TestPaperFidelityPass:
    def test_fires_on_every_bad_binding_site(self):
        diags = run_pass("paper-fidelity", fixture("paper_fidelity_bad.py"))
        by_sev = {}
        for d in diags:
            by_sev.setdefault(d.severity, []).append(d)
        messages = [d.message for d in diags]
        assert any("assignment re-hard-codes" in m for m in messages)
        assert any("drifts from the paper's" in m for m in messages)
        assert any("parameter default re-hard-codes" in m for m in messages)
        assert any("keyword argument re-hard-codes" in m for m in messages)
        assert any("comparison re-hard-codes" in m for m in messages)
        assert len(by_sev[Severity.WARNING]) == 1  # only the drifted ace_window

    def test_silent_on_config_derived_values(self):
        assert run_pass("paper-fidelity", fixture("paper_fidelity_ok.py")) == []

    def test_config_module_is_exempt(self, tmp_path):
        cfg = tmp_path / "config.py"
        cfg.write_text("interval_cycles = 10_000\n")
        assert run_pass("paper-fidelity", str(tmp_path)) == []

    def test_test_modules_are_exempt(self, tmp_path):
        mod = tmp_path / "test_something.py"
        mod.write_text("interval_cycles = 10_000\n")
        assert run_pass("paper-fidelity", str(tmp_path)) == []

    @pytest.mark.parametrize(
        "const", PAPER_CONSTANTS, ids=[c.key for c in PAPER_CONSTANTS]
    )
    def test_each_constant_detects_drift_with_section_reference(self, const, tmp_path):
        ident = sorted(const.identifiers)[0]
        drifted = const.value * 2 + 1
        mod = tmp_path / "knobs.py"
        mod.write_text(f"{ident} = {drifted!r}\n")
        diags = run_pass("paper-fidelity", str(mod))
        assert len(diags) == 1
        d = diags[0]
        assert d.severity == Severity.WARNING
        assert d.symbol == const.key
        assert const.section in d.message
        assert const.config_attr in d.message

    @pytest.mark.parametrize(
        "const", PAPER_CONSTANTS, ids=[c.key for c in PAPER_CONSTANTS]
    )
    def test_each_constant_detects_rehardcoding_as_error(self, const, tmp_path):
        ident = sorted(const.identifiers)[0]
        mod = tmp_path / "knobs.py"
        mod.write_text(f"{ident} = {const.value!r}\n")
        diags = run_pass("paper-fidelity", str(mod))
        assert len(diags) == 1
        assert diags[0].severity == Severity.ERROR
        assert const.section in diags[0].message


class TestEmitCoveragePass:
    def test_flags_only_the_silent_mutating_hook(self):
        diags = run_pass("emit-coverage", os.path.join(FIXTURES, "emit_coverage"))
        assert {d.symbol for d in diags} == {"SilentDVM.on_sample"}
        assert diags[0].severity == Severity.WARNING
        assert "bus.emit" in diags[0].message
