"""Interprocedural effect fold, stage discovery and SoA verdicts.

:class:`EffectAnalysis` wraps a :class:`~repro.analysis.flow.project.
ProjectContext` and answers, for any method, the transitively folded
read/write sets over the *pipeline's* state: callee effects on their
own ``self`` are re-rooted through the receiver path at each call site
(``rob.commit_head()`` with ``rob = self.robs[t]`` folds the ROB's
``entries[*]`` writes in as ``robs[*].entries[*]``).  Receiver types
come from a constructor-typed-attribute pass over each class's
``__init__`` (``self.iq = IssueQueue(...)``, ``self.robs =
[ReorderBuffer(...) for t in range(n)]``).

:class:`PipelineContract` runs the fold from the pipeline's ``run``
entry: stage methods (discovered from the ``bus.stage = "..."`` labels
in the run loop, falling back to the direct ``self._stage()`` call
sequence), per-stage effect sets, inferred stage-ordering
dependencies, per-thread vs shared state partitioning, and an
SoA-feasibility verdict per architectural structure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.effects.model import (
    MUTATOR_METHODS,
    CallSite,
    LocalEffects,
    Location,
    extract_local_effects,
    join_path,
    path_root,
    paths_overlap,
    truncate_path,
)
from repro.analysis.flow.project import ProjectContext
from repro.analysis.flow.symbols import ClassInfo, ModuleInfo

#: Architectural structures that get an SoA-feasibility verdict; the
#: key is the conventional short name used in the contract document.
STRUCTURE_CLASSES = {
    "IssueQueue": "iq",
    "ReorderBuffer": "rob",
    "LoadStoreQueue": "lsq",
    "RenameTable": "rename",
    "FunctionalUnitPool": "fu",
}

#: Constructors of growable (pointer-chasing) containers — the
#: antithesis of a fixed-slot struct-of-arrays layout.
_GROWABLE_CONSTRUCTORS = frozenset({"deque", "dict", "set", "defaultdict", "list"})

#: Builtins whose per-entry type dispatch has no array equivalent.
_DISPATCH_BUILTINS = frozenset({"isinstance", "getattr", "hasattr"})


def _loop_dispatch_calls(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[int, str]]:
    """``(line, builtin)`` for every ``isinstance``/``getattr``/``hasattr``
    call inside a loop body of ``func``.  A ``for`` loop's iterable is
    evaluated once, so it counts as outside the loop; nested ``class``
    bodies are skipped."""
    found: set[tuple[int, str]] = set()

    def visit(node: ast.AST, in_loop: bool) -> None:
        if (
            in_loop
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _DISPATCH_BUILTINS
        ):
            found.add((node.lineno, node.func.id))
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            visit(node.iter, in_loop)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in node.body + node.orelse:
                visit(child, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop)

    for stmt in func.body:
        visit(stmt, False)
    return sorted(found)


def _iter_self_assigns(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[tuple[ast.stmt, str, ast.expr]]:
    """Every ``self.<attr> = value`` binding in ``func``, covering both
    plain and annotated assignments (``self.x: dict[int, T] = {}``)."""
    out: list[tuple[ast.stmt, str, ast.expr]] = []
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                out.append((stmt, target.attr, value))
    return out


@dataclass(frozen=True)
class Access:
    """One folded state access, anchored where this frame caused it."""

    path: str
    location: Location


@dataclass
class EffectSummary:
    """Folded (transitive) read/write sets of one method."""

    qualname: str
    reads: dict[str, Location] = field(default_factory=dict)
    writes: dict[str, Location] = field(default_factory=dict)
    #: resolved callee qualnames, for reachability queries.
    callees: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class SoABlocker:
    """One reason a structure resists struct-of-arrays translation."""

    kind: str
    qualname: str
    line: int
    detail: str

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "qualname": self.qualname,
            "line": self.line,
            "detail": self.detail,
        }


@dataclass
class StructureVerdict:
    """SoA-feasibility verdict for one architectural structure."""

    name: str
    class_qualname: str
    blockers: list[SoABlocker]

    @property
    def vectorizable(self) -> bool:
        return not self.blockers

    def to_dict(self) -> dict[str, object]:
        return {
            "class": self.class_qualname,
            "vectorizable": self.vectorizable,
            "blockers": [b.to_dict() for b in self.blockers],
        }


class EffectAnalysis:
    """Interprocedural effect queries over one project."""

    def __init__(self, project: ProjectContext):
        self.project = project
        self.graph = project.call_graph
        self._local: dict[str, LocalEffects] = {}
        self._summaries: dict[str, EffectSummary] = {}
        self._attr_types: dict[str, dict[str, str]] = {}
        self._visiting: set[str] = set()

    # -- constructor-typed attributes ----------------------------------
    def attr_types(self, cls_qualname: str) -> dict[str, str]:
        """``attr -> class qualname`` for attributes whose ``__init__``
        value is a project-class constructor (directly, or as the
        element of a list comprehension / list-multiply)."""
        cached = self._attr_types.get(cls_qualname)
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        self._attr_types[cls_qualname] = types
        resolved = self.graph.resolve_class(cls_qualname)
        if resolved is None:
            return types
        mod, cls = resolved
        init = cls.methods.get("__init__")
        if init is None:
            return types
        for _stmt, attr, value in _iter_self_assigns(init):
            ctor = self._constructed_class(mod, value)
            if ctor is not None:
                types.setdefault(attr, ctor)
        return types

    def _constructed_class(self, mod: ModuleInfo, value: ast.expr) -> str | None:
        if isinstance(value, ast.ListComp) and isinstance(value.elt, ast.Call):
            value = value.elt
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            if isinstance(value.left, ast.List) and len(value.left.elts) == 1:
                elt = value.left.elts[0]
                if isinstance(elt, ast.Call):
                    value = elt
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            # module.Class(...) through a plain import.
            base = mod.imports.get(func.value.id)
            if base is not None:
                name = f"{base}.{func.attr}"
        if name is None:
            return None
        if name in mod.classes:
            return f"{mod.name}.{name}"
        target = mod.imports.get(name, name)
        resolved = self.graph.resolve_class(target)
        if resolved is not None:
            return resolved[1].qualname
        return None

    def _receiver_class(self, owner_qualname: str, receiver: str) -> str | None:
        """Class of the object at ``receiver`` (a path on ``owner``)."""
        current = owner_qualname
        for segment in receiver.split("."):
            attr = segment.replace("[*]", "")
            current = self.attr_types(current).get(attr) if current else None
            if current is None:
                return None
        return current

    # -- local + folded summaries --------------------------------------
    def local(self, qualname: str) -> LocalEffects | None:
        cached = self._local.get(qualname)
        if cached is not None:
            return cached
        node = self.graph.functions.get(qualname)
        if node is None:
            return None
        effects = extract_local_effects(node.node, qualname)
        self._local[qualname] = effects
        return effects

    def summary(self, qualname: str) -> EffectSummary:
        """Transitively folded effects of ``qualname`` on its own
        ``self`` state.  Cycles contribute their already-folded part."""
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        summary = EffectSummary(qualname=qualname)
        if qualname in self._visiting:
            return summary  # cycle cut: the caller merges the fixpoint
        local = self.local(qualname)
        if local is None:
            return summary
        self._visiting.add(qualname)
        try:
            for path, loc in local.reads.items():
                summary.reads.setdefault(path, loc)
            for path, loc in local.writes.items():
                summary.writes.setdefault(path, loc)
            node = self.graph.functions[qualname]
            owner = f"{node.module}.{node.cls}" if node.cls else None
            for call in local.calls:
                self._fold_call(summary, owner, call)
        finally:
            self._visiting.discard(qualname)
        self._summaries[qualname] = summary
        return summary

    def _fold_call(
        self, summary: EffectSummary, owner: str | None, call: CallSite
    ) -> None:
        callee = self._resolve_callsite(owner, call)
        if callee is None:
            # A builtin mutator on a state path is a container write.
            if call.receiver and call.method in MUTATOR_METHODS:
                summary.writes.setdefault(
                    truncate_path(f"{call.receiver}[*]"), call.location
                )
            return
        summary.callees.add(callee)
        sub = self.summary(callee)
        summary.callees.update(sub.callees)
        for path in sub.reads:
            summary.reads.setdefault(join_path(call.receiver, path), call.location)
        for path in sub.writes:
            summary.writes.setdefault(join_path(call.receiver, path), call.location)

    def _resolve_callsite(self, owner: str | None, call: CallSite) -> str | None:
        if call.receiver == "":
            if owner is None:
                return None
            resolved = self.graph.resolve_class(owner)
            if resolved is None:
                return None
            return self.graph.resolve_method(resolved[0], resolved[1], call.method)
        if owner is None:
            return None
        receiver_cls = self._receiver_class(owner, call.receiver)
        if receiver_cls is None:
            return None
        resolved = self.graph.resolve_class(receiver_cls)
        if resolved is None:
            return None
        return self.graph.resolve_method(resolved[0], resolved[1], call.method)

    # -- reachability ---------------------------------------------------
    def reachable_from(self, entry: str) -> set[str]:
        """Every method whose effects fold into ``entry`` (inclusive)."""
        seen: set[str] = set()
        work = [entry]
        while work:
            current = work.pop()
            if current in seen or current not in self.graph.functions:
                continue
            seen.add(current)
            work.extend(self.summary(current).callees)
        return seen


# ----------------------------------------------------------------------
# Pipeline-level contract extraction
# ----------------------------------------------------------------------
@dataclass
class Stage:
    """One pipeline stage: its label and folded effect sets."""

    name: str
    method: str
    reads: list[str]
    writes: list[str]


@dataclass
class StageDependency:
    """Stage ``reader`` consumes state ``writer`` produced this cycle."""

    writer: str
    reader: str
    paths: list[str]


class PipelineContract:
    """The extracted backend contract of one pipeline class."""

    #: Preferred entry when the real simulator is in the scanned set.
    CANONICAL_PIPELINE = "repro.core.pipeline.SMTPipeline"

    def __init__(self, project: ProjectContext, pipeline: str | None = None):
        self.project = project
        self.analysis = EffectAnalysis(project)
        self.pipeline = pipeline or self._discover_pipeline()
        if self.pipeline is None:
            raise LookupError(
                "no pipeline class found: need a class with a run() method "
                "whose name ends in 'Pipeline'"
            )
        self.entry = f"{self.pipeline}.run"
        self.stages = self._extract_stages()
        self.dependencies = self._infer_dependencies()
        self.per_thread, self.shared = self._partition_state()
        self.structures = self._structure_verdicts()

    # -- discovery ------------------------------------------------------
    def _discover_pipeline(self) -> str | None:
        graph = self.project.call_graph
        if f"{self.CANONICAL_PIPELINE}.run" in graph.functions:
            return self.CANONICAL_PIPELINE
        candidates = [
            cls.qualname
            for _, cls in self.project.iter_classes()
            if cls.name.endswith("Pipeline") and "run" in cls.methods
        ]
        return sorted(candidates)[0] if candidates else None

    def _pipeline_class(self) -> tuple[ModuleInfo, ClassInfo]:
        resolved = self.project.call_graph.resolve_class(self.pipeline)
        assert resolved is not None  # _discover_pipeline found it
        return resolved

    # -- stages ---------------------------------------------------------
    def _extract_stages(self) -> list[Stage]:
        mod, cls = self._pipeline_class()
        run = cls.methods.get("run")
        if run is None:
            return []
        labeled: list[tuple[str, str]] = []
        bare: list[str] = []
        state = {"label": None}

        def walk(stmts: list[ast.stmt]) -> None:
            # Source-order traversal: ast.walk is breadth-first and
            # would shuffle the label -> call pairing across branches.
            for node in stmts:
                if isinstance(node, ast.Assign):
                    if (
                        len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and node.targets[0].attr == "stage"
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)
                        and node.value.value
                    ):
                        state["label"] = node.value.value
                elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                    call = node.value
                    if (
                        isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id == "self"
                    ):
                        method = call.func.attr
                        if state["label"] is not None:
                            labeled.append((state["label"], method))
                            state["label"] = None
                        else:
                            bare.append(method)
                for body in ("body", "orelse", "finalbody"):
                    walk(getattr(node, body, []) or [])
                for handler in getattr(node, "handlers", []) or []:
                    walk(handler.body)

        walk(run.body)
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        source = labeled if labeled else [(m.strip("_"), m) for m in bare]
        for name, method in source:
            if name not in seen:
                seen.add(name)
                pairs.append((name, method))
        stages: list[Stage] = []
        for name, method in pairs:
            qual = f"{self.pipeline}.{method}"
            summary = self.analysis.summary(qual)
            stages.append(
                Stage(
                    name=name,
                    method=qual,
                    reads=sorted(summary.reads),
                    writes=sorted(summary.writes),
                )
            )
        return stages

    # -- stage-ordering dependencies ------------------------------------
    def _infer_dependencies(self) -> list[StageDependency]:
        deps: list[StageDependency] = []
        for i, writer in enumerate(self.stages):
            for reader in self.stages[i + 1 :]:
                paths = sorted(
                    {
                        max(w, r, key=len)
                        for w in writer.writes
                        for r in reader.reads
                        if paths_overlap(w, r)
                    }
                )
                if paths:
                    deps.append(
                        StageDependency(
                            writer=writer.name, reader=reader.name, paths=paths
                        )
                    )
        return deps

    # -- per-thread vs shared partitioning ------------------------------
    def _partition_state(self) -> tuple[list[str], list[str]]:
        """Attributes built in ``__init__`` as length-``num_threads``
        lists are per-thread replicated; every other attribute the
        stage closure touches is shared."""
        mod, cls = self._pipeline_class()
        init = cls.methods.get("__init__")
        per_thread: set[str] = set()
        assigned: set[str] = set()
        if init is not None:
            thread_counts = self._thread_count_names(init)
            for _stmt, attr, value in _iter_self_assigns(init):
                assigned.add(attr)
                if self._is_per_thread_value(value, thread_counts):
                    per_thread.add(attr)
        touched: set[str] = set()
        for stage in self.stages:
            for path in stage.reads + stage.writes:
                touched.add(path_root(path))
        shared = (touched & assigned) - per_thread
        return sorted(per_thread & touched), sorted(shared)

    @staticmethod
    def _thread_count_names(init: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
        """Locals bound to the thread count (``n = ....num_threads``)."""
        names = {"num_threads"}
        for stmt in ast.walk(init):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                value = stmt.value
                if (
                    isinstance(value, ast.Attribute) and value.attr == "num_threads"
                ) or (isinstance(value, ast.Name) and value.id in names):
                    names.add(stmt.targets[0].id)
        return names

    @staticmethod
    def _is_per_thread_value(value: ast.expr, counts: set[str]) -> bool:
        def is_count(node: ast.expr) -> bool:
            if isinstance(node, ast.Name) and node.id in counts:
                return True
            return isinstance(node, ast.Attribute) and node.attr == "num_threads"

        if isinstance(value, ast.ListComp) and len(value.generators) == 1:
            gen_iter = value.generators[0].iter
            return (
                isinstance(gen_iter, ast.Call)
                and isinstance(gen_iter.func, ast.Name)
                and gen_iter.func.id == "range"
                and len(gen_iter.args) == 1
                and is_count(gen_iter.args[0])
            )
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            return (isinstance(value.left, ast.List) and is_count(value.right)) or (
                isinstance(value.right, ast.List) and is_count(value.left)
            )
        return False

    # -- SoA verdicts ----------------------------------------------------
    def _structure_verdicts(self) -> dict[str, StructureVerdict]:
        """Per-structure SoA feasibility: growable containers, escaping
        internal state, external writes, and per-entry dynamic dispatch
        each block the fixed-slot array translation, with the blocking
        source locations listed."""
        verdicts: dict[str, StructureVerdict] = {}
        pipeline_attrs = self.analysis.attr_types(self.pipeline)
        reachable = self.analysis.reachable_from(self.entry)
        for attr in sorted(pipeline_attrs):
            cls_qualname = pipeline_attrs[attr]
            short = STRUCTURE_CLASSES.get(cls_qualname.rsplit(".", 1)[1])
            if short is None or short in verdicts:
                continue
            blockers = self._class_blockers(cls_qualname)
            blockers.extend(
                SoABlocker(
                    kind="external-write",
                    qualname=qual,
                    line=loc.line,
                    detail=f"write into {path} from outside {cls_qualname}",
                )
                for qual, path, loc in external_state_writes(
                    self.analysis, reachable, cls_qualname
                )
            )
            blockers.sort(key=lambda b: (b.kind, b.qualname, b.line, b.detail))
            verdicts[short] = StructureVerdict(
                name=short, class_qualname=cls_qualname, blockers=blockers
            )
        return verdicts

    def _class_blockers(self, cls_qualname: str) -> list[SoABlocker]:
        resolved = self.project.call_graph.resolve_class(cls_qualname)
        if resolved is None:
            return []
        _, cls = resolved
        blockers: list[SoABlocker] = []
        growable: set[str] = set()
        init = cls.methods.get("__init__")
        if init is not None:
            for stmt, attr, value in _iter_self_assigns(init):
                kind = self._growable_kind(value)
                if kind is not None:
                    growable.add(attr)
                    blockers.append(
                        SoABlocker(
                            kind="dynamic-container",
                            qualname=f"{cls.qualname}.__init__",
                            line=stmt.lineno,
                            detail=f"self.{attr} is a growable {kind}",
                        )
                    )
        container_attrs = growable | self._container_attrs(cls)
        for mname in sorted(cls.methods):
            method = cls.methods[mname]
            qual = f"{cls.qualname}.{mname}"
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                    and node.value.attr in container_attrs
                ):
                    blockers.append(
                        SoABlocker(
                            kind="escape",
                            qualname=qual,
                            line=node.lineno,
                            detail=f"returns internal container self.{node.value.attr}",
                        )
                    )
            blockers.extend(
                SoABlocker(
                    kind="dynamic-dispatch",
                    qualname=qual,
                    line=line,
                    detail=f"{name}() per loop entry",
                )
                for line, name in _loop_dispatch_calls(method)
            )
        return blockers

    @staticmethod
    def _growable_kind(value: ast.expr) -> str | None:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in _GROWABLE_CONSTRUCTORS and not value.args:
                return value.func.id
        if isinstance(value, (ast.Dict, ast.Set)):
            return "dict" if isinstance(value, ast.Dict) else "set"
        if isinstance(value, ast.List) and not value.elts:
            return "list"
        return None

    @staticmethod
    def _container_attrs(cls: ClassInfo) -> set[str]:
        """Attributes ``__init__`` binds to any list/dict/set/deque
        expression — fixed-slot ``[None] * size`` lists included (a
        returned reference escapes either way)."""
        attrs: set[str] = set()
        init = cls.methods.get("__init__")
        if init is None:
            return attrs
        for _stmt, attr, value in _iter_self_assigns(init):
            is_container = isinstance(
                value, (ast.List, ast.ListComp, ast.Dict, ast.DictComp, ast.Set, ast.SetComp)
            )
            if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
                is_container = isinstance(value.left, ast.List) or isinstance(
                    value.right, ast.List
                )
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                is_container = is_container or value.func.id in _GROWABLE_CONSTRUCTORS
            if is_container:
                attrs.add(attr)
        return attrs


def external_state_writes(
    analysis: EffectAnalysis, reachable: set[str], structure_cls: str
) -> list[tuple[str, str, Location]]:
    """Direct syntactic writes into ``structure_cls``-typed state from
    methods of *other* classes in the reachable closure.

    Returns ``(method_qualname, path, location)`` per write — a write
    through a held reference (``self.iq.attr = ...`` from the pipeline)
    breaks the structure's encapsulation and blocks any backend that
    relocates its storage.
    """
    out: list[tuple[str, str, Location]] = []
    for qual in sorted(reachable):
        node = analysis.graph.functions.get(qual)
        if node is None or node.cls is None:
            continue
        owner = f"{node.module}.{node.cls}"
        owner_cls = analysis.graph.resolve_class(owner)
        if owner_cls is not None and owner_cls[1].qualname == structure_cls:
            continue  # the structure's own methods may write freely
        local = analysis.local(qual)
        if local is None:
            continue
        for path, loc in local.writes.items():
            if "." not in path:
                continue  # rebinding the attribute itself, not reaching in
            root, rest = path.split(".", 1)
            root_cls = analysis._receiver_class(owner, root)
            if root_cls == structure_cls:
                out.append((qual, path, loc))
    return sorted(out, key=lambda t: (t[0], t[1], t[2].line, t[2].col))
