"""Per-method local effect extraction.

One pass over a method body produces its :class:`LocalEffects`: the
architectural state paths it reads and writes *directly*, plus the
call sites whose effects the interprocedural fold resolves later.

Paths are dotted attribute chains rooted at the enclosing object
(``robs[*].entries``); ``[*]`` marks a container-element access — the
analysis never distinguishes individual indices.  A simple alias
environment tracks locals bound to self-rooted paths (``rob =
self.robs[t]``) so writes and calls through them attribute to the
right state.  Everything unresolvable (parameters, call results,
globals) contributes nothing: the summaries are a conservative
*under*-approximation, which is the right polarity for a contract
that lists what the loop is known to touch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Builtin container methods that mutate their receiver.  A call
#: ``path.append(x)`` that does not resolve to a project method is a
#: write to ``path[*]``.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "add",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)

#: Segment cap keeping folded paths finite through call cycles.
MAX_PATH_SEGMENTS = 4


@dataclass(frozen=True)
class Location:
    """Source anchor of one access (AST convention: 0-based column)."""

    line: int
    col: int
    end_line: int = 0
    end_col: int = 0


@dataclass(frozen=True)
class CallSite:
    """A method call whose effects the interprocedural fold resolves.

    ``receiver`` is the self-rooted path of the object the method is
    invoked on — ``""`` for ``self.method()``, ``"robs[*]"`` for
    ``self.robs[t].method()`` or an alias to it.
    """

    receiver: str
    method: str
    location: Location


@dataclass
class LocalEffects:
    """Directly-observable effects of one method body."""

    qualname: str
    #: path -> first access location.
    reads: dict[str, Location] = field(default_factory=dict)
    writes: dict[str, Location] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)


def truncate_path(path: str) -> str:
    """Cap a path at :data:`MAX_PATH_SEGMENTS` dotted segments."""
    parts = path.split(".")
    if len(parts) <= MAX_PATH_SEGMENTS:
        return path
    return ".".join(parts[:MAX_PATH_SEGMENTS])


def join_path(prefix: str, path: str) -> str:
    """``robs[*]`` + ``entries[*]`` -> ``robs[*].entries[*]``."""
    if not prefix:
        return truncate_path(path)
    if not path:
        return truncate_path(prefix)
    return truncate_path(f"{prefix}.{path}")


def path_root(path: str) -> str:
    """First attribute segment, without any ``[*]`` marker."""
    return path.split(".", 1)[0].replace("[*]", "")


def paths_overlap(a: str, b: str) -> bool:
    """Whether two paths may refer to overlapping state (one is a
    segment-prefix of the other)."""
    if a == b:
        return True
    shorter, longer = (a, b) if len(a) < len(b) else (b, a)
    if not longer.startswith(shorter):
        return False
    return longer[len(shorter)] in ".["


def _loc(node: ast.AST) -> Location:
    return Location(
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        end_line=getattr(node, "end_lineno", None) or 0,
        end_col=getattr(node, "end_col_offset", None) or 0,
    )


class _EffectVisitor(ast.NodeVisitor):
    """Single forward pass; the alias environment is flow-insensitive
    within one body (rebinding a local to a non-path kills the alias)."""

    def __init__(self, effects: LocalEffects, self_name: str):
        self.effects = effects
        self.self_name = self_name
        self.aliases: dict[str, str] = {}

    # -- path resolution ----------------------------------------------
    def resolve(self, node: ast.expr) -> str | None:
        """Self-rooted path of ``node``, or None when unresolvable.
        Returns ``""`` for the root object itself."""
        if isinstance(node, ast.Name):
            if node.id == self.self_name:
                return ""
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return join_path(base, node.attr)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base in (None, ""):
                return None
            return truncate_path(f"{base}[*]")
        return None

    # -- recording -----------------------------------------------------
    def _read(self, path: str, node: ast.AST) -> None:
        if path:
            self.effects.reads.setdefault(path, _loc(node))

    def _write(self, path: str, node: ast.AST) -> None:
        if path:
            self.effects.writes.setdefault(path, _loc(node))

    def _visit_read(self, node: ast.expr) -> None:
        """Record the outermost resolvable path; descend only into the
        parts that are not on the resolved chain (subscript indices)."""
        path = self.resolve(node)
        if path:
            self._read(path, node)
            current: ast.expr = node
            while isinstance(current, (ast.Attribute, ast.Subscript)):
                if isinstance(current, ast.Subscript):
                    self.visit(current.slice)
                current = current.value
            return
        self.generic_visit_expr(node)

    def generic_visit_expr(self, node: ast.expr) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    # -- statements ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        value_path = self.resolve(node.value)
        for target in node.targets:
            self._handle_target(target, value_path)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._handle_target(node.target, self.resolve(node.value))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            # ``budget -= 1`` on a local bound from state reads the
            # alias and rebinds the local; the aliased path is untouched.
            path = self.aliases.pop(node.target.id, None)
            if path:
                self._read(path, node.target)
            return
        path = self.resolve(node.target)
        if path:
            self._read(path, node.target)
            self._write(path, node.target)

    def _handle_target(self, target: ast.expr, value_path: str | None) -> None:
        if isinstance(target, ast.Name):
            # Rebinding a local: it aliases the value's path or nothing.
            if value_path:
                self.aliases[target.id] = value_path
                self._read(value_path, target)
            else:
                self.aliases.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_target(
                    elt.value if isinstance(elt, ast.Starred) else elt, None
                )
            return
        path = self.resolve(target)
        if path:
            self._write(path, target)
            return
        # Unresolvable attribute/subscript target: visit the base for
        # the reads it performs.
        for child in ast.iter_child_nodes(target):
            self.visit(child)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        iter_path = self.resolve(node.iter)
        if isinstance(node.target, ast.Name):
            if iter_path:
                # ``for rob in self.robs`` aliases the element.
                self.aliases[node.target.id] = truncate_path(f"{iter_path}[*]")
            else:
                self.aliases.pop(node.target.id, None)
        else:
            self._handle_target(node.target, None)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            path = self.resolve(target)
            if path:
                self._write(path, target)
            if isinstance(target, ast.Name):
                self.aliases.pop(target.id, None)

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self.resolve(func.value)
            if receiver is not None:
                self.effects.calls.append(
                    CallSite(receiver=receiver, method=func.attr, location=_loc(node))
                )
                if receiver:
                    self._read(receiver, func.value)
            else:
                self.visit(func.value)
        for arg in node.args:
            self.visit(arg.value if isinstance(arg, ast.Starred) else arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            path = self.aliases.get(node.id)
            if path:
                self._read(path, node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._visit_read(node)
        else:
            self.generic_visit_expr(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, ast.Load):
            self._visit_read(node)
        else:
            self.generic_visit_expr(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambda bodies read state at call time, not definition time —
        # but the common ``key=lambda i: i.tag`` touches no self state;
        # visiting the body with the current env is a fair approximation.
        self.visit(node.body)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # nested defs have their own self

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return


def _self_name(func: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else None


def extract_local_effects(
    func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> LocalEffects:
    """The directly-observable effects of one method body."""
    effects = LocalEffects(qualname=qualname)
    self_name = _self_name(func)
    if self_name is None:
        return effects
    visitor = _EffectVisitor(effects, self_name)
    for stmt in func.body:
        visitor.visit(stmt)
    return effects
