"""``state-contract-drift`` — the backend contract as a lint gate.

The committed ``backend-contract.json`` (written by ``repro lint
contract --write-contract``) is the reviewed statement of what each
pipeline stage reads and writes.  The drift pass re-extracts the
contract from the current tree and flags any divergence at the
pipeline class — a new cross-stage read, a lost write, a flipped SoA
verdict — so state-shape changes are acknowledged by regenerating the
contract, the same accept-the-new-baseline motion as ``--baseline``.

The pass is silent on projects with no discoverable pipeline — the
contract is a property of the simulator tree, not of arbitrary code.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.effects.analyze import PipelineContract
from repro.analysis.effects.contract import (
    CONTRACT_FILENAME,
    build_contract,
    diff_contracts,
    summarize_drift,
)
from repro.analysis.flow.project import ProjectContext
from repro.analysis.registry import ProjectChecker, register


def _pipeline_anchor(project: ProjectContext, contract: PipelineContract) -> tuple[str, int]:
    """(path, line) of the pipeline class statement."""
    resolved = project.call_graph.resolve_class(contract.pipeline)
    if resolved is None:  # pragma: no cover - discovery implies resolution
        return next(iter(project.modules)), 1
    mod, cls = resolved
    return mod.path, cls.node.lineno


@register
class StateContractDriftChecker(ProjectChecker):
    """Extracted backend contract must match the committed one."""

    rule = "state-contract-drift"
    description = (
        "per-stage state read/write sets drifted from the committed "
        "backend-contract.json; regenerate with "
        "`repro lint contract --write-contract` after review"
    )
    fingerprint_files = (CONTRACT_FILENAME,)

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        try:
            contract = PipelineContract(project)
        except LookupError:
            return
        committed_path = self._find_committed(project)
        if committed_path is None:
            return  # no contract committed yet: nothing to hold against
        try:
            with open(committed_path, encoding="utf-8") as fh:
                committed = json.load(fh)
        except (OSError, json.JSONDecodeError):
            path, line = _pipeline_anchor(project, contract)
            yield Diagnostic(
                path=path,
                line=line,
                col=0,
                rule=self.rule,
                message=f"committed contract {committed_path} is unreadable; "
                "regenerate it with `repro lint contract --write-contract`",
                severity=Severity.ERROR,
                symbol=contract.pipeline,
            )
            return
        diffs = diff_contracts(committed, build_contract(contract))
        if not diffs:
            return
        path, line = _pipeline_anchor(project, contract)
        yield Diagnostic(
            path=path,
            line=line,
            col=0,
            rule=self.rule,
            message=(
                f"backend contract drifted from {committed_path} "
                f"({len(diffs)} leaves): {summarize_drift(diffs)}; review and "
                "regenerate with `repro lint contract --write-contract`"
            ),
            severity=Severity.ERROR,
            symbol=contract.pipeline,
        )

    @staticmethod
    def _find_committed(project: ProjectContext) -> str | None:
        """The committed contract: beside the working directory, else a
        walk up from the pipeline module (covers engines invoked from a
        subdirectory of the repo)."""
        if os.path.exists(CONTRACT_FILENAME):
            return CONTRACT_FILENAME
        anchor = next(iter(project.modules), None)
        current = os.path.dirname(os.path.abspath(anchor)) if anchor else None
        for _ in range(6):
            if not current:
                break
            candidate = os.path.join(current, CONTRACT_FILENAME)
            if os.path.exists(candidate):
                return candidate
            parent = os.path.dirname(current)
            if parent == current:
                break
            current = parent
        return None
