"""``repro lint contract`` — extract, write, and diff the backend contract.

Default mode prints the extracted contract (text summary or the
canonical JSON document).  ``--write-contract`` persists the canonical
bytes to ``backend-contract.json`` (or a given path) — rerunning on an
unchanged tree is byte-identical, so CI pairs it with
``git diff --exit-code``.  ``--diff`` compares the extraction against a
committed contract and exits 1 on drift, listing every diverging leaf.

Exit codes match the lint front end: 0 clean, 1 drift, 2 usage /
extraction errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.effects.analyze import PipelineContract
from repro.analysis.effects.contract import (
    CONTRACT_FILENAME,
    build_contract,
    diff_contracts,
    render_contract,
)
from repro.analysis.engine import build_project, default_roots

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint contract",
        description="Extract the backend state contract (per-stage "
        "read/write sets, stage dependencies, state partitioning, SoA "
        "verdicts) from the pipeline's run loop.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the src/tests/"
        "benchmarks/examples roots that exist here)",
    )
    parser.add_argument(
        "--pipeline",
        default=None,
        metavar="QUALNAME",
        help="pipeline class to extract (default: repro.core.pipeline."
        "SMTPipeline when present, else the first *Pipeline class with "
        "a run() method)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text; json prints the canonical "
        "contract document)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--write-contract",
        nargs="?",
        const=CONTRACT_FILENAME,
        default=None,
        metavar="FILE",
        help=f"write the canonical contract JSON to FILE "
        f"(default: {CONTRACT_FILENAME})",
    )
    parser.add_argument(
        "--diff",
        nargs="?",
        const=CONTRACT_FILENAME,
        default=None,
        metavar="FILE",
        help=f"diff the extraction against a committed contract "
        f"(default: {CONTRACT_FILENAME}); exit 1 on drift",
    )
    return parser


def _text_summary(doc: dict) -> str:
    lines: list[str] = []
    lines.append(f"backend contract v{doc['version']}: {doc['pipeline']}")
    lines.append(f"entry: {doc['entry']}")
    lines.append("")
    lines.append("stages (in run-loop order):")
    for stage in doc["stages"]:
        lines.append(
            f"  {stage['name']:<10s} {stage['method'].rsplit('.', 1)[1]:<14s}"
            f" reads={len(stage['reads']):3d} writes={len(stage['writes']):3d}"
        )
    lines.append("")
    lines.append("stage-ordering dependencies (writer -> reader):")
    for dep in doc["dependencies"]:
        lines.append(
            f"  {dep['writer']} -> {dep['reader']}  ({len(dep['paths'])} paths)"
        )
    lines.append("")
    state = doc["state"]
    lines.append(f"per-thread state ({len(state['per_thread'])}):")
    lines.append("  " + (", ".join(state["per_thread"]) or "(none)"))
    lines.append(f"shared state ({len(state['shared'])}):")
    lines.append("  " + (", ".join(state["shared"]) or "(none)"))
    lines.append("")
    lines.append("SoA-feasibility verdicts:")
    for name in sorted(doc["structures"]):
        verdict = doc["structures"][name]
        flag = "vectorizable" if verdict["vectorizable"] else "blocked"
        lines.append(f"  {name:<8s} {verdict['class']}: {flag}")
        for blocker in verdict["blockers"]:
            lines.append(
                f"           [{blocker['kind']}] {blocker['qualname']}"
                f":{blocker['line']} — {blocker['detail']}"
            )
    return "\n".join(lines) + "\n"


def contract_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    paths = list(args.paths) or default_roots()
    if not paths:
        print("repro.lint contract: no Python roots found here", file=sys.stderr)
        return EXIT_USAGE

    project = build_project(paths)
    try:
        contract = PipelineContract(project, pipeline=args.pipeline)
    except LookupError as exc:
        print(f"repro.lint contract: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = build_contract(contract)

    if args.write_contract is not None:
        with open(args.write_contract, "w", encoding="utf-8") as fh:
            fh.write(render_contract(doc))
        print(f"wrote {args.write_contract}")

    if args.diff is not None:
        try:
            with open(args.diff, encoding="utf-8") as fh:
                committed = json.load(fh)
        except FileNotFoundError:
            print(
                f"repro.lint contract: no committed contract at {args.diff} "
                f"(generate one with --write-contract)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        except json.JSONDecodeError as exc:
            print(
                f"repro.lint contract: {args.diff} is not valid JSON: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        diffs = diff_contracts(committed, doc)
        if diffs:
            print(f"contract drift against {args.diff} ({len(diffs)} leaves):")
            for line in diffs:
                print(f"  {line}")
            return EXIT_FINDINGS
        print(f"contract matches {args.diff}")
        return EXIT_CLEAN

    if args.write_contract is not None and args.format == "text" and args.output is None:
        return EXIT_CLEAN  # --write-contract alone: the file is the output

    report = render_contract(doc) if args.format == "json" else _text_summary(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(contract_main())
