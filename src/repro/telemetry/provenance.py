"""Run provenance manifests.

A :class:`RunManifest` pins down everything needed to re-attribute a
number to the exact code+config that produced it: a canonical hash of
the machine/simulation configuration, the RNG seed, the git revision
(and whether the tree was dirty), package versions, host and
wall-clock.  Manifests are attached to every
:class:`~repro.core.pipeline.SimulationResult`, prepended to JSONL
exports, and stamped onto benchmark reports so BENCH_* trajectories
stay attributable.

Wall-clock and host reads are intentional here — provenance is *about*
when/where a run happened; simulated results must never depend on any
field below.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Mapping

#: Manifest layout version; bump when fields change meaning.
MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one simulation or benchmark run."""

    schema: int
    created_utc: str
    host: str
    platform: str
    python: str
    packages: dict[str, str]
    git_sha: str | None
    git_dirty: bool | None
    seed: int | None
    config_hash: str
    config: dict[str, Any] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(RunManifest)}
        return RunManifest(**{k: v for k, v in data.items() if k in known})


def config_digest(config: Mapping[str, Any]) -> str:
    """Stable short hash of a JSON-serializable config mapping."""
    canon = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _config_dict(obj: Any) -> Any:
    if obj is None:
        return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return repr(obj)


@functools.lru_cache(maxsize=1)
def _git_state() -> tuple[str | None, bool | None]:
    """(sha, dirty) of the repository containing this package, if any."""
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        ).stdout.strip() or None
        if sha is None:
            return None, None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        return sha, bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def _package_versions() -> dict[str, str]:
    versions = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    try:
        from repro import __version__ as repro_version

        versions["repro"] = str(repro_version)
    except ImportError:
        pass
    return versions


def collect_manifest(
    machine: Any = None,
    sim: Any = None,
    *,
    seed: int | None = None,
    extra: Mapping[str, Any] | None = None,
) -> RunManifest:
    """Build a manifest for a run under ``machine``/``sim`` configs.

    ``machine``/``sim`` may be the repro config dataclasses or any
    JSON-representable objects; ``extra`` carries caller context
    (mix name, CLI argv, bench id, ...).
    """
    config = {"machine": _config_dict(machine), "sim": _config_dict(sim)}
    if seed is None and sim is not None and hasattr(sim, "seed"):
        seed = int(sim.seed)
    sha, dirty = _git_state()
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        host=platform.node(),
        platform=f"{platform.system()}-{platform.machine()}",
        python=sys.version.split()[0],
        packages=_package_versions(),
        git_sha=sha,
        git_dirty=dirty,
        seed=seed,
        config_hash=config_digest(config),
        config=config,
        extra=dict(extra or {}),
    )
