"""The repository benchmark: cold, timed workloads through the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mem-point --seed 1 --seconds 40 --trace 0

Each repetition of a workload runs in its own fresh process (``rep.py``)
with a fresh working directory, HOME and temp dir under
``.perfbench_tmp/``, which is removed afterwards.  Untraced
(``--trace 0``) runs make as many repetitions as fit in ``--seconds``
on the reference host (``Workload.rep_seeds``) and report the
end-to-end metrics as medians over the repetitions.
Traced (``--trace 1``) runs make one untraced and one traced
repetition and report the per-layer metrics.  Every metric is printed
with its unit; the last line of standard output is one JSON object.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
#: A run stops with an error rather than last longer than this.
RUN_LIMIT_S = 170.0


class RepFailed(RuntimeError):
    pass


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group and wait until
    it is gone (pool workers are the rep's children, not ours)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """One cold repetition; returns ``rep.py``'s result plus its
    process-level duration."""
    TMP.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    try:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            HOME=work,
            TMPDIR=work,
            XDG_CACHE_HOME=os.path.join(work, ".cache"),
        )
        out = os.path.join(work, "result.json")
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
               "--seed", str(seed), "--out", out] + (["--trace"] if trace else [])
        start = time.monotonic_ns()
        env["PERFBENCH_SPAWN_NS"] = str(start)
        proc = subprocess.Popen(
            cmd, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _stop_group(proc.pid)
            proc.communicate()
            raise RepFailed(f"{workload} repetition timed out after {timeout:.0f}s")
        finally:
            _stop_group(proc.pid)
        duration = (time.monotonic_ns() - start) / 1e9
        if proc.returncode != 0:
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            raise RepFailed(
                f"{workload} repetition exited with code {proc.returncode}:\n{tail}"
            )
        with open(out) as fh:
            result = json.load(fh)
        result["duration_s"] = duration
        result["sim_kips"] = result["committed"] / result["wall_s"] / 1000.0
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def host_facts() -> str:
    git = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
            git = f"{sha} dirty={'yes' if dirty else 'no'}"
        except (OSError, subprocess.SubprocessError):
            git = "unavailable"
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host: nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} git={git} loadavg={load}"
    )


def build() -> None:
    """Byte-compile the program once so no repetition pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be 0 or more")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_natural, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    build()
    print(host_facts())

    wl = WORKLOADS[args.workload]
    seeds = wl.rep_seeds(args.seed, args.seconds)
    t0 = time.monotonic()
    reps: list[dict] = []
    try:
        if args.trace:
            reps.append(run_rep(wl.name, seeds[0], False, RUN_LIMIT_S / 2))
            left = RUN_LIMIT_S - (time.monotonic() - t0)
            reps.append(run_rep(wl.name, seeds[0], True, left))
        else:
            for seed in seeds:
                left = RUN_LIMIT_S - (time.monotonic() - t0)
                if reps and statistics.median(r["duration_s"] for r in reps) > left:
                    raise RepFailed(f"{len(seeds)} repetitions do not fit in {RUN_LIMIT_S:.0f}s")
                reps.append(run_rep(wl.name, seed, False, left))
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            TMP.rmdir()
        except OSError:  # absent, or another run is using it
            pass

    attempted = sum(len(r["points"]) for r in reps)
    failed = [(f"seed {r['seed']} {p['label']}", p["error"])
              for r in reps for p in r["points"] if p["error"]]
    pinned = all(r["pinned"] for r in reps)
    print(f"workload={wl.name} seed={args.seed} repetitions={len(reps)} "
          f"(cold processes) points={attempted} failed={len(failed)} "
          f"stats={'pinned' if pinned else 'UNPINNED: invariants only'}")
    for lab, err in failed:
        print(f"  FAILED {lab}: {err}")

    if args.trace:
        untraced, traced = reps
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        layers["sim_kips"] = untraced["sim_kips"]
        metrics = {name: (layers[name], unit) for name, unit in spec_metrics("per_layer")}
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:>14.6g} {unit}")
    else:
        # sim_kips is printed here too, but is bounded only as a
        # per-layer metric: it follows the seed's program instances.
        units = {**dict(spec_metrics("per_layer")), **dict(spec_metrics("end_to_end"))}
        e2e = {"ok_ratio": (attempted - len(failed)) / attempted}
        for name in ("setup_s", "wall_s", "sim_kips", "peak_rss_mb"):
            vals = [r[name] for r in reps]
            e2e[name] = statistics.median(vals)
            print(f"{name:<32} {e2e[name]:>14.6g} {units[name]:<7} median of "
                  f"n={len(vals)} (min {min(vals):.6g}, max {max(vals):.6g})")
        print(f"{'ok_ratio':<32} {e2e['ok_ratio']:>14.6g} ratio   "
              f"{attempted - len(failed)} of {attempted} points passed")
        metrics = {name: (e2e[name], unit) for name, unit in spec_metrics("end_to_end")}
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


def spec_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every ``kind`` metric declared in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
