"""Benchmark of schurring: catalog, census and witness workloads.

    python3 perfbench/run.py --workload {catalog,census,witness} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the code under ``src``.
Every timed run starts a fresh interpreter (``child.py``) with a fixed
environment, so the process-global automorphism cache starts empty, as it
does for every user process.  Load is that one process, with no extra
threads.

``--trace 0`` repeats the workload until ``--seconds`` have passed, timing
``setup_s`` (interpreter start plus ``import schurring``) a few times
before each run, and reports medians of ``wall_s`` (the timed section),
``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` is a separate pass: one
untraced and one traced run of the workload, reporting the per-layer
metrics of the traced run and the tracing overhead (traced minus untraced
``wall_s``).  The seed fixes the order of the operations, not the inputs.

Every operation's output is checked; a failed check counts in ``failed``
(``fail_frac`` = failed / attempted) and does not stop the run.  The last
line of standard output is the JSON result; the lines before it print
every metric with its unit and the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

WORKLOADS = ("catalog", "census", "witness")
# set-up probes before each workload run, so setup_s samples the whole run as wall_s does
SETUP_PROBES = 5
# every child must be done this long after start, well inside the 180 s a run may take
TIME_LIMIT_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNSET_ENV = ("SCHURRING_BUDGET",)


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed output check)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(CHILD_ENV)
    return env


def remaining(t_start: float) -> float:
    left = TIME_LIMIT_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError(f"out of time ({TIME_LIMIT_S:.0f} s)")
    return left


def setup_probe(env: dict, t_start: float) -> float:
    """Seconds from spawning an interpreter to its exit after `import schurring`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import schurring"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=remaining(t_start))
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import schurring failed:\n{proc.stderr}")
    return dt


def run_child(workload: str, seed: int, trace: bool, env: dict, t_start: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), workload, str(seed), "1" if trace else "0"],
            env=env, capture_output=True, text=True, timeout=remaining(t_start),
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} run did not finish within {TIME_LIMIT_S:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, child: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": child["python"],
        "numpy": child["numpy"],
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "child_env": {**CHILD_ENV, **{k: None for k in UNSET_ENV}},
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics, operations attempted, failure lines, extra report lines, env)."""
    t_start = time.perf_counter()
    env = child_env()
    if not trace:
        setup, runs = [], []
        while not runs or time.perf_counter() - t_start < seconds:
            setup += [setup_probe(env, t_start) for _ in range(SETUP_PROBES)]
            runs.append(run_child(workload, seed, False, env, t_start))
        walls = [r["wall_s"] for r in runs]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
        }
        notes = [f"wall_s per run: {', '.join(f'{w:.4f}' for w in walls)}",
                 f"setup_s median of {len(setup)}, peak_rss_mb median of {len(runs)}"]
    else:
        plain = run_child(workload, seed, False, env, t_start)
        traced = run_child(workload, seed, True, env, t_start)
        runs = [plain, traced]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        notes = ["self time by function (calls, total s, self s, raises):"]
        notes += [f"  {name:<44} {calls:>9} {total:10.4f} {own:10.4f}  {' '.join(f'{k}={v}' for k, v in raises.items())}"
                  for name, calls, total, own, raises in traced["profile"]]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    return metrics, attempted, failures, notes, environment(seed, runs[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "schurring" / "__init__.py").is_file():
        print(f"error: no schurring package under {SRC}", file=sys.stderr)
        return 1
    try:
        metrics, attempted, failures, notes, env = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failed = len(failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6f} {unit}" if isinstance(value, float) else f"  {name:<44} {value:14d} {unit}")
    print(f"  {'fail_frac':<44} {failed / attempted:14.6f} ({failed} of {attempted} operations)")
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
