"""Benchmark of innerinv: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository; the package is
imported from src/, never from an installed copy.  Every workload runs in
fresh single-threaded processes started from this one (see worker.py):

  --trace 0   one measuring process that runs passes for S seconds, with
              four set-up probes before it and four after.  Prints setup_s
              (median over the nine set-ups), wall_s (median pass),
              points_per_s (median pass rate) and peak_rss_mb (the
              measuring process).
  --trace 1   one untraced and one traced process, S/2 seconds each.
              Prints every per-layer metric of tracing.LAYER_METRICS plus
              trace.wall_s and trace.overhead_s, the traced minus the
              untraced median pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when the run completed, whether or not its
outputs were correct; it is not 0 when the checkout is incomplete or a
process failed, and then no result is printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "atom_ring", "tail_deep", "map_queries")
SETUP_PROBES = 8
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # single-threaded numerical libraries, so nothing runs beside the workload
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(root: Path, deadline: float, args, mode: str, seconds: float = 0.0) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(root),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=_child_env(root), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _median_rate(points, seconds) -> float:
    return statistics.median(p / s for p, s in zip(points, seconds))


def untraced(root: Path, deadline: float, args) -> tuple:
    # half the probes run after the measuring process, so the median set-up
    # samples the machine over the whole run rather than one burst
    half = SETUP_PROBES // 2
    probes = [run_worker(root, deadline, args, "setup") for _ in range(half)]
    main = run_worker(root, deadline, args, "measure", args.seconds)
    probes += [run_worker(root, deadline, args, "setup") for _ in range(SETUP_PROBES - half)]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in probes + [main]), "s"),
        "wall_s": (statistics.median(main["pass_s"]), "s"),
        "points_per_s": (_median_rate(main["pass_points"], main["pass_s"]), "1/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    return metrics, [main]


def traced(root: Path, deadline: float, args) -> tuple:
    plain = run_worker(root, deadline, args, "measure", args.seconds / 2.0)
    trace = run_worker(root, deadline, args, "trace", args.seconds / 2.0)
    metrics = {name: tuple(pair) for name, pair in trace["layers"].items()}
    wall = statistics.median(trace["pass_s"])
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(plain["pass_s"]), "s")
    return metrics, [plain, trace]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = ROOT
    package = root / "src" / "innerinv"
    if not (package / "__init__.py").is_file():
        print(f"error: no innerinv package at {package}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "corpus" and not any((root / "specs").glob("*.json")):
        print(f"error: no spec documents under {root / 'specs'}", file=sys.stderr)
        return 2
    # byte-compile up front so no timed import pays for it
    compileall.compile_dir(str(package), quiet=1)

    try:
        metrics, runs = (traced if args.trace else untraced)(root, deadline, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        for failure in run["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
