"""One benchmark process: set up a workload, time it, check it, report.

run.py starts a fresh process for each role:

  setup    time `import innerinv` plus the workload's set-up, then exit
  measure  set up, then time passes of the workload for --seconds with
           tracing off, then check the outputs
  trace    the same with every traced layer wrapped (see tracing.py); the
           spans go to .bench_work/traces/<workload>-seed<N>.json

A pass is always finished; another starts only if one more pass of the
last pass's length still fits in --seconds.  The last line of stdout is
one JSON object.

    python3 perfbench/worker.py --root . --workload corpus --seed 0 \
        --seconds 25 --mode measure
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    scratch = root / ".bench_work"
    work = scratch / f"{args.workload}-{args.mode}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, root, work, scratch)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, root: Path, work: Path, scratch: Path) -> dict:
    # nothing before this import may load numpy, or import_s would miss it
    t0 = time.perf_counter()
    import innerinv

    import_s = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(innerinv.__file__).resolve().parents:
        raise SystemExit(f"innerinv was imported from {innerinv.__file__}, not from {src}")

    import tracing

    tracer = tracing.Tracer() if args.mode == "trace" else None
    span = tracer.operation if tracer else workloads.no_span
    wl = workloads.make(args.workload, root, args.seed, work, span)

    with tracing.install(tracer) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        with tracer.span("setup") if tracer else contextlib.nullcontext():
            wl.setup()
        setup_s = import_s + time.perf_counter() - t0
        result = {"setup_s": setup_s}
        if args.mode == "setup":
            return result
        out = workloads.Outcome()
        pass_s, pass_points = [], []
        body_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            points = wl.run_pass(out)
            dt = time.perf_counter() - t0
            pass_s.append(dt)
            pass_points.append(points)
            if time.perf_counter() - body_start + dt > args.seconds:
                break

    wl.gate(out)
    result.update(
        pass_s=pass_s,
        pass_points=pass_points,
        attempted=out.attempted,
        failed=len(out.failures),
        failures=out.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        values = tracing.layer_metrics(tracer)
        result["layers"] = {k: (values[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
        traces = scratch / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(traces / f"{args.workload}-seed{args.seed}.json")
    return result


if __name__ == "__main__":
    sys.exit(main())
