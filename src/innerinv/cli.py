"""Command-line surface: classify, group, maps, verify, emit.

Exit codes: 0 success, 1 verification failure, 2 parse/validation problems
or infeasible computations.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .errors import InnerInvError
from .inner_model import TruncationPolicy, canon_angles, phase_lift
from .classify import TYPE_0, classify_intervals
from .group_algebra import compute_group, labels_from_report
from .circle_maps import MapWorkspace
from .checks import run_all_checks
from .document import parse_document


def _create_csv(path: Path):
    """Open ``path`` for writing as a new file, removing any old one first.

    Truncating an existing file and rewriting it makes ext4 flush it to disk
    on close (its replace-via-truncate safeguard), and the next rewrite then
    waits for that flush, tens of milliseconds per file when a command is
    re-run into the same --out directory.  A new file is written back lazily.
    """
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerinv",
        description="Invariant-group toolkit for inner functions with a "
        "finite singularity set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "label every singularity and arc"),
        ("group", "print the invariant group descriptor"),
        ("maps", "sample the generator maps to CSV"),
        ("verify", "run the full property-check suite"),
        ("emit", "write phase/derivative plot data per arc"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", type=Path, help="path to a spec document (JSON)")
        p.add_argument("--phase-tol", type=float, default=None,
                       help="override the document's phase tolerance")
        p.add_argument("--tail-terms", type=int, default=None,
                       help="override the document's starting tail term count")
        p.add_argument("--window", type=float, default=None,
                       help="phase budget per side when charting arcs (radians)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="directory for CSV outputs")
        p.add_argument("--samples", type=int, default=256,
                       help="sample count per arc for maps/emit")
        p.add_argument("--seed", type=int, default=0, help="seed for checks")
        if name == "maps":
            p.add_argument("--map-tol", type=float, default=1e-8,
                           help="tolerance used when certifying map samples")
        if name == "verify":
            p.add_argument("--map-tol", type=float, default=1e-8,
                           help="invariance tolerance for generator maps")
            p.add_argument("--control", choices=["perturbed", "folded", "wrong-rotation"],
                           default=None, help="inject a known-bad mutation")
    return parser


def _load(args):
    doc = parse_document(args.spec.read_text())
    policy = doc.policy
    if args.phase_tol is not None or args.tail_terms is not None:
        policy = TruncationPolicy(
            args.tail_terms if args.tail_terms is not None else policy.tail_terms,
            args.phase_tol if args.phase_tol is not None else policy.phase_tol,
        )
    return doc.spec, policy


def _cmd_classify(args) -> int:
    spec, policy = _load(args)
    report = classify_intervals(spec, policy, args.window)
    for rec in report.singularities:
        line = f"theta={rec.theta:.12g} type={rec.sing_type}"
        if rec.limit is not None:
            line += f" L={_fmt_complex(rec.limit.value)} err={rec.limit.phase_err:.3g}"
        print(line)
    for i, arc in enumerate(report.intervals):
        line = (
            f"arc={i} lo={arc.lo:.12g} hi={arc.hi:.12g} type={arc.itype}"
        )
        if arc.itype == TYPE_0:
            line += f" solutions={len(arc.type0_image)} span={arc.phase_span:.12g}"
        if arc.limit_lo is not None:
            line += f" limit_lo={_fmt_complex(arc.limit_lo.value)}"
        if arc.limit_hi is not None:
            line += f" limit_hi={_fmt_complex(arc.limit_hi.value)}"
        print(line)
    return 0


def _cmd_group(args) -> int:
    spec, policy = _load(args)
    report = classify_intervals(spec, policy, args.window)
    desc = compute_group(labels_from_report(report))
    print(f"n={desc.n} k={desc.k} d={desc.d} iso={desc.iso_label}")
    print(f"presentation: {desc.presentation}")
    return 0


def _cmd_maps(args) -> int:
    spec, policy = _load(args)
    report = classify_intervals(spec, policy, args.window)
    gens = MapWorkspace(report, phase_window=args.window).generators()
    if not gens:
        print("group is trivial: no generator maps to sample")
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for name, mp in gens:
        pts = mp.sample_points(args.samples)
        images = mp.apply_many(pts)
        radii = mp.cert_radius(pts)
        path = args.out / f"map_{name}.csv"
        with _create_csv(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta", "x_theta", "theta_err_cert"])
            for t, x, rad in zip(pts, images, radii):
                writer.writerow([f"{t:.17g}", f"{x:.17g}", f"{rad:.6g}"])
        print(f"map {name}: wrote {pts.size} samples to {path}")
    return 0


def _cmd_verify(args) -> int:
    spec, policy = _load(args)
    report = classify_intervals(spec, policy, args.window)
    results = run_all_checks(
        report,
        phase_window=args.window,
        seed=args.seed,
        control=args.control,
        map_tol=args.map_tol,
    )
    failures = 0
    for rep in results:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.name}: max_error={rep.max_error:.3e} tol={rep.tol:.1e} "
            f"samples={rep.samples} {status}"
        )
        if not rep.passed:
            failures += 1
            if rep.details:
                print(f"  {rep.details}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_emit(args) -> int:
    spec, policy = _load(args)
    report = classify_intervals(spec, policy, args.window)
    ws = MapWorkspace(report, phase_window=args.window)
    args.out.mkdir(parents=True, exist_ok=True)
    n_arcs = max(ws.n, 1)
    for j in range(n_arcs):
        chart = ws.chart(j)
        grid = np.linspace(float(chart.thetas[0]), float(chart.thetas[-1]), args.samples)
        # the pointwise derivative is undefined on the spectrum, so exact
        # hits of the arc's ends are dropped (interior points are regular)
        grid = grid[~np.isin(grid, ws.arc_bounds(j))] if ws.n else grid
        phases = chart.phase_of(grid)
        _, slopes = phase_lift(spec, canon_angles(grid), chart.policy, with_slope=True)
        path = args.out / f"emit_arc{j}.csv"
        with _create_csv(path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["theta", "arg_theta_unwrapped", "derivative"])
            for t, p, d in zip(grid, phases, slopes):
                writer.writerow([f"{t:.17g}", f"{p:.17g}", f"{d:.17g}"])
        print(f"arc {j}: wrote {grid.size} rows to {path}")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "group": _cmd_group,
    "maps": _cmd_maps,
    "verify": _cmd_verify,
    "emit": _cmd_emit,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InnerInvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(run())


if __name__ == "__main__":
    entry()
