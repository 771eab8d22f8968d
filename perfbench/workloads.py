"""The benchmark's workloads: their inputs, timed operations and checks.

A workload object has three phases, which the worker times separately:

  setup()         parse the documents (map_queries also classifies and
                  builds every arc chart); timed into setup_s together
                  with `import innerinv`
  run_pass(out)   one pass of timed operations, judged as they finish;
                  returns the number of map points the pass evaluated
  gate(out)       correctness checks made after timing

innerinv is imported inside these methods, never at module import, so the
worker can time the import.  The seed is the only source of variation:
it becomes the program's `--seed` for its checks and draws the map_queries
group elements.  It does not choose the corpus controls, whose check
sample counts differ, so that every seed gives a pass the same points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"
STAGES = ("classify", "group", "maps", "verify", "emit")
CONTROLS = ("perturbed", "folded", "wrong-rotation")
INVARIANCE_TOL = 1e-8

_CHECK_LINE = re.compile(r"^(\S+): max_error=\S+ tol=\S+ samples=(\d+) (PASS|FAIL)$")
_ARC_LINE = re.compile(r"^arc=\d+ .*\btype=(\S+)")
_GROUP_LINE = re.compile(r"^n=\d+ k=\d+ d=\d+ iso=(.+)$")
_MAP_LINE = re.compile(r"^map (\S+): wrote (\d+) samples to (.+)$")
_EMIT_LINE = re.compile(r"^arc (\d+): wrote (\d+) rows to (.+)$")


@dataclass
class Outcome:
    """Operations attempted and the problems of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def no_span(op_id):
    return contextlib.nullcontext()


def run_cli(argv) -> tuple:
    """innerinv.cli.run with its output captured: (exit code, stdout lines)."""
    from innerinv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run([str(a) for a in argv])
    return rc, out.getvalue().splitlines() + err.getvalue().splitlines()


# ---------------------------------------------------------------------------
# judging one CLI operation against its expectation; each returns a list of
# problems (empty when the operation is correct) and the points it reported


def _exit_problem(rc, want) -> list:
    return [] if rc == want else [f"exit {rc}, expected {want}"]


def judge_verify(rc, lines, want_exit: int, generators) -> tuple:
    problems = _exit_problem(rc, want_exit)
    checks = {}
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(1)] = (int(m.group(2)), m.group(3) == "PASS")
    if want_exit == 0:
        failed = sorted(name for name, (_, ok) in checks.items() if not ok)
        if failed:
            problems.append(f"checks failed: {', '.join(failed)}")
        required = [f"{kind}_{g}" for g in generators for kind in ("invariance", "bijection")]
        if generators:
            required.append("relations")
        missing = [name for name in required if name not in checks]
        if missing:
            problems.append(f"checks missing: {', '.join(missing)}")
        if not lines or lines[-1] != "all checks passed":
            problems.append("no 'all checks passed' line")
    return problems, sum(n for n, _ in checks.values())


def judge_control(rc, lines) -> tuple:
    """A negative control must exit 1 with its control check failing and
    every regular check passing."""
    problems = _exit_problem(rc, 1)
    control_failed = False
    points = 0
    for line in lines:
        m = _CHECK_LINE.match(line)
        if not m:
            continue
        points += int(m.group(2))
        if m.group(1).startswith("control_"):
            control_failed = m.group(3) == "FAIL"
        elif m.group(3) == "FAIL":
            problems.append(f"regular check {m.group(1)} failed")
    if not control_failed:
        problems.append("control check did not fail")
    return problems, points


def judge_classify(rc, lines, arc_types) -> tuple:
    got = [m.group(1) for m in map(_ARC_LINE.match, lines) if m]
    problems = _exit_problem(rc, 0)
    if got != list(arc_types):
        problems.append(f"arc types {got}, expected {list(arc_types)}")
    return problems, 0


def judge_group(rc, lines, iso_label) -> tuple:
    got = [m.group(1) for m in map(_GROUP_LINE.match, lines) if m]
    problems = _exit_problem(rc, 0)
    if got != [iso_label]:
        problems.append(f"iso {got}, expected {iso_label!r}")
    return problems, 0


def _csv_problems(path: Path, rows: int) -> list:
    """The CSV has a header plus `rows` rows of finite numbers."""
    try:
        text = path.read_text().splitlines()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if len(text) != rows + 1:
        return [f"{path.name}: {len(text) - 1} rows, reported {rows}"]
    for line in text[1:]:
        if not all(math.isfinite(float(v)) for v in line.split(",")):
            return [f"{path.name}: non-finite value in {line!r}"]
    return []


def judge_written(rc, lines, pattern, names) -> tuple:
    """maps and emit: the files each line reports, against the expected names."""
    problems = _exit_problem(rc, 0)
    found = [m for m in map(pattern.match, lines) if m]
    got = [m.group(1) for m in found]
    if got != list(names):
        problems.append(f"wrote {got}, expected {list(names)}")
    points = 0
    for m in found:
        rows = int(m.group(2))
        points += rows
        if rows == 0:
            problems.append(f"{m.group(3)}: no rows")
        problems += _csv_problems(Path(m.group(3)), rows)
    return problems, points


def judge_classification(report, expect) -> list:
    """Arc types and group label of a SpectrumReport against a document's
    expectation."""
    from innerinv import compute_group, labels_from_report

    problems = []
    types = [arc.itype for arc in report.intervals]
    if types != list(expect["arc_types"]):
        problems.append(f"arc types {types}, expected {expect['arc_types']}")
    iso = compute_group(labels_from_report(report)).iso_label
    if iso != expect["iso_label"]:
        problems.append(f"iso {iso!r}, expected {expect['iso_label']!r}")
    return problems


def _attempt(out: Outcome, label: str, fn) -> int:
    """Run one operation, record its outcome, return its points."""
    try:
        problems, points = fn()
    except Exception as exc:  # an exception is a failed operation, not a crash
        problems, points = [f"{type(exc).__name__}: {exc}"], 0
    out.record(label, problems)
    return points


# ---------------------------------------------------------------------------
# workloads


# judge of each corpus stage, given (exit code, lines, the spec's expectation)
_CORPUS_JUDGES = {
    "classify": lambda rc, lines, want: judge_classify(rc, lines, want["arc_types"]),
    "group": lambda rc, lines, want: judge_group(rc, lines, want["iso_label"]),
    "maps": lambda rc, lines, want: judge_written(rc, lines, _MAP_LINE, want["generators"]),
    "verify": lambda rc, lines, want: judge_verify(rc, lines, 0, want["generators"]),
    "emit": lambda rc, lines, want: judge_written(
        rc, lines, _EMIT_LINE, [str(j) for j in range(len(want["arc_types"]))]
    ),
}


class Corpus:
    """The curated specs/*.json through all five CLI stages, then one
    negative control each."""

    def __init__(self, root: Path, seed: int, work: Path, span=no_span):
        self.root, self.seed, self.work, self.span = root, seed, work, span
        self.expect = json.loads((INPUTS / "corpus.json").read_text())["specs"]
        self.ops = 0

    def setup(self) -> None:
        from innerinv import parse_document

        self.paths = sorted((self.root / "specs").glob("*.json"))
        for path in self.paths:
            parse_document(path.read_text())
        stems = [p.stem for p in self.paths]
        if stems != sorted(self.expect):
            raise RuntimeError(f"specs/ holds {stems}, expectations cover {sorted(self.expect)}")

    def run_pass(self, out: Outcome) -> int:
        points = 0
        for i, path in enumerate(self.paths):
            want = self.expect[path.stem]
            common = [path, "--out", self.work / path.stem, "--seed", self.seed]
            control = CONTROLS[i % len(CONTROLS)]
            ops = [(stage, [stage] + common, _CORPUS_JUDGES[stage]) for stage in STAGES]
            ops.append((f"verify --control {control}",
                        ["verify"] + common + ["--control", control],
                        lambda rc, lines, want: judge_control(rc, lines)))
            for label, argv, judge in ops:
                with self.span(self.ops):
                    points += _attempt(
                        out, f"{path.stem} {label}", lambda: judge(*run_cli(argv), want)
                    )
                self.ops += 1
        return points

    def gate(self, out: Outcome) -> None:
        """Every corpus operation is judged as it finishes."""


class Verify:
    """`verify` on one fixed document kept under inputs/."""

    def __init__(self, name: str, root: Path, seed: int, work: Path, span=no_span):
        self.name, self.seed, self.work, self.span = name, seed, work, span
        self.input = json.loads((INPUTS / f"{name}.json").read_text())
        self.expect = self.input["expect"]
        self.ops = 0

    def setup(self) -> None:
        from innerinv import parse_document

        text = json.dumps(self.input["spec"], indent=1)
        self.doc = parse_document(text)
        self.path = self.work / f"{self.name}.json"
        self.path.write_text(text)

    def run_pass(self, out: Outcome) -> int:
        argv = ["verify", self.path, "--seed", self.seed]
        want = self.expect
        with self.span(self.ops):
            points = _attempt(
                out,
                f"{self.name} verify",
                lambda: judge_verify(*run_cli(argv), want["verify_exit"], want["generators"]),
            )
        self.ops += 1
        return points

    def gate(self, out: Outcome) -> None:
        _attempt(out, f"{self.name} expectation", self._expectation_problems)

    def _expectation_problems(self) -> tuple:
        from innerinv import MapWorkspace, certifiable_terms, classify_intervals

        spec, policy = self.doc.spec, self.doc.policy
        report = classify_intervals(spec, policy)
        problems = judge_classification(report, self.expect)
        limit = self.expect.get("certified_terms_at_most")
        if limit is not None:
            ws = MapWorkspace(report)
            terms = max(
                certifiable_terms(spec, ws.arc_bounds(j), policy) for j in range(max(ws.n, 1))
            )
            if terms > limit:
                problems.append(f"certificate needs {terms} terms, expected at most {limit}")
        return problems, 0


class MapQueries:
    """Steady-state map evaluation on charts built during setup."""

    OPS_PER_PASS = 32
    PER_ARC = 256
    CERT_STRIDE = 64
    SHIFTS = (-2, -1, 1, 2)

    def __init__(self, root: Path, seed: int, work: Path, span=no_span):
        self.seed, self.span = seed, span
        self.input = json.loads((INPUTS / "map_queries.json").read_text())
        self.expect = self.input["expect"]
        self.results = []
        self.ops = 0

    def setup(self) -> None:
        from innerinv import MapWorkspace, classify_intervals, parse_document

        self.doc = parse_document(json.dumps(self.input["spec"]))
        self.report = classify_intervals(self.doc.spec, self.doc.policy)
        self.ws = MapWorkspace(self.report)
        self.charts = [self.ws.chart(j) for j in range(self.ws.n)]
        desc = self.ws.descriptor
        # every shift component is nonzero and rotations alternate, so each
        # pass holds the same mix of arc transfers whatever the seed
        rng = random.Random(self.seed)
        self.elements = [
            desc.element([rng.choice(self.SHIFTS) for _ in range(desc.k)], i % desc.d)
            for i in range(self.OPS_PER_PASS)
        ]

    def run_pass(self, out: Outcome) -> int:
        first = not self.results
        points = 0
        for i, element in enumerate(self.elements):
            with self.span(self.ops):
                try:
                    mp = self.ws.realize(element)
                    pts = mp.sample_points(self.PER_ARC)
                    images = mp.apply_many(pts)
                    radii = [mp.cert_radius(float(t)) for t in pts[:: self.CERT_STRIDE]]
                    result = (mp.interval_shift, pts, images, radii)
                    problems = [] if pts.size else ["no sample points"]
                except Exception as exc:
                    result, problems = None, [f"{type(exc).__name__}: {exc}"]
            self.ops += 1
            if first:
                self.results.append(result)
            elif result is None or not _same_result(result, self.results[i]):
                problems = problems or ["differs from the first pass"]
            out.record(f"map_queries op {i}", problems)
            points += 0 if result is None else int(result[1].size)
        return points

    def gate(self, out: Outcome) -> None:
        """Charts as documented, and every image of the first pass satisfies
        |Theta(x(theta)) - Theta(theta)| < 1e-8, each side evaluated at the
        policy of its own arc's chart."""
        _attempt(out, "map_queries expectation",
                 lambda: (judge_classification(self.report, self.expect), 0))
        for i, result in enumerate(self.results):
            if result is not None:
                _attempt(out, f"map_queries op {i} invariance",
                         lambda: (self.invariance_problems(*result), 0))

    def invariance_problems(self, shift, pts, images, radii) -> list:
        import numpy as np
        from innerinv import phase_lift

        problems = []
        if not all(math.isfinite(r) and r >= 0.0 for r in radii):
            problems.append(f"certificate radii {radii}")
        n = self.ws.n
        src = (np.searchsorted(self.ws.angles_arr, pts, side="right") - 1) % n
        worst = 0.0
        for j in range(n):
            sel = src == j
            if not sel.any():
                continue
            before = phase_lift(self.doc.spec, pts[sel], self.charts[j].policy)
            after = phase_lift(self.doc.spec, images[sel], self.charts[(j + shift) % n].policy)
            gap = np.abs(np.exp(1j * after) - np.exp(1j * before))
            worst = max(worst, float(np.max(gap)))
        if not worst < INVARIANCE_TOL:
            problems.append(f"invariance error {worst:.3e}")
        return problems


def _same_result(a, b) -> bool:
    import numpy as np

    return (
        b is not None
        and a[0] == b[0]
        and np.array_equal(a[1], b[1])
        and np.array_equal(a[2], b[2])
        and a[3] == b[3]
    )


WORKLOADS = ("corpus", "atom_ring", "tail_deep", "map_queries")


def make(name: str, root: Path, seed: int, work: Path, span=no_span):
    if name == "corpus":
        return Corpus(root, seed, work, span)
    if name in ("atom_ring", "tail_deep"):
        return Verify(name, root, seed, work, span)
    if name == "map_queries":
        return MapQueries(root, seed, work, span)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
