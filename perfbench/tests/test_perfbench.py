"""Tests of the benchmark itself: span arithmetic, tracing transparency and
the correctness gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracing  # noqa: E402
import workloads  # noqa: E402
from innerinv import checks, classify_intervals, parse_document  # noqa: E402

TWO_ATOMS = ROOT / "specs" / "two_atoms.json"


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [9, 12] (running past root); a has child g [2, 3]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    own = tracing.self_times(starts, ends, parents)
    # root loses the union [1, 6] + [9, 10], not 3 + 3 + 3
    assert own == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_layer_metrics_count_recursion_once():
    tr = tracing.Tracer()
    tr.names = ["operation", "realize", "realize", "phase_lift"]
    tr.starts = [0.0, 1.0, 2.0, 2.5]
    tr.ends = [10.0, 5.0, 4.0, 3.5]
    tr.parents = [-1, 0, 1, 2]
    tr.outer = [True, True, False, True]
    tr.ops = [0, 0, 0, 0]
    m = tracing.layer_metrics(tr)
    assert m["phase_lift.calls"] == 1
    assert m["phase_lift.self_s"] == pytest.approx(1.0)
    # realize spans nest: inclusive time counts only the outer one
    assert m["realize.s"] == pytest.approx(4.0)
    assert set(m) == set(tracing.LAYER_METRICS)


def _verify_lines():
    return workloads.run_cli(["verify", TWO_ATOMS, "--seed", 3])


def test_traced_and_untraced_verify_report_the_same_checks():
    doc = parse_document(TWO_ATOMS.read_text())
    report = classify_intervals(doc.spec, doc.policy)
    plain_reports = checks.run_all_checks(report, seed=3)
    plain_cli = _verify_lines()
    original = checks.check_invariance

    tr = tracing.Tracer()
    with tracing.install(tr):
        assert checks.check_invariance is not original
        with tr.operation(0):
            traced_reports = checks.run_all_checks(report, seed=3)
        traced_cli = _verify_lines()
    assert checks.check_invariance is original

    assert traced_reports == plain_reports
    assert traced_cli == plain_cli
    assert plain_cli[0] == 0
    m = tracing.layer_metrics(tr)
    assert m["cli.verify.s"] > 0.0
    assert m["check_invariance.s"] > 0.0
    assert m["phase_lift.calls"] > 0
    assert m["phase_lift.atom_points"] > 0
    assert m["phase_lift.term_points"] == 0


@pytest.fixture
def small_input(tmp_path, monkeypatch):
    """A fast verify workload on two atoms, with an editable expectation."""
    monkeypatch.setattr(workloads, "INPUTS", tmp_path)
    spec = json.loads(TWO_ATOMS.read_text())
    expect = {
        "arc_types": ["2", "2"],
        "iso_label": "Z^2 ⋊ Z_2",
        "verify_exit": 0,
        "generators": ["x1", "x2", "y"],
    }

    def run(**changes):
        (tmp_path / "small.json").write_text(
            json.dumps({"spec": spec, "expect": {**expect, **changes}})
        )
        work = tmp_path / "work"
        work.mkdir(exist_ok=True)
        wl = workloads.Verify("small", ROOT, 0, work)
        wl.setup()
        out = workloads.Outcome()
        wl.run_pass(out)
        wl.gate(out)
        return out

    return run


def test_right_expectation_passes(small_input):
    out = small_input()
    assert (out.attempted, out.failures) == (2, [])


@pytest.mark.parametrize(
    "changes",
    [{"iso_label": "Z_3"}, {"arc_types": ["2", "1a"]}, {"verify_exit": 1},
     {"generators": ["x1", "x2", "x3"]}],
)
def test_wrong_expectation_counts_a_failure(small_input, changes):
    out = small_input(**changes)
    assert out.attempted == 2
    assert len(out.failures) == 1


def test_negative_control_that_exits_0_fails():
    passing = ["control_perturbed: max_error=1.0e-13 tol=1.0e-08 samples=256 PASS",
               "all checks passed"]
    problems, _ = workloads.judge_control(0, passing)
    assert problems
    failing = ["invariance_y: max_error=1.0e-13 tol=1.0e-08 samples=256 PASS",
               "control_perturbed: max_error=1.0e-02 tol=1.0e-08 samples=256 FAIL",
               "1 check(s) failed"]
    assert workloads.judge_control(1, failing) == ([], 512)


def test_map_queries_gate_catches_a_wrong_image(tmp_path):
    wl = workloads.MapQueries(ROOT, 0, tmp_path)
    wl.setup()
    mp = wl.ws.realize(wl.elements[1])
    pts = mp.sample_points(32)
    images = mp.apply_many(pts)
    radii = [mp.cert_radius(float(pts[0]))]
    assert wl.invariance_problems(mp.interval_shift, pts, images, radii) == []
    images[5] += 1e-6
    assert wl.invariance_problems(mp.interval_shift, pts, images, radii)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "map_queries",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
