"""Verification suite behavior: positive runs and negative controls."""

import math

import pytest

from innerinv import (
    Atom,
    CheckReport,
    DiskZero,
    InnerFunctionSpec,
    MapWorkspace,
    StolzTail,
    TangentialTail,
    check_bijection,
    check_garnett_identity,
    check_invariance,
    check_phase_derivative,
    check_relations,
    classify_intervals,
    run_all_checks,
)
from innerinv.checks import FoldedControlMap, OffsetControlMap, check_frostman_types

GARNETT_HALF_PI = 0.39758361765043326


class TestCheckReport:
    def test_pass_iff_below_tolerance(self):
        from innerinv.checks import _report

        assert _report("x", 0.5, 1, 1.0).passed
        assert not _report("x", 1.0, 1, 1.0).passed
        assert not _report("x", math.inf, 1, 1.0).passed


class TestNumericalIdentities:
    def test_phase_derivative_all_cause_kinds(self):
        spec = InnerFunctionSpec(
            zero_order=1,
            zeros=(DiskZero(0.6, 2.5),),
            atoms=(Atom(0.7, 0.8),),
            tails=(
                StolzTail(4.0, c=0.5, q=0.5),
                TangentialTail(5.5, "upper", 5.0),
            ),
        )
        rep = check_phase_derivative(spec, seed=11)
        assert rep.passed, rep
        assert rep.samples == 100

    def test_garnett_pinned_value(self):
        from innerinv import poisson_arc_mass

        assert poisson_arc_mass(DiskZero(0.5, 0.0), math.pi / 2) == pytest.approx(
            GARNETT_HALF_PI, abs=1e-12
        )

    def test_garnett_against_quadrature(self):
        rep = check_garnett_identity(seed=5)
        assert rep.passed
        assert rep.samples == 50
        assert rep.max_error < 1e-8

    def test_seed_reproducibility(self):
        a = check_garnett_identity(seed=9)
        b = check_garnett_identity(seed=9)
        assert a.max_error == b.max_error


class TestFrostmanStability:
    def test_two_atom_types_survive_transforms(self, two_atom_report):
        rep = check_frostman_types(two_atom_report, seed=3)
        assert rep.passed
        assert rep.max_error == 0.0

    def test_stolz_accumulation_survives(self):
        spec = InnerFunctionSpec(tails=(StolzTail(0.0, c=0.5, q=0.5),))
        rep = check_frostman_types(classify_intervals(spec), seed=3)
        assert rep.passed

    def test_quiet_arc_survives(self):
        spec = InnerFunctionSpec(
            tails=(
                TangentialTail(0.0, "upper", 6.0),
                TangentialTail(math.pi, "lower", 6.0),
            )
        )
        rep = check_frostman_types(classify_intervals(spec), seed=3)
        assert rep.passed


class TestGeneratorChecks:
    def test_invariance_of_rotation(self, two_atom_report):
        ws = MapWorkspace(two_atom_report)
        y = ws.build_rotation_map(1)
        rep = check_invariance(ws.spec, y, 128, 1e-8)
        assert rep.passed
        assert rep.max_error < 1e-10

    def test_bijection_of_shift(self, two_atom_report):
        ws = MapWorkspace(two_atom_report)
        x1 = ws.build_shift_map(0)
        rep = check_bijection(x1)
        assert rep.passed

    def test_invariance_independent_of_built_charts(self):
        # the Stolz tail with q close to 1 needs far more than the default
        # 64 terms; the first call must not evaluate before charts exist
        spec = InnerFunctionSpec(
            tails=(StolzTail(0.0, c=0.5, q=0.999),), atoms=(Atom(math.pi, 1.0),)
        )
        ws = MapWorkspace(classify_intervals(spec))
        x1 = ws.build_shift_map(ws.descriptor.type2_indices[0])
        first = check_invariance(spec, x1)
        second = check_invariance(spec, x1)
        assert first.passed, first
        assert first.max_error == second.max_error

    def test_relations_two_atoms(self, two_atom_report):
        ws = MapWorkspace(two_atom_report)
        rep = check_relations(ws, seed=2)
        assert rep.passed
        assert rep.max_error < 1e-12


class TestControls:
    def test_offset_control_breaks_invariance(self, two_atom_report):
        ws = MapWorkspace(two_atom_report)
        y = ws.build_rotation_map(1)
        bad = OffsetControlMap(y, 0.01)
        rep = check_invariance(ws.spec, bad, 128, 1e-8, name="control")
        assert not rep.passed
        assert rep.max_error > 1e-3

    def test_folded_control_breaks_bijection(self, two_atom_report):
        ws = MapWorkspace(two_atom_report)
        bad = FoldedControlMap(ws, 0.2)
        rep = check_bijection(bad, name="control")
        assert not rep.passed

    def test_folded_map_is_really_folded(self, two_atom_report):
        # the control must be non-monotone yet still continuous and periodic
        ws = MapWorkspace(two_atom_report)
        bad = FoldedControlMap(ws, 0.2)
        import numpy as np

        ts = np.linspace(0.0, 2.0 * math.pi, 2000)
        lifted = np.array([bad.lift(float(t)) for t in ts])
        assert (np.diff(lifted) < 0).any()
        assert bad.lift(2.0 * math.pi) == pytest.approx(bad.lift(0.0) + 2.0 * math.pi)


class TestRunAll:
    def test_all_pass_without_control(self, two_atom_report):
        reports = run_all_checks(two_atom_report, seed=7)
        assert reports, "no checks ran"
        names = [r.name for r in reports]
        assert "phase_derivative" in names
        assert "garnett_identity" in names
        assert "frostman_types" in names
        assert "relations" in names
        assert any(n.startswith("invariance_") for n in names)
        assert all(r.passed for r in reports), [
            (r.name, r.max_error) for r in reports if not r.passed
        ]

    @pytest.mark.parametrize("control", ["perturbed", "folded", "wrong-rotation"])
    def test_each_control_fails(self, two_atom_report, control):
        reports = run_all_checks(two_atom_report, seed=7, control=control)
        failed = [r for r in reports if not r.passed]
        assert len(failed) == 1
        assert failed[0].name.startswith("control_")

    def test_spectrum_free_checks(self):
        spec = InnerFunctionSpec(zero_order=4)
        reports = run_all_checks(classify_intervals(spec), seed=7)
        assert all(r.passed for r in reports), [
            (r.name, r.max_error) for r in reports if not r.passed
        ]

    def test_reports_are_value_objects(self, two_atom_report):
        reports = run_all_checks(two_atom_report, seed=7)
        for r in reports:
            assert isinstance(r, CheckReport)
            assert r.passed == (r.max_error < r.tol)
