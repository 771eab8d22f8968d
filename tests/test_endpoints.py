"""Arc endpoints at generic angles.

The last arc ends at angles[0] + 2*pi, and for most angles that float
reduced mod 2*pi is not angles[0] again.  These tests put spectrum points
away from 0, where an endpoint found by reducing a float would miss its
point: rotated copies of the curated specs, random single atoms, and
random atom-plus-zero specs.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import innerinv.classify as classify_module
from innerinv import (
    Atom,
    DiskZero,
    InnerFunctionSpec,
    TruncationError,
    TruncationPolicy,
    build_phase_chart,
    certifiable_terms,
    classify_intervals,
    compute_group,
    labels_from_report,
    run_all_checks,
)
from innerinv.document import parse_document

from conftest import SPEC_DIR

TWO_PI = 2.0 * math.pi
SPEC_FILES = sorted(SPEC_DIR.glob("*.json"))


def _load(path):
    doc = parse_document(path.read_text())
    return doc.spec, doc.policy


def _rotated(spec: InnerFunctionSpec, alpha: float) -> InnerFunctionSpec:
    """The spec with every angle advanced by alpha, spectrum angles in [0, 2*pi)."""
    return InnerFunctionSpec(
        constant_arg=spec.constant_arg,
        zero_order=spec.zero_order,
        zeros=tuple(
            DiskZero(z.modulus, z.argument + alpha, z.multiplicity) for z in spec.zeros
        ),
        tails=tuple(
            dataclasses.replace(t, anchor_theta=(t.anchor_theta + alpha) % TWO_PI)
            for t in spec.tails
        ),
        atoms=tuple(Atom((a.theta + alpha) % TWO_PI, a.mass) for a in spec.atoms),
    )


def _iso(report) -> str:
    return compute_group(labels_from_report(report)).iso_label


def _failures(report):
    return [(r.name, r.max_error) for r in run_all_checks(report) if not r.passed]


class TestArcEnds:
    def test_wrap_end_reads_the_first_point(self):
        # (theta + 2*pi) % 2*pi is not theta for this angle
        theta = 2.721999116933362
        assert (theta + TWO_PI) % TWO_PI != theta
        spec = InnerFunctionSpec(atoms=(Atom(theta, 1.0),))
        lo, hi = spec.arc_bounds(0)
        assert (lo, hi) == (theta, theta + TWO_PI)
        assert spec.arc_accumulation(lo, hi) == (True, True)


class TestRotatedSpecs:
    @pytest.mark.parametrize("alpha", [0.001, 2.72, 4.0])
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
    def test_rotation_keeps_the_group(self, path, alpha):
        spec, policy = _load(path)
        want = _iso(classify_intervals(spec, policy))
        report = classify_intervals(_rotated(spec, alpha), policy)
        assert _iso(report) == want
        if alpha == 2.72:
            assert _failures(report) == []


class TestGenericAtoms:
    def test_random_single_atoms_give_z(self):
        rng = np.random.default_rng(17)
        wrong = []
        for theta in rng.uniform(0.0, TWO_PI, size=200):
            spec = InnerFunctionSpec(atoms=(Atom(float(theta), 1.0),))
            report = classify_intervals(spec)
            if _iso(report) != "Z" or report.intervals[0].itype != "2":
                wrong.append(float(theta))
        assert wrong == []

    @pytest.mark.parametrize("theta", [2.721999116933362, 0.04456])
    def test_single_atom_verifies(self, theta):
        report = classify_intervals(InnerFunctionSpec(atoms=(Atom(theta, 1.0),)))
        assert _iso(report) == "Z"
        assert _failures(report) == []

    @given(
        theta=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
        mass=st.floats(min_value=0.2, max_value=2.0),
        modulus=st.floats(min_value=0.0, max_value=0.9),
        argument=st.floats(min_value=0.0, max_value=TWO_PI),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_atom_and_zero_specs_verify(self, theta, mass, modulus, argument):
        spec = InnerFunctionSpec(
            zeros=(DiskZero(modulus, argument),), atoms=(Atom(theta, mass),)
        )
        report = classify_intervals(spec)
        assert _iso(report) == "Z"
        assert _failures(report) == []


class TestOneRetreatSchedule:
    def test_chart_below_the_certified_count_is_refused(self):
        # the chart builder retreats on the same schedule as
        # certifiable_terms, so half that count cannot certify the arc
        spec, policy = _load(SPEC_DIR / "mixed_tangential.json")
        arc = spec.arc_bounds(0)
        n = certifiable_terms(spec, arc, policy)
        chart = build_phase_chart(spec, arc, TruncationPolicy(n, policy.phase_tol))
        assert chart.cert_bound <= policy.phase_tol
        half = TruncationPolicy(n // 2, policy.phase_tol)
        with pytest.raises(TruncationError, match="truncation bound .* exceeds"):
            build_phase_chart(spec, arc, half)


class TestOneLimitPerPoint:
    def test_one_sided_limit_once_per_type1_point(self, monkeypatch):
        calls = []
        original = classify_module.one_sided_limit

        def counted(spec, xi, side, policy):
            calls.append((xi.theta, side))
            return original(spec, xi, side, policy)

        monkeypatch.setattr(classify_module, "one_sided_limit", counted)
        spec, policy = _load(SPEC_DIR / "mixed_tangential.json")
        report = classify_intervals(spec, policy)
        type1 = [s for s in report.singularities if s.sing_type in ("1a", "1b")]
        assert len(type1) == 2
        assert sorted(calls) == sorted(
            (s.theta, "below" if s.sing_type == "1a" else "above") for s in type1
        )
        # arc 1 runs from the 1b point to the 1a point: both its limits
        # are the points' own
        arc = report.intervals[1]
        assert arc.limit_lo is report.singularities[1].limit
        assert arc.limit_hi is report.singularities[0].limit
