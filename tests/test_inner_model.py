"""Unit tests for boundary evaluation, phase lifts, and charts."""

import cmath
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerinv import (
    Atom,
    DiskZero,
    DomainError,
    DuplicateSingularityError,
    InnerFunctionSpec,
    PhaseRangeError,
    SingularPointError,
    StolzTail,
    TangentialTail,
    TruncationPolicy,
    UnitPoint,
    atom_phase,
    atom_phase_derivative,
    blaschke_phase,
    build_chart_auto,
    build_phase_chart,
    canon_angle,
    angular_gap,
    eval_factor,
    eval_inner,
    frostman_phase,
    frostman_transform,
    phase_derivative,
    phase_inverse,
    phase_lift,
    poisson_arc_mass,
    poisson_kernel,
    truncation_error_bound,
)
from innerinv.inner_model import _BLOCK_ELEMENTS

TWO_PI = 2.0 * math.pi

angles = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
radii = st.floats(min_value=0.0, max_value=0.95)


class TestAngles:
    @given(angles)
    def test_canon_angle_range(self, t):
        c = canon_angle(t)
        assert 0.0 <= c < TWO_PI

    @given(angles)
    def test_canon_angle_periodic(self, t):
        assert canon_angle(t + TWO_PI) == pytest.approx(canon_angle(t), abs=1e-9)

    def test_angular_gap_inside_is_zero(self):
        assert angular_gap(1.0, 2.0, 1.5) == 0.0

    def test_angular_gap_outside(self):
        assert angular_gap(1.0, 2.0, 2.5) == pytest.approx(0.5)
        assert angular_gap(1.0, 2.0, 0.25) == pytest.approx(0.75)

    def test_angular_gap_wraps(self):
        # distance from 0.1 to the arc [5.0, 6.0] goes through 2*pi
        assert angular_gap(5.0, 6.0, 0.1) == pytest.approx(TWO_PI - 6.0 + 0.1)


class TestFactorPhases:
    def test_centered_normalization(self):
        assert blaschke_phase(0.5, 0.0) == pytest.approx(-math.pi)

    @given(radii, angles)
    def test_blaschke_phase_equivariance(self, r, u):
        lhs = blaschke_phase(r, u + TWO_PI)
        assert lhs == pytest.approx(blaschke_phase(r, u) + TWO_PI, abs=1e-9)

    def test_blaschke_phase_limit_r_to_one(self):
        # inside (0, 2*pi) the centered phase vanishes as the zero
        # approaches the boundary; just below zero it tends to -2*pi
        assert abs(blaschke_phase(1.0 - 1e-9, 1.0)) < 1e-8
        assert blaschke_phase(1.0 - 1e-9, -1.0) == pytest.approx(-TWO_PI, abs=1e-8)

    @given(radii, angles)
    def test_poisson_kernel_is_phase_slope(self, r, u):
        h = 1e-6
        fd = (blaschke_phase(r, u + h) - blaschke_phase(r, u - h)) / (2.0 * h)
        assert fd == pytest.approx(poisson_kernel(r, u), rel=1e-4, abs=1e-6)

    @given(radii, angles)
    def test_poisson_kernel_positive(self, r, u):
        assert poisson_kernel(r, u) > 0.0

    def test_atom_phase_value(self):
        assert atom_phase(1.0, math.pi) == pytest.approx(0.0, abs=1e-15)
        assert atom_phase(2.0, math.pi / 2.0) == pytest.approx(-2.0)

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.05, max_value=TWO_PI - 0.05))
    def test_atom_phase_derivative_matches(self, mass, v):
        h = 1e-7
        fd = (atom_phase(mass, v + h) - atom_phase(mass, v - h)) / (2.0 * h)
        assert fd == pytest.approx(atom_phase_derivative(mass, v), rel=1e-4)

    def test_eval_factor_unimodular_near_ray(self):
        zero = DiskZero(0.9999, 1.0)
        val = eval_factor(zero, UnitPoint(1.0 + 1e-9))
        assert abs(abs(val) - 1.0) < 1e-15

    def test_eval_factor_rejects_origin_zero(self):
        with pytest.raises(DomainError):
            eval_factor(DiskZero(0.0, 0.0), UnitPoint(1.0))


class TestSpecValidation:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DuplicateSingularityError):
            InnerFunctionSpec(atoms=(Atom(1.0, 1.0), Atom(1.0 + TWO_PI, 2.0)))

    def test_negative_zero_order_rejected(self):
        with pytest.raises(DomainError):
            InnerFunctionSpec(zero_order=-1)

    def test_atom_mass_positive(self):
        with pytest.raises(DomainError):
            Atom(0.0, 0.0)

    def test_zero_modulus_range(self):
        with pytest.raises(DomainError):
            DiskZero(1.0, 0.0)

    def test_tangential_rho_floor(self):
        with pytest.raises(DomainError):
            TangentialTail(0.0, "upper", 3.5)

    def test_tangential_side_names(self):
        with pytest.raises(DomainError):
            TangentialTail(0.0, "sideways", 4.0)

    def test_stolz_parameter_ranges(self):
        with pytest.raises(DomainError):
            StolzTail(0.0, c=0.5, q=1.0)
        with pytest.raises(DomainError):
            StolzTail(0.0, c=0.0, q=0.5)

    def test_singular_angles_sorted_unique(self):
        spec = InnerFunctionSpec(
            atoms=(Atom(3.0, 1.0), Atom(1.0, 1.0)),
            tails=(StolzTail(3.0, c=0.5, q=0.5),),
        )
        assert spec.singular_angles == (1.0, 3.0)

    def test_finite_degree_counts_multiplicity(self):
        spec = InnerFunctionSpec(
            zero_order=2, zeros=(DiskZero(0.5, 1.0, 3),)
        )
        assert spec.finite_degree == 5

    def test_accumulates_into_sides(self):
        up = InnerFunctionSpec(tails=(TangentialTail(0.0, "upper", 4.0),))
        assert up.accumulates_into(0.0, +1) is True
        assert up.accumulates_into(0.0, -1) is False
        atom = InnerFunctionSpec(atoms=(Atom(0.0, 1.0),))
        assert atom.accumulates_into(0.0, +1) is True
        assert atom.accumulates_into(0.0, -1) is True


class TestGlobalLift:
    def test_eval_inner_unimodular(self):
        spec = InnerFunctionSpec(
            constant_arg=0.4,
            zero_order=1,
            zeros=(DiskZero(0.6, 2.0),),
            atoms=(Atom(4.0, 0.7),),
            tails=(StolzTail(1.0, c=0.5, q=0.5),),
        )
        pol = TruncationPolicy()
        for t in np.linspace(0.1, TWO_PI - 0.1, 23):
            v = eval_inner(spec, UnitPoint(t), pol)
            assert abs(abs(v) - 1.0) < 1e-15

    def test_eval_inner_rejects_spectrum(self):
        spec = InnerFunctionSpec(atoms=(Atom(1.0, 1.0),))
        with pytest.raises(SingularPointError):
            eval_inner(spec, UnitPoint(1.0), TruncationPolicy())

    def test_phase_lift_consistent_with_eval(self):
        spec = InnerFunctionSpec(zero_order=2, atoms=(Atom(0.0, 1.0),))
        pol = TruncationPolicy()
        t = 2.31
        lift = phase_lift(spec, t, pol)
        assert cmath.exp(1j * lift) == pytest.approx(
            eval_inner(spec, UnitPoint(t), pol), abs=1e-14
        )

    def test_phase_lift_array_matches_scalar(self):
        spec = InnerFunctionSpec(
            zeros=(DiskZero(0.5, 1.0),), atoms=(Atom(0.0, 1.0),)
        )
        pol = TruncationPolicy()
        ts = np.linspace(0.5, 5.5, 11)
        arr = phase_lift(spec, ts, pol)
        for t, v in zip(ts, arr):
            assert v == pytest.approx(phase_lift(spec, float(t), pol), abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=TWO_PI - 0.05))
    @settings(max_examples=30, deadline=None)
    def test_phase_derivative_positive(self, t):
        spec = InnerFunctionSpec(
            zero_order=1, zeros=(DiskZero(0.7, 3.0),), atoms=(Atom(0.0, 0.5),)
        )
        assert phase_derivative(spec, UnitPoint(t), TruncationPolicy()) > 0.0

    def test_phase_derivative_matches_fd(self):
        spec = InnerFunctionSpec(
            zeros=(DiskZero(0.5, 2.0),),
            atoms=(Atom(0.0, 1.0),),
            tails=(StolzTail(3.0, c=0.5, q=0.5),),
        )
        pol = TruncationPolicy()
        t, h = 1.234, 1e-6
        fd = (phase_lift(spec, t + h, pol) - phase_lift(spec, t - h, pol)) / (2 * h)
        assert fd == pytest.approx(
            phase_derivative(spec, UnitPoint(t), pol), rel=1e-6
        )

    def test_constant_and_zero_order_shift(self):
        base = InnerFunctionSpec(atoms=(Atom(0.0, 1.0),))
        shifted = InnerFunctionSpec(constant_arg=0.9, atoms=(Atom(0.0, 1.0),))
        pol = TruncationPolicy()
        assert phase_lift(shifted, 1.0, pol) == pytest.approx(
            phase_lift(base, 1.0, pol) + 0.9
        )


class TestArcMassAndTransform:
    def test_poisson_arc_mass_origin(self):
        # from the origin the harmonic measure of an arc is its length share
        z = DiskZero(0.0, 0.0)
        with pytest.raises(DomainError):
            poisson_arc_mass(z, 0.0)

    def test_poisson_arc_mass_against_quadrature(self):
        from scipy.integrate import quad

        zero = DiskZero(0.5, 1.0)
        eps = 2.0
        num, _ = quad(
            lambda t: poisson_kernel(zero.modulus, t - zero.argument) / TWO_PI,
            0.0,
            eps,
            epsabs=1e-12,
            limit=200,
        )
        assert poisson_arc_mass(zero, eps) == pytest.approx(num, abs=1e-10)

    @given(st.complex_numbers(max_magnitude=0.8, allow_nan=False),
           angles)
    @settings(max_examples=50)
    def test_frostman_transform_unimodular(self, a, t):
        w = frostman_transform(cmath.exp(1j * t), a)
        assert abs(abs(w) - 1.0) < 1e-12

    def test_frostman_transform_rejects_outside(self):
        with pytest.raises(DomainError):
            frostman_transform(1.0 + 0.0j, 1.2 + 0.0j)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=40)
    def test_frostman_phase_agrees_with_transform(self, phi):
        a = 0.3 - 0.4j
        lifted = frostman_phase(phi, a)
        direct = frostman_transform(cmath.exp(1j * phi), a)
        assert cmath.exp(1j * lifted) == pytest.approx(direct, abs=1e-12)

    def test_frostman_phase_equivariance(self):
        a = 0.5 + 0.1j
        assert frostman_phase(1.3 + TWO_PI, a) == pytest.approx(
            frostman_phase(1.3, a) + TWO_PI
        )


class TestTruncationCertificates:
    def test_bound_decreases_with_terms(self):
        spec = InnerFunctionSpec(tails=(StolzTail(0.0, c=0.5, q=0.5),))
        arc = (1.0, 2.0)
        bounds = [truncation_error_bound(spec, arc, n) for n in (4, 8, 16, 32)]
        assert all(b > 0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)

    def test_bound_controls_actual_error(self):
        spec = InnerFunctionSpec(tails=(StolzTail(0.0, c=0.5, q=0.5),))
        arc = (1.0, 2.0)
        small = TruncationPolicy(tail_terms=8)
        big = TruncationPolicy(tail_terms=2048)
        bound = truncation_error_bound(spec, arc, 8)
        for t in np.linspace(arc[0], arc[1], 9):
            drift = abs(phase_lift(spec, t, small) - phase_lift(spec, t, big))
            assert drift <= bound + 1e-12

    def test_atoms_and_zeros_need_no_terms(self):
        spec = InnerFunctionSpec(zeros=(DiskZero(0.5, 1.0),), atoms=(Atom(0.0, 1.0),))
        assert truncation_error_bound(spec, (2.0, 3.0), 1) == 0.0

    def test_tangential_bound_polynomial_decay(self):
        spec = InnerFunctionSpec(tails=(TangentialTail(0.0, "upper", 4.0),))
        arc = (1.0, 2.0)
        b1 = truncation_error_bound(spec, arc, 64)
        b2 = truncation_error_bound(spec, arc, 128)
        assert 0.0 < b2 < b1


class TestPhaseCharts:
    def make_chart(self):
        spec = InnerFunctionSpec(atoms=(Atom(0.0, 1.0), Atom(math.pi, 1.0)))
        return build_phase_chart(spec, (0.0, math.pi), TruncationPolicy())

    def test_monotone_grid(self):
        ch = self.make_chart()
        assert np.all(np.diff(ch.thetas) > 0)
        assert np.all(np.diff(ch.phases) > 0)

    def test_window_reached_on_accumulating_sides(self):
        ch = self.make_chart()
        assert ch.phase_lo <= ch.midpoint_phase - 0.99 * 8.0 * math.pi
        assert ch.phase_hi >= ch.midpoint_phase + 0.99 * 8.0 * math.pi

    @given(st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_invert_roundtrip(self, frac):
        ch = self.make_chart()
        target = ch.midpoint_phase + frac * 8.0 * math.pi
        t = ch.invert_lift(target)
        assert ch.phase_of(t) == pytest.approx(target, abs=1e-9)

    def test_invert_many_matches_scalar(self):
        ch = self.make_chart()
        targets = np.linspace(ch.phase_lo + 0.1, ch.phase_hi - 0.1, 17)
        many = ch.invert_lift_many(targets)
        for tg, t in zip(targets, many):
            assert t == pytest.approx(ch.invert_lift(float(tg)), abs=1e-12)

    def test_out_of_range_raises(self):
        ch = self.make_chart()
        with pytest.raises(PhaseRangeError):
            ch.invert_lift(ch.phase_hi + 1.0)

    def test_phase_inverse_returns_unit_point(self):
        ch = self.make_chart()
        pt = phase_inverse(ch, ch.midpoint_phase + 1.0)
        assert isinstance(pt, UnitPoint)
        assert 0.0 < pt.theta < math.pi

    def test_interior_spectrum_rejected(self):
        spec = InnerFunctionSpec(atoms=(Atom(1.0, 1.0),))
        from innerinv import InvalidArcError

        with pytest.raises(InvalidArcError):
            build_phase_chart(spec, (0.5, 1.5), TruncationPolicy())

    def test_periodic_chart_winding(self):
        spec = InnerFunctionSpec(zero_order=3)
        ch = build_phase_chart(spec, (0.0, TWO_PI), TruncationPolicy())
        assert ch.periodic
        assert ch.winding == pytest.approx(3.0 * TWO_PI)
        # periodic reduction: any target is invertible
        t = ch.invert_lift(ch.phase_hi + 5.0 * TWO_PI)
        assert 0.0 <= t
        assert ch.phase_of(t % TWO_PI) == pytest.approx(
            ch.phase_of(t) - TWO_PI * 3.0 * (t // TWO_PI), abs=1e-9
        )

    def test_auto_chart_certificate_cleared(self):
        spec = InnerFunctionSpec(tails=(TangentialTail(0.0, "upper", 6.0),))
        pol = TruncationPolicy(tail_terms=4, phase_tol=1e-9)
        ch = build_chart_auto(spec, (0.0, TWO_PI), pol)
        assert ch.cert_bound <= 1e-9
        assert ch.policy.tail_terms >= 4
        assert ch.policy.phase_tol == 1e-9


def _unblocked_phase(spec, theta, policy):
    """The phase lift summed the direct way, every point-term element at once."""
    th = np.asarray(theta, dtype=float)
    total = spec.constant_arg + spec.zero_order * th
    for z in spec.zeros:
        total = total + z.multiplicity * blaschke_phase(z.modulus, th - z.argument)
    for tail in spec.tails:
        delta, phi = tail.terms(policy.tail_terms)
        total = total + blaschke_phase(1.0 - delta, th[..., None] - phi).sum(axis=-1)
    for atom in spec.atoms:
        total = total + atom_phase(atom.mass, th - atom.theta)
    return total


def _bisection_oracle(chart, target):
    """Reference inverse: bisect the node bracket of target down to adjacent
    floats.  Returns the answer and the bracket."""
    i = int(np.clip(np.searchsorted(chart.phases, target, side="right"), 1, len(chart.phases) - 1))
    bracket = (float(chart.thetas[i - 1]), float(chart.thetas[i]))
    lo, hi = bracket
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid, bracket
        if chart.phase_of(mid) < target:
            lo = mid
        else:
            hi = mid


# Each spec carries enough slope (a zero at the origin or an atom) that the
# phase rounding, divided by the slope, stays below 1e-14 rad: no inverse is
# determined more finely than that, so the 1e-14 agreement is meaningful.
_INVERSION_SPECS = {
    "atom": (InnerFunctionSpec(atoms=(Atom(0.0, 1.0), Atom(math.pi, 1.0))), (0.0, math.pi)),
    "stolz": (
        InnerFunctionSpec(zero_order=3, tails=(StolzTail(0.0, c=0.5, q=0.5),)),
        (0.0, TWO_PI),
    ),
    "tangential": (
        InnerFunctionSpec(
            zero_order=2, tails=(TangentialTail(0.0, "upper", 6.0),), atoms=(Atom(math.pi, 1.0),)
        ),
        (0.0, math.pi),
    ),
    "periodic": (InnerFunctionSpec(zero_order=5), (0.0, TWO_PI)),
}
_INVERSION_CHARTS = {}


def _inversion_chart(name):
    if name not in _INVERSION_CHARTS:
        spec, arc = _INVERSION_SPECS[name]
        _INVERSION_CHARTS[name] = build_chart_auto(spec, arc, TruncationPolicy())
    return _INVERSION_CHARTS[name]


class TestNewtonInversion:
    @pytest.mark.parametrize("name", sorted(_INVERSION_SPECS))
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_bisection_inside_bracket(self, name, frac):
        ch = _inversion_chart(name)
        target = ch.phase_lo + frac * (ch.phase_hi - ch.phase_lo)
        got = ch.invert_lift(target)
        want, (lo, hi) = _bisection_oracle(ch, target)
        assert lo <= got <= hi
        assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize("name", sorted(_INVERSION_SPECS))
    def test_batch_agrees_with_bisection(self, name):
        ch = _inversion_chart(name)
        targets = np.linspace(ch.phase_lo, ch.phase_hi, 41)
        many = ch.invert_lift_many(targets)
        want = np.array([_bisection_oracle(ch, t)[0] for t in targets])
        assert np.max(np.abs(many - want)) <= 1e-14

    def test_periodic_reduction_shifts_by_whole_turns(self):
        ch = _inversion_chart("periodic")
        target = ch.phase_lo + 0.3 * ch.winding
        base = ch.invert_lift(target)
        assert ch.invert_lift(target + 3.0 * ch.winding) == pytest.approx(
            base + 3.0 * TWO_PI, abs=1e-13
        )


class TestTailKernel:
    SPEC = InnerFunctionSpec(
        constant_arg=0.3,
        zero_order=1,
        zeros=(DiskZero(0.6, 1.0, 2),),
        tails=(StolzTail(0.5, c=0.5, q=0.9, t=0.3), TangentialTail(3.0, "upper", 4.0)),
        atoms=(Atom(5.0, 0.7), Atom(2.0, 1.3)),
    )

    def test_blocked_lift_is_bitwise_unblocked(self):
        policy = TruncationPolicy(tail_terms=1000)
        block = _BLOCK_ELEMENTS // policy.tail_terms
        rng = np.random.default_rng(3)
        for n in (1, block - 1, block, block + 1):
            th = rng.uniform(0.0, TWO_PI, n)
            assert np.array_equal(
                phase_lift(self.SPEC, th, policy), _unblocked_phase(self.SPEC, th, policy)
            ), n
        t = float(th[0])
        assert phase_lift(self.SPEC, t, policy) == _unblocked_phase(self.SPEC, t, policy)

    def test_threads_keep_their_own_work_arrays(self):
        policy = TruncationPolicy(tail_terms=1000)
        rng = np.random.default_rng(4)
        inputs = [rng.uniform(0.0, TWO_PI, 600) for _ in range(8)]
        want = [_unblocked_phase(self.SPEC, th, policy) for th in inputs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda th: phase_lift(self.SPEC, th, policy), inputs))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_atoms_add_in_atom_order(self):
        # 32 atoms: a pairwise sum over atoms would differ in the last bits
        rng = np.random.default_rng(5)
        spec = InnerFunctionSpec(
            zero_order=1,
            atoms=tuple(Atom(float(a), float(m)) for a, m in zip(
                np.sort(rng.uniform(0.0, TWO_PI, 32)), rng.uniform(0.1, 3.0, 32)
            )),
        )
        policy = TruncationPolicy()
        for n in (1, 7, 100):
            th = rng.uniform(0.0, TWO_PI, n)
            assert np.array_equal(phase_lift(spec, th, policy), _unblocked_phase(spec, th, policy))

    def test_slope_matches_derivative_and_differences(self):
        policy = TruncationPolicy()
        ts = np.array([0.3, 1.3, 2.6, 3.4, 4.6])
        phase, slope = phase_lift(self.SPEC, ts, policy, with_slope=True)
        assert np.array_equal(phase, phase_lift(self.SPEC, ts, policy))
        h = 1e-3
        for t, s in zip(ts, slope):
            assert phase_lift(self.SPEC, t, policy, with_slope=True)[1] == phase_derivative(
                self.SPEC, UnitPoint(t), policy
            )
            assert s == pytest.approx(phase_derivative(self.SPEC, UnitPoint(t), policy), rel=1e-13)
            fd = (
                phase_lift(self.SPEC, t - 2.0 * h, policy)
                - 8.0 * phase_lift(self.SPEC, t - h, policy)
                + 8.0 * phase_lift(self.SPEC, t + h, policy)
                - phase_lift(self.SPEC, t + 2.0 * h, policy)
            ) / (12.0 * h)
            assert s == pytest.approx(fd, rel=1e-7)


def _loop_bound(spec, arc, n_terms):
    """truncation_error_bound with its lookahead as a loop over the terms,
    one scalar chord distance and math.asin at a time."""
    from innerinv.inner_model import (
        _CERT_LOOKAHEAD,
        _stolz_remainder,
        _tangential_remainder,
    )

    lo, hi = float(arc[0]), float(arc[1])
    total = 0.0
    for tail in spec.tails:
        for n in range(n_terms + 1, n_terms + _CERT_LOOKAHEAD + 1):
            delta, phi = tail.term(n)
            gap = angular_gap(lo, hi, phi)
            if gap <= 0.0:
                return math.inf
            r = 1.0 - delta
            d = math.sqrt(delta * delta + 4.0 * r * math.sin(gap / 2.0) ** 2)
            x = delta / d
            if x >= 1.0:
                return math.inf
            total += 2.0 * math.asin(x)
        if isinstance(tail, StolzTail):
            rem = _stolz_remainder(tail, lo, hi, n_terms + _CERT_LOOKAHEAD + 1)
        else:
            rem = _tangential_remainder(tail, lo, hi, n_terms + _CERT_LOOKAHEAD + tail.first_u)
        if not math.isfinite(rem):
            return math.inf
        total += rem
    return total


class TestLookahead:
    def _random_tail(self, rng):
        anchor = float(rng.uniform(0.0, TWO_PI))
        if rng.random() < 0.5:
            return StolzTail(
                anchor,
                c=float(rng.uniform(0.05, 0.95)),
                q=float(rng.uniform(0.3, 0.99)),
                t=float(rng.uniform(-2.0, 2.0)),
            )
        side = "upper" if rng.random() < 0.5 else "lower"
        return TangentialTail(anchor, side, float(rng.uniform(4.0, 7.0)))

    def test_array_lookahead_is_bitwise_the_loop(self):
        rng = np.random.default_rng(11)
        finite = infinite = 0
        for _ in range(150):
            tails = tuple(self._random_tail(rng) for _ in range(int(rng.integers(1, 3))))
            try:
                spec = InnerFunctionSpec(tails=tails)
            except DuplicateSingularityError:
                continue
            lo = float(rng.uniform(0.0, TWO_PI))
            # arcs from a point to most of the circle; wide ones reach the zeros
            hi = lo + float(rng.choice([0.0, 1e-3, 0.1, 1.0, 3.0, 6.0]))
            n_terms = int(rng.choice([1, 5, 64, 700, 16384]))
            got = truncation_error_bound(spec, (lo, hi), n_terms)
            want = _loop_bound(spec, (lo, hi), n_terms)
            assert got == want, (tails, lo, hi, n_terms)
            finite += math.isfinite(want)
            infinite += not math.isfinite(want)
        assert finite > 20 and infinite > 20

    def test_square_rounds_as_pow(self):
        # here pow(s, 2) and s * s differ in the last bit of the bound
        spec = InnerFunctionSpec(
            tails=(TangentialTail(0.8048979551608688, "upper", 6.284389295991835),)
        )
        arc = (4.597960811312944, 4.598960811312945)
        assert truncation_error_bound(spec, arc, 1) == _loop_bound(spec, arc, 1)

    def test_later_zero_on_arc_returns_inf(self):
        # zeros at angles 1/3, 1/4, ...: the first omitted one is off the
        # arc, the second is on it
        spec = InnerFunctionSpec(tails=(TangentialTail(0.0, "upper", 4.0),))
        assert truncation_error_bound(spec, (0.2, 0.3), 1) == math.inf
        assert _loop_bound(spec, (0.2, 0.3), 1) == math.inf
        assert math.isfinite(truncation_error_bound(spec, (0.35, 3.0), 1))

    def test_ratio_at_one_returns_inf(self):
        # the first omitted zero sits so close to the arc that the chord
        # rounds to its radial gap: delta/d == 1
        tail = TangentialTail(0.0, "upper", 4.0)
        spec = InnerFunctionSpec(tails=(tail,))
        _, phi = tail.term(2)
        arc = (phi + 1e-12, phi + 0.5)
        assert truncation_error_bound(spec, arc, 1) == math.inf == _loop_bound(spec, arc, 1)

    def test_libm_asin_bitwise(self):
        from innerinv.inner_model import _libm_asin

        x = 10.0 ** np.random.default_rng(12).uniform(-30.0, -0.1, 20000)
        assert np.array_equal(_libm_asin(x), [math.asin(v) for v in x])


class TestEmitDerivative:
    def test_column_is_per_row_phase_derivative(self, spec_dir, tmp_path):
        from innerinv import MapWorkspace, classify_intervals, parse_document
        from innerinv.cli import run

        path = spec_dir / "mixed_tangential.json"
        assert run(["emit", str(path), "--out", str(tmp_path), "--samples", "64"]) == 0
        doc = parse_document(path.read_text())
        ws = MapWorkspace(classify_intervals(doc.spec, doc.policy))
        for j in range(max(ws.n, 1)):
            policy = ws.chart(j).policy
            rows = (tmp_path / f"emit_arc{j}.csv").read_text().splitlines()[1:]
            assert rows
            for row in rows:
                theta, _, derivative = row.split(",")
                want = phase_derivative(doc.spec, UnitPoint(float(theta)), policy)
                assert derivative == f"{want:.17g}"
