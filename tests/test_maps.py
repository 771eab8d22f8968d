"""Invariant circle maps: construction, evaluation, and composition."""

import math

import numpy as np
import pytest

from innerinv import (
    Atom,
    DomainError,
    InnerFunctionSpec,
    MapWorkspace,
    NotShiftableError,
    RotationUnavailableError,
    canon_angle,
    classify_intervals,
    compose_maps,
    enumerate_solutions,
    invert_map,
    parse_document,
    phase_derivative,
)
from innerinv.group_algebra import IntervalLabel, IntervalLabelSequence
from innerinv.classify import TYPE_1A, TYPE_1B

TWO_PI = 2.0 * math.pi

# closed form for the single unit atom at angle 0: the phase is -cot(t/2),
# so advancing the phase by 2*pi*k solves cot(x/2) = cot(t/2) - 2*pi*k
X_AT_PI = 5.96752292660327
X_FROM_INDEX_MINUS_ONE = 0.315662380576318


def one_atom_shift(theta: float, k: int = 1) -> float:
    c = 1.0 / math.tan(theta / 2.0) - TWO_PI * k
    x = 2.0 * math.atan2(1.0, c)
    return x % TWO_PI


@pytest.fixture(scope="module")
def one_atom_ws():
    spec = InnerFunctionSpec(atoms=(Atom(0.0, 1.0),))
    rep = classify_intervals(spec, phase_window=12.0 * math.pi)
    return MapWorkspace(rep, phase_window=12.0 * math.pi)


@pytest.fixture(scope="module")
def two_atom_ws(two_atom_report):
    return MapWorkspace(two_atom_report)


class TestOneAtomShift:
    def test_matches_closed_form(self, one_atom_ws):
        m = one_atom_ws.build_shift_map(0)
        ts = np.linspace(0.15, TWO_PI - 0.15, 64)
        got = m.apply_many(ts)
        want = np.array([one_atom_shift(t) for t in ts])
        assert float(np.max(np.abs(got - want))) < 1e-9

    def test_value_at_pi(self, one_atom_ws):
        m = one_atom_ws.build_shift_map(0)
        assert m.apply(math.pi).theta == pytest.approx(X_AT_PI, abs=1e-9)

    def test_advances_solution_index(self, one_atom_ws):
        # the solution grid of Theta = 1 steps ... -> -1 -> 0 -> 1 -> ...
        m = one_atom_ws.build_shift_map(0)
        assert m.apply(X_FROM_INDEX_MINUS_ONE).theta == pytest.approx(
            math.pi, abs=1e-9
        )

    def test_inverse_returns(self, one_atom_ws):
        m = one_atom_ws.build_shift_map(0)
        back = invert_map(m)
        assert back.apply(X_AT_PI).theta == pytest.approx(math.pi, abs=1e-9)

    def test_power_two_composition(self, one_atom_ws):
        m = one_atom_ws.build_shift_map(0)
        mm = compose_maps(m, m)
        t = math.pi
        assert mm.apply(t).theta == pytest.approx(one_atom_shift(t, 2), abs=1e-9)

    def test_cert_radius_tight(self, one_atom_ws):
        m = one_atom_ws.build_shift_map(0)
        assert m.cert_radius(math.pi) < 1e-9

    def test_no_rotation_available(self, one_atom_ws):
        with pytest.raises(DomainError):
            one_atom_ws.build_rotation_map(1)


class TestTwoAtomRotation:
    def test_rotation_is_half_turn(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        pts = y.sample_points(100)
        got = y.apply_many(pts)
        want = np.mod(pts + math.pi, TWO_PI)
        assert float(np.max(np.abs(got - want))) < 1e-9

    def test_offsets_and_anchors(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        assert y.interval_shift == 1
        assert y.offsets == (0.0, 0.0)
        assert two_atom_ws.base_phase(0) == 0.0
        assert two_atom_ws.base_phase(1) == 0.0

    def test_singular_angles_map_exactly(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        assert y.apply(0.0).theta == math.pi
        assert y.apply(math.pi).theta == pytest.approx(0.0, abs=0.0)

    def test_square_is_identity_exactly(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        yy = compose_maps(y, y)
        assert yy.interval_shift == 0
        assert yy.offsets == (0.0, 0.0)

    def test_conjugation_swaps_shift_arcs(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        x1 = two_atom_ws.build_shift_map(0)
        conj = compose_maps(compose_maps(y, x1), invert_map(y))
        x2 = two_atom_ws.build_shift_map(1)
        assert conj.interval_shift == x2.interval_shift
        assert conj.offsets == x2.offsets

    def test_shift_only_touches_its_arc(self, two_atom_ws):
        x1 = two_atom_ws.build_shift_map(0)
        t = 4.0  # inside arc 1
        assert x1.apply(t).theta == t
        s = 1.0  # inside arc 0
        assert x1.apply(s).theta != s


class TestMapEvaluation:
    def test_lift_equivariance(self, two_atom_ws):
        y = two_atom_ws.build_rotation_map(1)
        for t in (0.3, 2.0, 4.5):
            assert y.lift(t + TWO_PI) == pytest.approx(y.lift(t) + TWO_PI, abs=1e-12)

    def test_lift_monotone_across_singularities(self, two_atom_ws):
        x1 = two_atom_ws.build_shift_map(0)
        dom0 = x1.domain(0)
        grid = np.concatenate(
            [
                np.linspace(dom0[0] + 1e-3, dom0[1] - 1e-3, 40),
                [math.pi],
                np.linspace(math.pi + 1e-3, TWO_PI - 1e-3, 40),
            ]
        )
        vals = [x1.lift(float(t)) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_error_outside_window(self, two_atom_ws):
        x1 = two_atom_ws.build_shift_map(0)
        with pytest.raises(DomainError):
            x1.apply(1e-6)

    def test_identity_fast_path(self, two_atom_ws):
        ident = two_atom_ws.identity_map()
        ts = np.array([1e-9, 1.0, math.pi, 6.28])
        assert np.array_equal(ident.apply_many(ts), ts)

    def test_sample_points_inside_domain(self, two_atom_ws):
        x1 = two_atom_ws.build_shift_map(0, power=3)
        pts = x1.sample_points(50)
        assert len(pts) > 0
        # no DomainError across the whole sample
        x1.apply_many(pts)


class TestSolutionGrids:
    def test_periodic_grid_covers_period(self):
        spec = InnerFunctionSpec(zero_order=5)
        rep = classify_intervals(spec)
        ws = MapWorkspace(rep)
        grid = enumerate_solutions(ws.chart(0), 0.0)
        assert len(grid.angles) == 5
        diffs = np.diff(grid.angles)
        assert np.allclose(diffs, TWO_PI / 5.0, atol=1e-9)

    def test_arc_grid_indices_step_phase(self, two_atom_ws):
        grid = enumerate_solutions(two_atom_ws.chart(0), 0.0, window=3)
        assert grid.indices == tuple(range(-3, 4))
        assert 0 in grid.indices
        ch = two_atom_ws.chart(0)
        for m, t in zip(grid.indices, grid.angles):
            assert ch.phase_of(t) == pytest.approx(
                grid.base_phase + TWO_PI * m, abs=1e-9
            )

    def test_lambda_argument_offsets_grid(self, two_atom_ws):
        lam = 0.7
        grid = enumerate_solutions(two_atom_ws.chart(0), lam, window=2)
        ch = two_atom_ws.chart(0)
        for m, t in zip(grid.indices, grid.angles):
            assert (ch.phase_of(t) - lam) % TWO_PI == pytest.approx(
                0.0, abs=1e-9
            ) or (ch.phase_of(t) - lam) % TWO_PI == pytest.approx(
                TWO_PI, abs=1e-9
            )


class TestSpectrumFreeMaps:
    def test_rotation_realizes_cyclic_generator(self):
        spec = InnerFunctionSpec(zero_order=5)
        ws = MapWorkspace(classify_intervals(spec))
        desc = ws.descriptor
        assert desc.iso_label == "Z_5"
        x = ws.realize(desc.rotation_generator())
        ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        got = x.apply_many(ts)
        want = np.mod(ts + TWO_PI / 5.0, TWO_PI)
        assert float(np.max(np.abs(got - want))) < 1e-12

    def test_fifth_power_is_identity(self):
        spec = InnerFunctionSpec(zero_order=5)
        ws = MapWorkspace(classify_intervals(spec))
        x = ws.realize(ws.descriptor.rotation_generator())
        p = ws.identity_map()
        for _ in range(5):
            p = compose_maps(x, p)
        ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        assert float(np.max(np.abs(p.apply_many(ts) - ts))) < 1e-12

    def test_shift_map_equals_rotation_for_finite_product(self):
        spec = InnerFunctionSpec(zero_order=3)
        ws = MapWorkspace(classify_intervals(spec))
        m = ws.build_shift_map(0, power=2)
        assert m.offsets == (2.0 * TWO_PI,)

    def test_rotation_map_refused(self):
        spec = InnerFunctionSpec(zero_order=3)
        ws = MapWorkspace(classify_intervals(spec))
        with pytest.raises(RotationUnavailableError):
            ws.build_rotation_map(1)


class TestLabelGates:
    def test_shift_refused_on_one_sided_arc(self, tangential_pair_report):
        ws = MapWorkspace(tangential_pair_report)
        with pytest.raises(NotShiftableError):
            ws.build_shift_map(0)

    def test_rotation_offsets_snap_to_exact_multiples(self, tangential_pair_report):
        ws = MapWorkspace(tangential_pair_report)
        y = ws.build_rotation_map(1)
        for c in y.offsets:
            assert c % TWO_PI == 0.0

    def test_tangential_rotation_is_involution(self, tangential_pair_report):
        ws = MapWorkspace(tangential_pair_report)
        y = ws.build_rotation_map(1)
        yy = compose_maps(y, y)
        ident = ws.identity_map()
        assert yy.interval_shift == 0
        assert yy.offsets == ident.offsets

    def test_mismatched_labels_refuse_rotation(self, tangential_pair_report):
        labs = IntervalLabelSequence(
            2,
            (
                IntervalLabel(TYPE_1A, limit=complex(math.cos(0.3), math.sin(0.3))),
                IntervalLabel(TYPE_1B, limit=complex(math.cos(1.7), math.sin(1.7))),
            ),
        )
        ws = MapWorkspace(tangential_pair_report, labels=labs)
        with pytest.raises(RotationUnavailableError):
            ws.build_rotation_map(1)

    def test_workspace_mismatch_rejected(self, two_atom_report):
        ws1 = MapWorkspace(two_atom_report)
        ws2 = MapWorkspace(two_atom_report)
        with pytest.raises(DomainError):
            compose_maps(ws1.identity_map(), ws2.identity_map())


class TestRealize:
    def test_identity_element(self, two_atom_ws):
        m = two_atom_ws.realize(two_atom_ws.descriptor.identity())
        assert m.interval_shift == 0
        assert m.offsets == (0.0, 0.0)

    def test_word_order_rotation_first(self, two_atom_ws):
        desc = two_atom_ws.descriptor
        g = desc.element((1, 0), 1)
        m = two_atom_ws.realize(g)
        y = two_atom_ws.build_rotation_map(1)
        x1 = two_atom_ws.build_shift_map(0)
        byhand = compose_maps(x1, y)
        assert m.interval_shift == byhand.interval_shift
        assert m.offsets == byhand.offsets

    def test_invert_composes_to_identity(self, two_atom_ws):
        g = two_atom_ws.descriptor.element((2, -1), 1)
        m = two_atom_ws.realize(g)
        mm = compose_maps(invert_map(m), m)
        assert mm.interval_shift == 0
        assert mm.offsets == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the array core against the scalar code it replaced


def reference_lift(mp, theta: float) -> float:
    """CircleMap.lift as it was before lift_many: one point, one dispatch."""
    ws = mp.workspace
    t = canon_angle(theta)
    base = theta - t
    if ws.n == 0:
        if mp.offsets[0] == 0.0:
            return theta
        chart = ws.chart(0)
        return float(chart.invert_lift(chart.phase_of(t) + mp.offsets[0])) + base
    r = mp.interval_shift
    if t < ws.angles[0]:
        t += TWO_PI
        base -= TWO_PI
    for i, a in enumerate(ws.angles):
        if t == a:
            k, extra = divmod(i + r, ws.n)
            return ws.angles[extra] + TWO_PI * k + base
    j = int(np.searchsorted(ws.angles_arr, canon_angle(t), side="right") - 1) % ws.n
    tidx = j + r
    c = mp.offsets[j]
    if r == 0 and c == 0.0:
        val = t
    else:
        src = ws.chart(j)
        tgt = ws.chart(tidx % ws.n)
        val = float(tgt.invert_lift(src.phase_of(t) + c)) + TWO_PI * (tidx // ws.n)
    return val + base


def reference_apply(mp, theta: float) -> float:
    """One point through the per-arc dispatch apply_many had before."""
    ws = mp.workspace
    th = canon_angle(theta)
    if ws.n == 0:
        c = mp.offsets[0]
        if c == 0.0:
            return th
        chart = ws.chart(0)
        return float(np.mod(chart.invert_lift(chart.phase_of(th) + c), TWO_PI))
    r = mp.interval_shift
    for i, a in enumerate(ws.angles):
        if th == a:
            return ws.angles[(i + r) % ws.n]
    j = int(np.searchsorted(ws.angles_arr, th, side="right") - 1)
    coord = th
    if j < 0:
        coord += TWO_PI
        j = ws.n - 1
    c = mp.offsets[j]
    if r == 0 and c == 0.0:
        return th
    src = ws.chart(j)
    tgt = ws.chart((j + r) % ws.n)
    return float(np.mod(tgt.invert_lift(src.phase_of(coord) + c), TWO_PI))


def reference_domain(mp, j):
    """CircleMap.domain as it was: two scalar inversions, nothing cached."""
    ws = mp.workspace
    lo, hi = ws.arc_bounds(j)
    c, r = mp.offsets[j], mp.interval_shift
    if r == 0 and c == 0.0:
        return (lo, hi)
    src, tgt = ws.chart(j), ws.chart((j + r) % ws.n)
    p_lo = max(src.phase_lo, tgt.phase_lo - c)
    p_hi = min(src.phase_hi, tgt.phase_hi - c)
    if p_lo >= p_hi:
        return None
    return (float(src.invert_lift(p_lo)), float(src.invert_lift(p_hi)))


@pytest.fixture(scope="module")
def offset_atoms_ws():
    # angles[0] > 0, so [0, angles[0]) belongs to the last arc, one turn up
    spec = InnerFunctionSpec(atoms=(Atom(0.5, 1.0), Atom(0.5 + math.pi, 1.0)))
    return MapWorkspace(classify_intervals(spec))


def _maps_of(ws):
    y = ws.build_rotation_map(1)
    x1, x2 = ws.build_shift_map(0), ws.build_shift_map(1, power=-2)
    return [x1, x2, y, compose_maps(x1, y), compose_maps(y, x2), ws.identity_map()]


def _probe_points(mp):
    ws = mp.workspace
    pts = mp.sample_points(24)
    below = pts[pts < ws.angles[0]]
    assert below.size  # the wrapped part of the last arc is covered
    return np.concatenate([pts, pts + TWO_PI, below - 3.0 * TWO_PI, ws.angles_arr])


class TestArrayCore:
    def test_lift_many_is_bitwise_scalar_lift(self, offset_atoms_ws):
        for mp in _maps_of(offset_atoms_ws):
            ts = _probe_points(mp)
            want = np.array([reference_lift(mp, float(t)) for t in ts])
            assert np.array_equal(mp.lift_many(ts), want)
            assert all(mp.lift(float(t)) == w for t, w in zip(ts[::7], want[::7]))

    def test_apply_many_is_bitwise_scalar_apply(self, offset_atoms_ws):
        for mp in _maps_of(offset_atoms_ws):
            ts = _probe_points(mp)
            want = np.array([reference_apply(mp, float(t)) for t in ts])
            assert np.array_equal(mp.apply_many(ts), want)
            assert all(mp.apply(float(t)).theta == w for t, w in zip(ts[::7], want[::7]))

    def test_fixed_arc_below_first_angle_keeps_the_point(self, offset_atoms_ws):
        # x1 fixes the last arc; its wrapped part must come back unrounded
        x1 = offset_atoms_ws.build_shift_map(0)
        ts = np.array([1e-17, 0.1, 0.3, 0.49])
        assert np.array_equal(x1.apply_many(ts), ts)
        assert np.array_equal(x1.lift_many(ts), [reference_lift(x1, t) for t in ts])

    def test_spectrum_free_maps(self):
        ws = MapWorkspace(classify_intervals(InnerFunctionSpec(zero_order=3)))
        # -1e-300 reduces to 2*pi, which canonicalizes to 0
        ts = np.append(np.linspace(-7.0, 13.0, 41), [-1e-300, -0.0, TWO_PI])
        for mp in (ws.identity_map(), ws.build_shift_map(0), ws.build_shift_map(0, -2)):
            assert np.array_equal(mp.lift_many(ts), [reference_lift(mp, float(t)) for t in ts])
            assert np.array_equal(mp.apply_many(ts), [reference_apply(mp, float(t)) for t in ts])

    def test_shapes_are_kept(self, offset_atoms_ws):
        y = offset_atoms_ws.build_rotation_map(1)
        ts = y.sample_points(6).reshape(2, -1)
        assert y.apply_many(ts).shape == ts.shape
        assert np.array_equal(y.lift_many(ts).ravel(), y.lift_many(ts.ravel()))

    def test_domain_error_names_the_arc(self, two_atom_ws):
        x1 = two_atom_ws.build_shift_map(0)
        with pytest.raises(DomainError, match="arc 0"):
            x1.lift_many(np.array([2.0, 1e-6]))


class TestCertRadius:
    @pytest.fixture(scope="class")
    def stolz_ws(self, spec_dir):
        doc = parse_document((spec_dir / "stolz.json").read_text())
        return MapWorkspace(classify_intervals(doc.spec, doc.policy))

    def test_array_is_bitwise_scalar(self, stolz_ws, offset_atoms_ws):
        for ws in (stolz_ws, offset_atoms_ws):
            for mp in ([ws.build_shift_map(0)] if ws.n == 1 else _maps_of(ws)):
                ts = np.concatenate([mp.sample_points(16), ws.angles_arr])
                radii = mp.cert_radius(ts)
                want = [mp.cert_radius(float(t)) for t in ts]
                assert all(type(w) is float for w in want)
                assert np.array_equal(radii, want)
                grid = ts[: ts.size // 2 * 2].reshape(2, -1)
                assert np.array_equal(mp.cert_radius(grid), radii[: grid.size].reshape(2, -1))

    def test_scalar_matches_the_certificate_formula(self, stolz_ws):
        mp = stolz_ws.build_shift_map(0)
        chart = stolz_ws.chart(0)
        assert chart.cert_bound > 0.0
        for t in mp.sample_points(5):
            image = mp.apply(float(t))
            slope = phase_derivative(stolz_ws.spec, image, chart.policy)
            assert mp.cert_radius(float(t)) == (2.0 * chart.cert_bound + 1e-14) / slope

    def test_zero_at_spectrum_points(self, spec_dir):
        doc = parse_document((spec_dir / "two_atoms.json").read_text())
        ws = MapWorkspace(classify_intervals(doc.spec, doc.policy))
        x1 = ws.build_shift_map(0)
        assert x1.apply(0.0).theta == 0.0
        assert x1.cert_radius(0.0) == 0.0
        assert x1.cert_radius(math.pi) == 0.0
        assert np.array_equal(x1.cert_radius(ws.angles_arr), [0.0, 0.0])


class TestDomains:
    def test_shared_transfer_form_shares_the_domain(self, four_atom_report):
        ws = MapWorkspace(four_atom_report)
        x1, x2 = ws.build_shift_map(0), ws.build_shift_map(1)
        both = compose_maps(x1, x2)
        assert both.offsets[0] == x1.offsets[0] and both is not x1
        first = x1.domain(0)
        assert both.domain(0) is first
        assert first == reference_domain(x1, 0)
        assert both.domain(1) == reference_domain(x2, 1)
        fresh = MapWorkspace(four_atom_report)
        assert fresh.build_shift_map(0).domain(0) == first

    def test_sample_points_are_bitwise_per_arc_linspace(self, offset_atoms_ws):
        for mp in _maps_of(offset_atoms_ws):
            chunks = []
            for j in range(offset_atoms_ws.n):
                dom = reference_domain(mp, j)
                if dom is not None and dom[1] - 1e-3 > dom[0] + 1e-3:
                    chunks.append(np.linspace(dom[0] + 1e-3, dom[1] - 1e-3, 33))
            want = np.mod(np.concatenate(chunks), TWO_PI)
            assert np.array_equal(mp.sample_points(33), want)


class TestGenerators:
    def test_names_and_maps(self, two_atom_ws):
        gens = two_atom_ws.generators()
        assert [name for name, _ in gens] == ["x1", "x2", "y"]
        assert gens[2][1].interval_shift == 1
        assert gens[0][1].offsets == two_atom_ws.build_shift_map(0).offsets

    def test_spectrum_free_has_one_shift(self):
        ws = MapWorkspace(classify_intervals(InnerFunctionSpec(zero_order=3)))
        ((name, mp),) = ws.generators()
        assert name == "x" and mp.offsets == (TWO_PI,)
