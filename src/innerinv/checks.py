"""Executable property checks with numeric reports.

Every check returns a CheckReport whose `passed` flag is exactly
`max_error < tol`.  Checks are deterministic given their seed, and the
negative controls (a perturbed map, a folded map, a mutated label sequence)
are built here so both pytest and the command line can exercise them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, RotationUnavailableError
from .inner_model import (
    TWO_PI,
    DiskZero,
    InnerFunctionSpec,
    TruncationPolicy,
    UnitPoint,
    canon_angles,
    frostman_phase,
    phase_derivative,
    phase_lift,
    poisson_arc_mass,
)
from .classify import TYPE_0, TYPE_1A, TYPE_1B, TYPE_2, SpectrumReport
from .group_algebra import IntervalLabel, IntervalLabelSequence, compose, rotation_part
from .circle_maps import MapWorkspace, compose_maps, invert_map

DEFAULT_GUARD = 1e-3


@dataclass(frozen=True)
class CheckReport:
    name: str
    max_error: float
    samples: int
    tol: float
    passed: bool
    details: str = ""
    seed: int | None = None


def _report(name, max_error, samples, tol, details="", seed=None) -> CheckReport:
    max_error = float(max_error)
    return CheckReport(name, max_error, samples, tol, max_error < tol, details, seed)


# ---------------------------------------------------------------------------
# negative-control map wrappers (duck-typed against CircleMap)


class OffsetControlMap:
    """A correct map nudged by a constant angle: breaks invariance."""

    def __init__(self, base, delta: float):
        self.base = base
        self.delta = delta
        self.workspace = base.workspace

    def apply_many(self, thetas):
        return np.mod(self.base.apply_many(thetas) + self.delta, TWO_PI)

    def transfer_policies(self, j):
        return self.base.transfer_policies(j)

    def lift_many(self, thetas):
        return self.base.lift_many(thetas) + self.delta

    def sample_points(self, per_arc, guard=DEFAULT_GUARD):
        return self.base.sample_points(per_arc, guard)


class FoldedControlMap:
    """Lift theta + p(theta) with p = -eps*t*sin(t): continuous, periodic,
    and non-monotone for eps large enough; breaks bijectivity."""

    def __init__(self, workspace, eps: float = 0.2):
        self.workspace = workspace
        self.eps = eps

    def _bump(self, t):
        return -self.eps * t * np.sin(t)

    def apply_many(self, thetas):
        th = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
        return np.mod(th + self._bump(th), TWO_PI)

    def lift(self, theta):
        return float(self.lift_many(np.asarray([theta], dtype=float))[0])

    def lift_many(self, thetas):
        th = np.asarray(thetas, dtype=float)
        return th + self._bump(canon_angles(th))

    def sample_points(self, per_arc, guard=DEFAULT_GUARD):
        return np.linspace(guard, TWO_PI - guard, 4 * per_arc)


# ---------------------------------------------------------------------------
# individual checks


def check_invariance(
    spec: InnerFunctionSpec,
    mp,
    n_samples: int = 256,
    tol: float = 1e-8,
    policy: TruncationPolicy | None = None,
    name: str = "invariance",
) -> CheckReport:
    """sup |Theta(x(theta)) - Theta(theta)| over the validity domain.

    Theta(theta) is evaluated at the policy of the chart of theta's arc and
    Theta(x(theta)) at the policy of the chart that arc is carried to, so
    the result does not depend on which charts were built before.  An
    explicit policy is used on both sides instead.
    """
    ws = getattr(mp, "workspace", None)
    per_arc = max(8, n_samples // max(1, getattr(ws, "n", 1) or 1))
    pts = mp.sample_points(per_arc, DEFAULT_GUARD)
    if pts.size == 0:
        return _report(name, math.inf, 0, tol, "empty validity domain")
    images = mp.apply_many(pts)
    if policy is not None:
        before, after = phase_lift(spec, pts, policy), phase_lift(spec, images, policy)
    else:
        before, after = np.empty_like(pts), np.empty_like(pts)
        arcs = ws.arc_index(pts)
        for j in np.unique(arcs):
            sel = arcs == j
            src_policy, tgt_policy = mp.transfer_policies(int(j))
            before[sel] = phase_lift(spec, pts[sel], src_policy)
            after[sel] = phase_lift(spec, images[sel], tgt_policy)
    diff = np.exp(1j * after) - np.exp(1j * before)
    err = float(np.max(np.abs(diff)))
    worst = int(np.argmax(np.abs(diff)))
    return _report(
        name, err, pts.size, tol, f"worst at theta={pts[worst]:.6f}"
    )


def check_bijection(mp, n_samples: int = 512, tol: float = 1e-9, name: str = "bijection") -> CheckReport:
    """Strict lift monotonicity, 2*pi wrap, and endpoint mapping.

    One lift_many over the sampled grid, the spectrum points and the wrap
    point grid[0] + 2*pi, and one apply_many over the spectrum points.
    """
    ws = mp.workspace
    per_arc = max(8, n_samples // max(1, ws.n or 1))
    pts = np.sort(mp.sample_points(per_arc, DEFAULT_GUARD))
    if pts.size < 2:
        return _report(name, math.inf, int(pts.size), tol, "too few sample points")
    grid = np.sort(np.concatenate([pts, ws.angles_arr])) if ws.n else pts
    lifts = mp.lift_many(np.append(grid, grid[0] + TWO_PI))
    wrap_err = abs(lifts[-1] - lifts[0] - TWO_PI)
    diffs = np.diff(lifts[:-1])
    mono_err = max(0.0, float(-np.min(diffs))) if len(diffs) else 0.0
    strict = float(np.min(diffs)) > 0.0
    sing_err = 0.0
    if ws.n:
        images = canon_angles(mp.apply_many(ws.angles_arr))
        shift = getattr(mp, "interval_shift", 0)
        targets = ws.angles_arr[(np.arange(ws.n) + shift) % ws.n]
        sing_err = float(np.max(np.abs(images - targets)))
    err = max(mono_err if not strict else 0.0, wrap_err, sing_err)
    if not strict:
        err = max(err, 1.0)
    return _report(name, err, int(grid.size), tol, f"min lift increment {np.min(diffs):.3e}")


def check_relations(
    ws: MapWorkspace, tol: float = 1e-7, n_samples: int = 64, seed: int = 0
) -> CheckReport:
    """Map-level verification of the presentation relations and of the
    additivity of the rotation residue."""
    desc = ws.descriptor
    rng = np.random.default_rng(seed)
    worst = 0.0
    details = []
    checked = 0

    def map_gap(ma, mb) -> float:
        pts = ma.sample_points(n_samples, DEFAULT_GUARD)
        if pts.size == 0:
            return math.inf
        va = np.exp(1j * ma.apply_many(pts))
        vb = np.exp(1j * mb.apply_many(pts))
        return float(np.max(np.abs(va - vb)))

    gens = [ws.build_shift_map(a) for a in desc.type2_indices]
    if desc.d > 1 and ws.n > 0:
        y = ws.build_rotation_map(desc.g)
        p = ws.identity_map()
        for _ in range(desc.d):
            p = compose_maps(y, p)
        g_err = map_gap(p, ws.identity_map())
        worst = max(worst, g_err)
        details.append(f"y^{desc.d}=e err {g_err:.2e}")
        checked += 1
        y_inv = invert_map(y)
        for slot, xj in enumerate(gens):
            conj = compose_maps(y, compose_maps(xj, y_inv))
            target = gens[desc.rho[slot]]
            c_err = map_gap(conj, target)
            worst = max(worst, c_err)
            checked += 1
        details.append(f"{len(gens)} conjugation relations")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            ab = compose_maps(gens[i], gens[j])
            ba = compose_maps(gens[j], gens[i])
            worst = max(worst, map_gap(ab, ba))
            checked += 1
    # rotation residue additivity is exact integer arithmetic
    for _ in range(50):
        a = desc.element(rng.integers(-3, 4, size=desc.k), int(rng.integers(0, desc.d)))
        b = desc.element(rng.integers(-3, 4, size=desc.k), int(rng.integers(0, desc.d)))
        lhs = rotation_part(compose(desc, a, b))
        rhs = (rotation_part(a) + rotation_part(b)) % desc.d
        if lhs != rhs:
            worst = max(worst, 1.0)
            details.append("rotation residue not additive")
        checked += 1
    if checked == 0:
        return _report("relations", 0.0, 0, tol, "no relations to check", seed)
    return _report("relations", worst, checked, tol, "; ".join(details), seed)


def _inside_tangential_zone(spec: InnerFunctionSpec, t: float, margin: float) -> bool:
    """Whether t sits in a one-sided zero zone (anchor to anchor +- 1/2).

    Inside such a zone the kernel of the nearest zero varies on the scale
    of its radial gap, which shrinks polynomially faster than the angular
    distance to the anchor; no floating-point difference step can resolve
    it, so derivative spot checks sample outside.
    """
    from .inner_model import TangentialTail

    for tail in spec.tails:
        if not isinstance(tail, TangentialTail):
            continue
        width = 1.0 / tail.first_u + margin
        if tail.side == "upper":
            off = (t - tail.anchor_theta) % TWO_PI
        else:
            off = (tail.anchor_theta - t) % TWO_PI
        if off <= width:
            return True
    return False


def check_phase_derivative(
    spec: InnerFunctionSpec,
    n_points: int = 100,
    tol: float = 1e-6,
    policy: TruncationPolicy | None = None,
    seed: int = 0,
) -> CheckReport:
    """Analytic boundary derivative against fourth-order central differences
    at regular points, sampled outside the one-sided zero zones."""
    policy = policy or TruncationPolicy()
    rng = np.random.default_rng(seed)
    sing = np.asarray(spec.singular_angles)
    pts = []
    attempts = 0
    while len(pts) < n_points and attempts < 200 * n_points:
        attempts += 1
        t = float(rng.uniform(0.0, TWO_PI))
        if sing.size:
            gap = np.min(np.abs(((t - sing + math.pi) % TWO_PI) - math.pi))
            if gap < DEFAULT_GUARD:
                continue
        if _inside_tangential_zone(spec, t, 2.0 * DEFAULT_GUARD):
            continue
        pts.append(t)
    if not pts:
        return _report("phase_derivative", math.inf, 0, tol, "no regular points", seed)
    worst = 0.0
    worst_at = 0.0
    for t in pts:
        if sing.size:
            dist = float(np.min(np.abs(((t - sing + math.pi) % TWO_PI) - math.pi)))
        else:
            dist = 1.0
        h = min(dist, 1.0) * 1e-3
        num = (
            phase_lift(spec, t - 2.0 * h, policy)
            - 8.0 * phase_lift(spec, t - h, policy)
            + 8.0 * phase_lift(spec, t + h, policy)
            - phase_lift(spec, t + 2.0 * h, policy)
        ) / (12.0 * h)
        ana = phase_derivative(spec, UnitPoint(t), policy)
        rel = abs(num - ana) / abs(ana)
        if rel > worst:
            worst, worst_at = rel, t
    return _report(
        "phase_derivative",
        worst,
        len(pts),
        tol,
        f"worst at theta={worst_at:.6f}",
        seed,
    )


def _poisson_quadrature(zero: DiskZero, epsilon: float) -> float:
    a = zero.point
    r2 = abs(a) ** 2

    def kernel(t):
        return (1.0 - r2) / abs(np.exp(1j * t) - a) ** 2

    val, _ = quad(kernel, 0.0, epsilon, limit=200, epsabs=1e-12, epsrel=1e-12)
    return val / TWO_PI


def check_garnett_identity(n_cases: int = 50, tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Closed-form harmonic measure of an arc against quadrature."""
    rng = np.random.default_rng(seed)
    cases = [(0.0, 0.0, math.pi / 2), (0.5, 0.0, math.pi / 2)]
    while len(cases) < n_cases:
        cases.append(
            (
                float(rng.uniform(0.0, 0.95)),
                float(rng.uniform(0.0, TWO_PI)),
                float(rng.uniform(0.05, TWO_PI - 0.05)),
            )
        )
    worst = 0.0
    for modulus, argument, eps in cases:
        zero = DiskZero(modulus, argument)
        closed = poisson_arc_mass(zero, eps)
        numeric = _poisson_quadrature(zero, eps)
        worst = max(worst, abs(closed - numeric))
    return _report("garnett_identity", worst, len(cases), tol, "", seed)


def check_frostman_types(
    report: SpectrumReport, n_transforms: int = 2, seed: int = 0
) -> CheckReport:
    """Arc types re-derived from solution-count growth of the transformed
    function; the derived sequence must match the classified one."""
    spec = report.spec
    rng = np.random.default_rng(seed)
    if report.n == 0:
        return _report("frostman_types", 0.0, 0, 0.5, "no singularities", seed)
    mismatches = 0
    ns = (8, 64, 512)
    for _ in range(n_transforms):
        rho = float(rng.uniform(0.1, 0.9))
        beta = float(rng.uniform(0.0, TWO_PI))
        a = rho * np.exp(1j * beta)
        for rec in report.intervals:
            span = rec.hi - rec.lo
            w = min(0.45 * span, 1.0)
            lo_growth = []
            hi_growth = []
            for n in ns:
                probe = min(0.5 * w, 1.0 / n)
                pol = TruncationPolicy(tail_terms=n, phase_tol=1.0)
                p_in = frostman_phase(phase_lift(spec, rec.lo + probe, pol), a)
                p_out = frostman_phase(phase_lift(spec, rec.lo + w, pol), a)
                lo_growth.append(math.floor((p_out - p_in) / TWO_PI))
                q_in = frostman_phase(phase_lift(spec, rec.hi - probe, pol), a)
                q_out = frostman_phase(phase_lift(spec, rec.hi - w, pol), a)
                hi_growth.append(math.floor((q_in - q_out) / TWO_PI))
            lo_acc = lo_growth[-1] - lo_growth[0] >= 2
            hi_acc = hi_growth[-1] - hi_growth[0] >= 2
            derived = {
                (True, True): TYPE_2,
                (True, False): TYPE_1A,
                (False, True): TYPE_1B,
                (False, False): TYPE_0,
            }[(lo_acc, hi_acc)]
            if derived != rec.itype:
                mismatches += 1
    return _report(
        "frostman_types",
        float(mismatches),
        n_transforms * report.n,
        0.5,
        f"transform count {n_transforms}",
        seed,
    )


# ---------------------------------------------------------------------------
# the full suite


def _mutated_labels(ws: MapWorkspace) -> IntervalLabelSequence:
    """Force a label sequence with no nonzero valid rotation: the first
    label becomes 1a and the second 1b with a different limit."""
    labels = list(ws.labels.labels)
    if not labels:
        return ws.labels
    l_val = complex(np.exp(0.3j))
    m_val = complex(np.exp(1.7j))
    labels[0] = IntervalLabel(TYPE_1A, limit=l_val)
    if len(labels) > 1:
        labels[1] = IntervalLabel(TYPE_1B, limit=m_val)
    return IntervalLabelSequence(ws.n, tuple(labels))


def run_all_checks(
    report: SpectrumReport,
    phase_window: float | None = None,
    seed: int = 0,
    control: str | None = None,
    n_samples: int = 256,
    map_tol: float = 1e-8,
    relation_tol: float = 1e-7,
) -> list[CheckReport]:
    spec = report.spec
    ws = MapWorkspace(report, phase_window=phase_window)
    out = [
        check_phase_derivative(spec, policy=report.policy, seed=seed),
        check_garnett_identity(seed=seed),
        check_frostman_types(report, seed=seed),
    ]

    gens = ws.generators()
    for gname, mp in gens:
        out.append(
            check_invariance(
                spec, mp, n_samples, map_tol, name=f"invariance_{gname}"
            )
        )
        out.append(check_bijection(mp, name=f"bijection_{gname}"))
    if gens:
        out.append(check_relations(ws, relation_tol, seed=seed))

    if control == "perturbed":
        base = gens[0][1] if gens else ws.identity_map()
        bad = OffsetControlMap(base, 0.01)
        out.append(
            check_invariance(
                spec, bad, n_samples, map_tol, name="control_perturbed"
            )
        )
    elif control == "folded":
        bad = FoldedControlMap(ws, 0.2)
        out.append(check_bijection(bad, name="control_folded"))
    elif control == "wrong-rotation":
        try:
            ws_bad = MapWorkspace(
                report, phase_window=phase_window, labels=_mutated_labels(ws)
            )
            ws_bad.build_rotation_map(1 if ws.n > 1 else 0)
            out.append(
                _report(
                    "control_wrong_rotation",
                    0.0,
                    1,
                    0.5,
                    "rotation unexpectedly accepted",
                )
            )
        except (RotationUnavailableError, DomainError) as exc:
            out.append(
                _report(
                    "control_wrong_rotation",
                    math.inf,
                    1,
                    0.5,
                    f"refused: {type(exc).__name__}: {exc}",
                )
            )
    elif control is not None:
        raise DomainError(f"unknown control {control!r}")
    return out
