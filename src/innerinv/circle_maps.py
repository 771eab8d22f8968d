"""Construction of the invariant circle maps realizing group elements.

Every map here is stored in transfer form: an arc rotation r plus one phase
offset per arc.  Applying the map moves a point from arc j to arc j+r along
the phase charts: theta -> Phi_{j+r}^{-1}(Phi_j(theta) + c_j).  Offsets are
exact multiples of 2*pi (snapped), so relations such as y^d = e hold at the
offset level and numerical error enters only through chart inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    DomainError,
    NotShiftableError,
    PhaseRangeError,
    RotationUnavailableError,
)
from .inner_model import (
    DEFAULT_PHASE_WINDOW,
    TWO_PI,
    PhaseChart,
    TruncationPolicy,
    UnitPoint,
    build_chart_auto,
    canon_angle,
)
from .classify import TYPE_1A, TYPE_1B, TYPE_2, SpectrumReport
from .group_algebra import (
    DEFAULT_LABEL_TOL,
    GroupElement,
    IntervalLabelSequence,
    compute_group,
    labels_from_report,
    valid_rotations,
)

DEFAULT_MAP_TOL = 1e-8
_SNAP_GUARD = 1e-6


def _snap_2pi(x: float) -> float:
    return TWO_PI * round(x / TWO_PI)


@dataclass(frozen=True)
class SolutionGrid:
    """Ordered solutions of Theta = e^{i lambda_arg} on one charted arc.

    Integer indices step the chart phase by exactly 2*pi; index 0 is the
    solution nearest the arc's midpoint phase.
    """

    lambda_arg: float
    arc_index: int
    indices: tuple[int, ...]
    angles: tuple[float, ...]
    base_phase: float


def enumerate_solutions(
    chart: PhaseChart, lambda_arg: float, window: int = 8, arc_index: int = 0
) -> SolutionGrid:
    """All certified solutions with |index| <= window inside the chart."""
    if window < 1:
        raise DomainError("solution window must be at least 1")
    if chart.periodic:
        deg = int(round(chart.winding / TWO_PI))
        first = math.ceil((chart.phase_lo - lambda_arg) / TWO_PI - 1e-12)
        targets = lambda_arg + TWO_PI * (first + np.arange(deg))
        raw = chart.invert_lift_many(targets)
        worst = float(np.max(np.abs(chart.phase_of(raw) - targets)))
        if worst > 1e-6:
            raise CertificationError(f"solution re-evaluation off by {worst:.3e}")
        angles = np.mod(raw, TWO_PI)
        order = np.argsort(angles)
        return SolutionGrid(
            lambda_arg,
            arc_index,
            tuple(range(deg)),
            tuple(float(a) for a in angles[order]),
            float(targets[0]),
        )
    base = lambda_arg + TWO_PI * round((chart.midpoint_phase - lambda_arg) / TWO_PI)
    ms = [m for m in range(-window, window + 1) if chart.covers_phase(base + TWO_PI * m)]
    if not ms:
        return SolutionGrid(lambda_arg, arc_index, (), (), base)
    targets = base + TWO_PI * np.asarray(ms, dtype=float)
    angles = chart.invert_lift_many(targets)
    check = chart.phase_of(angles) - targets
    worst = float(np.max(np.abs(check))) if len(angles) else 0.0
    if worst > 1e-6:
        raise CertificationError(f"solution re-evaluation off by {worst:.3e}")
    return SolutionGrid(
        lambda_arg,
        arc_index,
        tuple(ms),
        tuple(float(a) for a in angles),
        base,
    )


@dataclass(frozen=True, eq=False)
class CircleMap:
    """Invariant circle map in transfer form over a shared workspace."""

    workspace: "MapWorkspace"
    interval_shift: int
    offsets: tuple[float, ...]

    # -- evaluation ------------------------------------------------------
    def apply(self, theta) -> UnitPoint:
        th = theta.theta if isinstance(theta, UnitPoint) else float(theta)
        return UnitPoint(float(self.apply_many(np.asarray([th]))[0]))

    def apply_many(self, thetas) -> np.ndarray:
        ws = self.workspace
        th = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
        th[th >= TWO_PI] = 0.0
        if ws.n == 0:
            c = self.offsets[0]
            if c == 0.0:
                return th.copy()
            chart = ws.chart(0)
            res = chart.invert_lift_many(chart.phase_of(th) + c)
            return np.mod(res, TWO_PI)
        out = np.full_like(th, np.nan)
        r = self.interval_shift
        done = np.zeros(th.shape, dtype=bool)
        for i, a in enumerate(ws.angles):
            hit = th == a
            if hit.any():
                out[hit] = ws.angles[(i + r) % ws.n]
                done[hit] = True
        coords = th.copy()
        j_idx = np.searchsorted(ws.angles_arr, th, side="right") - 1
        wrap = j_idx < 0
        coords[wrap] += TWO_PI
        j_idx[wrap] = ws.n - 1
        for j in np.unique(j_idx[~done]):
            sel = (j_idx == j) & ~done
            c = self.offsets[j]
            if r == 0 and c == 0.0:
                out[sel] = th[sel]
                continue
            src = ws.chart(j)
            x = coords[sel]
            if np.any(x < src.thetas[0] - 1e-12) or np.any(x > src.thetas[-1] + 1e-12):
                raise DomainError(
                    f"point outside the certified domain of arc {j}"
                )
            tgt = ws.chart((j + r) % ws.n)
            try:
                res = tgt.invert_lift_many(src.phase_of(x) + c)
            except PhaseRangeError as exc:
                raise DomainError(str(exc)) from None
            out[sel] = np.mod(res, TWO_PI)
        return out

    def lift(self, theta: float) -> float:
        """Continuous increasing lift; lift(t + 2pi) = lift(t) + 2pi."""
        ws = self.workspace
        t = canon_angle(theta)
        base = theta - t
        if ws.n == 0:
            if self.offsets[0] == 0.0:
                return theta
            chart = ws.chart(0)
            return float(chart.invert_lift(chart.phase_of(t) + self.offsets[0])) + base
        r = self.interval_shift
        if t < ws.angles[0]:
            t += TWO_PI
            base -= TWO_PI
        for i, a in enumerate(ws.angles):
            if t == a:
                k, extra = divmod(i + r, ws.n)
                return ws.angles[extra] + TWO_PI * k + base
        j = int(np.searchsorted(ws.angles_arr, canon_angle(t), side="right") - 1) % ws.n
        tidx = j + r
        c = self.offsets[j]
        if r == 0 and c == 0.0:
            val = t
        else:
            src = ws.chart(j)
            tgt = ws.chart(tidx % ws.n)
            try:
                val = float(tgt.invert_lift(src.phase_of(t) + c)) + TWO_PI * (tidx // ws.n)
            except PhaseRangeError as exc:
                raise DomainError(str(exc)) from None
        return val + base

    # -- certificates and domains ---------------------------------------
    def cert_radius(self, theta: float) -> float:
        """Certified angular error of apply(theta): phase certificates of
        both charts divided by the phase derivative at the image."""
        from .inner_model import phase_derivative

        ws = self.workspace
        t = canon_angle(theta)
        j = int(ws.arc_index(t))
        if ws.n and self.interval_shift == 0 and self.offsets[j] == 0.0:
            return 0.0
        image = self.apply(t)
        src = ws.chart(j)
        tgt = ws.chart((j + self.interval_shift) % max(ws.n, 1))
        budget = src.cert_bound + tgt.cert_bound + 1e-14
        slope = phase_derivative(ws.spec, image, tgt.policy)
        return budget / slope

    def transfer_policies(self, j: int) -> tuple[TruncationPolicy, TruncationPolicy]:
        """Truncation policies of the charts that arc j is carried between.

        An arc the map leaves fixed needs no chart; both sides then get the
        workspace policy.
        """
        ws = self.workspace
        if self.interval_shift == 0 and self.offsets[j % max(ws.n, 1)] == 0.0:
            return ws.policy, ws.policy
        return ws.chart(j).policy, ws.chart(j + self.interval_shift).policy

    def domain(self, j: int):
        """Validity sub-interval of arc j in arc coordinates, or None."""
        ws = self.workspace
        if ws.n == 0:
            return (0.0, TWO_PI)
        lo, hi = ws.arc_bounds(j)
        c = self.offsets[j]
        r = self.interval_shift
        if r == 0 and c == 0.0:
            return (lo, hi)
        src = ws.chart(j)
        tgt = ws.chart((j + r) % ws.n)
        p_lo = max(src.phase_lo, tgt.phase_lo - c)
        p_hi = min(src.phase_hi, tgt.phase_hi - c)
        if p_lo >= p_hi:
            return None
        return (float(src.invert_lift(p_lo)), float(src.invert_lift(p_hi)))

    def sample_points(self, per_arc: int, guard: float = 1e-3) -> np.ndarray:
        """Evaluation points inside validity domains, away from edges."""
        ws = self.workspace
        chunks = []
        for j in range(max(ws.n, 1)):
            dom = self.domain(j)
            if dom is None:
                continue
            lo, hi = dom[0] + guard, dom[1] - guard
            if hi <= lo:
                continue
            chunks.append(np.linspace(lo, hi, per_arc))
        if not chunks:
            return np.empty(0)
        return np.mod(np.concatenate(chunks), TWO_PI)


def compose_maps(after: CircleMap, first: CircleMap) -> CircleMap:
    """after o first: the offsets add along the shifted arc indexing."""
    ws = first.workspace
    if after.workspace is not ws:
        raise DomainError("maps belong to different workspaces")
    m = max(ws.n, 1)
    r = (first.interval_shift + after.interval_shift) % m if ws.n else 0
    offs = tuple(
        first.offsets[j] + after.offsets[(j + first.interval_shift) % m]
        for j in range(m)
    )
    return CircleMap(ws, r, offs)


def invert_map(mp: CircleMap) -> CircleMap:
    ws = mp.workspace
    m = max(ws.n, 1)
    r = (-mp.interval_shift) % m if ws.n else 0
    offs = tuple(-mp.offsets[(l - mp.interval_shift) % m] for l in range(m))
    return CircleMap(ws, r, offs)


class MapWorkspace:
    """Shared chart cache plus the group descriptor for one spec.

    labels may be overridden to drive negative controls (a mutated label
    sequence changes which rotations are admissible without touching the
    underlying function).
    """

    def __init__(
        self,
        report: SpectrumReport,
        phase_window: float | None = None,
        label_tol: float = DEFAULT_LABEL_TOL,
        labels: IntervalLabelSequence | None = None,
    ):
        self.report = report
        self.spec = report.spec
        self.policy = report.policy
        self.window = DEFAULT_PHASE_WINDOW if phase_window is None else phase_window
        self.label_tol = label_tol
        self.labels = labels if labels is not None else labels_from_report(report)
        self.descriptor = compute_group(self.labels, label_tol)
        self.n = report.n
        self.angles = self.spec.singular_angles
        self.angles_arr = np.asarray(self.angles, dtype=float)
        self._charts: dict[int, PhaseChart] = {}
        self._base: dict[int, float] = {}

    # -- geometry --------------------------------------------------------
    def arc_bounds(self, j: int) -> tuple[float, float]:
        if self.n == 0:
            return (0.0, TWO_PI)
        j %= self.n
        lo = self.angles[j]
        hi = self.angles[j + 1] if j + 1 < self.n else self.angles[0] + TWO_PI
        return (lo, hi)

    def arc_index(self, thetas):
        """Index of the arc [angles[j], angles[j+1]) holding each angle."""
        th = np.mod(thetas, TWO_PI)
        if self.n == 0:
            return np.zeros_like(th, dtype=int)
        return (np.searchsorted(self.angles_arr, th, side="right") - 1) % self.n

    def chart(self, j: int) -> PhaseChart:
        j %= max(self.n, 1)
        if j not in self._charts:
            self._charts[j] = build_chart_auto(
                self.spec, self.arc_bounds(j), self.policy, self.window
            )
        return self._charts[j]

    def base_phase(self, j: int) -> float:
        """Phase of the arc's index-0 solution of Theta = 1: the exact
        multiple of 2*pi nearest the midpoint phase."""
        j %= max(self.n, 1)
        if j not in self._base:
            self._base[j] = TWO_PI * round(self.chart(j).midpoint_phase / TWO_PI)
        return self._base[j]

    def _anchor_phase(self, j: int) -> float:
        lab = self.labels.labels[j]
        if lab.itype == TYPE_2:
            return self.base_phase(j)
        if lab.itype == TYPE_1A:
            return self.chart(j).phase_hi
        return self.chart(j).phase_lo

    # -- generators ------------------------------------------------------
    def identity_map(self) -> CircleMap:
        return CircleMap(self, 0, (0.0,) * max(self.n, 1))

    def build_shift_map(self, arc_index: int, power: int = 1) -> CircleMap:
        """Advance every solution grid in one arc by `power` steps."""
        if self.n == 0:
            return CircleMap(self, 0, (TWO_PI * power,))
        arc_index %= self.n
        if self.labels.labels[arc_index].itype != TYPE_2:
            raise NotShiftableError(
                f"arc {arc_index} has type {self.labels.labels[arc_index].itype}; "
                "only both-sided accumulation supports a shift"
            )
        offs = [0.0] * self.n
        offs[arc_index] = TWO_PI * power
        return CircleMap(self, 0, tuple(offs))

    def build_rotation_map(self, r: int) -> CircleMap:
        """The invariant map carrying arc j onto arc j + r for each j."""
        if self.n == 0:
            raise RotationUnavailableError("no singularities: use shift maps")
        r %= self.n
        if r == 0:
            raise DomainError("rotation 0 is the identity map")
        # admissibility gate comes first: no charts are built for an
        # impossible rotation
        if r not in valid_rotations(self.labels, self.label_tol):
            raise RotationUnavailableError(
                f"rotation by {r} does not match the arc labels"
            )
        offs = []
        for j in range(self.n):
            l = (j + r) % self.n
            if self.labels.labels[j].itype == TYPE_2:
                offs.append(self.base_phase(l) - self.base_phase(j))
            else:
                raw = self._anchor_phase(l) - self._anchor_phase(j)
                snapped = _snap_2pi(raw)
                if abs(raw - snapped) > _SNAP_GUARD:
                    raise CertificationError(
                        f"arc {j} transfer offset {raw:.6e} is not near a "
                        "multiple of 2*pi"
                    )
                offs.append(snapped)
        return CircleMap(self, r, tuple(offs))

    # -- words -----------------------------------------------------------
    def realize(self, element: GroupElement) -> CircleMap:
        """Canonical word for an element: shifts composed after y^rot."""
        desc = self.descriptor
        el = desc.element(element.shift, element.rot)
        if self.n == 0:
            return CircleMap(self, 0, (TWO_PI * el.rot,))
        out = self.identity_map()
        if el.rot:
            y = self.build_rotation_map(desc.g)
            for _ in range(el.rot):
                out = compose_maps(y, out)
        for slot, v in enumerate(el.shift):
            if v:
                out = compose_maps(
                    self.build_shift_map(desc.type2_indices[slot], v), out
                )
        return out
