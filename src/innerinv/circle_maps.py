"""Construction of the invariant circle maps realizing group elements.

Every map here is stored in transfer form: an arc rotation r plus one phase
offset per arc.  Applying the map moves a point from arc j to arc j+r along
the phase charts: theta -> Phi_{j+r}^{-1}(Phi_j(theta) + c_j).  Offsets are
exact multiples of 2*pi (snapped), so relations such as y^d = e hold at the
offset level and numerical error enters only through chart inversion.

All evaluation goes through one array routine, ``CircleMap._transfer``: it
groups the points by arc (one stable sort), maps spectrum points exactly,
and makes one chart inversion per arc.  ``apply_many`` reduces its images
mod 2*pi and ``lift_many`` adds the whole turns back; ``apply`` and ``lift``
are one-point wrappers.  Validity domains depend only on the transfer form
of one arc, so the workspace computes each one once for all maps.
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
    canon_angles,
    phase_lift,
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
    def _transfer(self, th: np.ndarray):
        """The arc dispatch under every evaluation, over canonical angles.

        Returns per point its image on the lift of the target chart (raw),
        the whole turns (j + r) // n that the arc index wraps, and whether
        the point lies below angles[0], where its arc coordinate is
        th + 2*pi.  Spectrum points go exactly onto spectrum points.  On an
        arc the map fixes raw is th itself, with one more turn for a point
        below angles[0], so that raw mod 2*pi is the point, bitwise.
        """
        ws = self.workspace
        m = max(ws.n, 1)
        r = self.interval_shift
        raw = np.empty_like(th)
        turns = np.zeros_like(th)
        if ws.n:
            arc = np.searchsorted(ws.angles_arr, th, side="right") - 1
            wrapped = arc < 0
            arc[wrapped] = ws.n - 1
            coords = np.where(wrapped, th + TWO_PI, th)
            hit = th == ws.angles_arr[arc]
            dest = arc[hit] + r
            raw[hit] = ws.angles_arr[dest % ws.n]
            turns[hit] = dest // ws.n
            arc[hit] = ws.n  # a group of their own, never visited below
        else:
            arc = np.zeros(th.shape, dtype=np.intp)
            wrapped = np.zeros(th.shape, dtype=bool)
            coords = th
        for j, sel in _groups(arc, m):
            c = self.offsets[j]
            if r == 0 and c == 0.0:
                raw[sel] = th[sel]
                turns[sel] = wrapped[sel]
                continue
            src = ws.chart(j)
            x = coords[sel]
            if np.any(x < src.thetas[0] - 1e-12) or np.any(x > src.thetas[-1] + 1e-12):
                raise DomainError(f"point outside the certified domain of arc {j}")
            tgt = ws.chart((j + r) % m)
            try:
                raw[sel] = tgt.invert_lift_many(src.phase_of(x) + c)
            except PhaseRangeError as exc:
                raise DomainError(str(exc)) from None
            turns[sel] = (j + r) // m
        return raw, turns, wrapped

    def apply(self, theta) -> UnitPoint:
        th = theta.theta if isinstance(theta, UnitPoint) else float(theta)
        return UnitPoint(float(self.apply_many(np.asarray([th]))[0]))

    def apply_many(self, thetas) -> np.ndarray:
        th = canon_angles(thetas)
        raw, _, _ = self._transfer(th.reshape(-1))
        return np.mod(raw, TWO_PI).reshape(th.shape)

    def lift(self, theta: float) -> float:
        """Continuous increasing lift; lift(t + 2pi) = lift(t) + 2pi."""
        return float(self.lift_many(np.asarray([theta], dtype=float))[0])

    def lift_many(self, thetas) -> np.ndarray:
        """lift at every angle: the image on its target chart's lift, plus
        the whole turns of the arc index and of the angle itself."""
        th = np.asarray(thetas, dtype=float)
        if self.workspace.n == 0 and self.offsets[0] == 0.0:
            return th.copy()
        t = canon_angles(th).reshape(-1)
        raw, turns, wrapped = self._transfer(t)
        own = (th.reshape(-1) - t) - TWO_PI * wrapped
        return ((raw + TWO_PI * turns) + own).reshape(th.shape)

    # -- certificates and domains ---------------------------------------
    def cert_radius(self, theta):
        """Certified angular error of apply(theta): phase certificates of
        both charts divided by the phase derivative at the image.

        Zero where the map is exact: on arcs it fixes and at spectrum
        points.  An array of angles gives an array of radii, with one
        apply_many and one slope evaluation per target arc.
        """
        ws = self.workspace
        m = max(ws.n, 1)
        r = self.interval_shift
        t = canon_angles(theta).reshape(-1)
        arc = ws.arc_index(t)
        radii = np.zeros_like(t)
        live = np.ones(t.shape, dtype=bool)
        if ws.n:
            fixed = np.array([r == 0 and c == 0.0 for c in self.offsets])
            live = ~(fixed[arc] | (t == ws.angles_arr[arc]))
        images = self.apply_many(t[live])
        budget = np.empty_like(images)
        target = (arc[live] + r) % m
        for k, sel in _groups(target, m):
            tgt = ws.chart(k)
            src = ws.chart((k - r) % m)
            budget[sel] = src.cert_bound + tgt.cert_bound + 1e-14
            budget[sel] /= phase_lift(ws.spec, images[sel], tgt.policy, with_slope=True)[1]
        radii[live] = budget
        if np.ndim(theta) == 0:
            return float(radii[0])
        return radii.reshape(np.shape(theta))

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
        return self.workspace.transfer_domain(j, self.interval_shift, self.offsets[j])

    def sample_points(self, per_arc: int, guard: float = 1e-3) -> np.ndarray:
        """Evaluation points inside validity domains, away from edges."""
        doms = [self.domain(j) for j in range(max(self.workspace.n, 1))]
        ends = np.array([(d[0] + guard, d[1] - guard) for d in doms if d is not None])
        if ends.size:
            ends = ends[ends[:, 1] > ends[:, 0]]
        if not ends.size:
            return np.empty(0)
        pts = np.linspace(ends[:, 0], ends[:, 1], per_arc, axis=1)
        return np.mod(pts.reshape(-1), TWO_PI)


def _groups(keys: np.ndarray, count: int):
    """(k, indices of keys == k) for each k in range(count) that occurs.

    One stable sort instead of one mask per key; the indices of a group
    keep their original order.
    """
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(count + 1))
    for k in range(count):
        if bounds[k] < bounds[k + 1]:
            yield k, order[bounds[k] : bounds[k + 1]]


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
        self._domains: dict[tuple[int, int, float], tuple[float, float] | None] = {}

    # -- geometry --------------------------------------------------------
    def arc_bounds(self, j: int) -> tuple[float, float]:
        return self.spec.arc_bounds(j)

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

    def transfer_domain(self, j: int, shift: int, offset: float):
        """Validity sub-interval, in arc coordinates, of a map with arc
        rotation `shift` and offset `offset` on arc j, or None.

        A pure function of its arguments over this workspace's charts, so
        it is computed once for all maps that share the transfer form.
        """
        if self.n == 0:
            return (0.0, TWO_PI)
        key = (j, shift, offset)
        if key in self._domains:
            return self._domains[key]
        dom = self.arc_bounds(j)
        if shift or offset != 0.0:
            src, tgt = self.chart(j), self.chart(j + shift)
            p_lo = max(src.phase_lo, tgt.phase_lo - offset)
            p_hi = min(src.phase_hi, tgt.phase_hi - offset)
            dom = None
            if p_lo < p_hi:
                x_lo, x_hi = src.invert_lift_many(np.array([p_lo, p_hi]))
                dom = (float(x_lo), float(x_hi))
        self._domains[key] = dom
        return dom

    def _anchor_phase(self, j: int) -> float:
        lab = self.labels.labels[j]
        if lab.itype == TYPE_2:
            return self.base_phase(j)
        if lab.itype == TYPE_1A:
            return self.chart(j).phase_hi
        return self.chart(j).phase_lo

    # -- generators ------------------------------------------------------
    def generators(self) -> list[tuple[str, CircleMap]]:
        """The named generator maps: x1..xk, the shifts of the both-sided
        arcs, then the rotation y when d > 1; without singularities, x."""
        if self.n == 0:
            return [("x", self.build_shift_map(0))]
        desc = self.descriptor
        gens = [
            (f"x{slot + 1}", self.build_shift_map(arc))
            for slot, arc in enumerate(desc.type2_indices)
        ]
        if desc.d > 1:
            gens.append(("y", self.build_rotation_map(desc.g)))
        return gens

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
