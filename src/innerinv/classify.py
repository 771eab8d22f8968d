"""Singularity and arc classification for finitely described inner functions.

Each spectrum point is typed by where solutions of Theta = const pile up
around it:

  * "2"  : accumulation on both sides (atom, nontangential tail, or
           tangential tails from both sides),
  * "1a" : accumulation from above only; the limit from below exists,
  * "1b" : accumulation from below only; the limit from above exists.

Arcs between consecutive spectrum points inherit a type from their two
endpoints: accumulation into the arc from neither end ("0"), from the lo
end ("1a"), from the hi end ("1b"), or both ("2").  Type decisions are made
analytically from the family kinds; numbers (limits, solution lists) are
computed with certified truncation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoLimitError, NotSingularError, DomainError, TruncationError
from .inner_model import (
    TWO_PI,
    Atom,
    DiskZero,
    InnerFunctionSpec,
    PhaseChart,
    StolzTail,
    TangentialTail,
    TruncationPolicy,
    UnitPoint,
    blaschke_phase,
    build_chart_auto,
    canon_angle,
    phase_lift,
    truncation_error_bound,
)

TYPE_0 = "0"
TYPE_1A = "1a"
TYPE_1B = "1b"
TYPE_2 = "2"


@dataclass(frozen=True)
class CertifiedUnimodular:
    """A unimodular value together with a rigorous phase error radius."""

    value: complex
    phase_err: float

    @property
    def arg(self) -> float:
        return cmath.phase(self.value)


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of the local Poisson series at a boundary point.

    finite is decided analytically from the family kinds; when finite,
    value is the exact partial sum and tail_bound a certified bound on the
    rest.
    """

    finite: bool
    value: float | None = None
    tail_bound: float | None = None


@dataclass(frozen=True)
class SingularityRecord:
    theta: float
    sing_type: str
    causes: tuple
    limit: CertifiedUnimodular | None = None


@dataclass(frozen=True)
class IntervalRecord:
    """One arc between consecutive spectrum points (directed ccw).

    limit_lo / limit_hi are the one-sided values of the function at the
    endpoints where the arc does not accumulate; phase_span and type0_image
    are populated for type "0" arcs only.
    """

    lo: float
    hi: float
    itype: str
    limit_lo: CertifiedUnimodular | None = None
    limit_hi: CertifiedUnimodular | None = None
    phase_span: float | None = None
    type0_image: tuple[tuple[float, int], ...] | None = None


@dataclass(frozen=True)
class SpectrumReport:
    spec: InnerFunctionSpec
    policy: TruncationPolicy
    singularities: tuple[SingularityRecord, ...]
    intervals: tuple[IntervalRecord, ...]

    @property
    def n(self) -> int:
        return len(self.singularities)


def spectrum(spec: InnerFunctionSpec) -> tuple[UnitPoint, ...]:
    """Spectrum points, sorted by angle.  Empty for a finite product."""
    return tuple(UnitPoint(a) for a in spec.singular_angles)


def stolz_contains(anchor: UnitPoint, alpha: float, z: complex) -> bool:
    """Membership of z in the nontangential cone at the anchor."""
    if not alpha > 1.0:
        raise DomainError("cone aperture must exceed 1")
    if not abs(z) < 1.0:
        raise DomainError("cone membership is defined inside the open disk")
    return abs(anchor.value - z) < alpha * (1.0 - abs(z))


def _poisson_term(delta: np.ndarray, xi: float, phi: np.ndarray) -> np.ndarray:
    # (1 - |a|^2) / |xi_pt - a|^2 with a = (1-delta) e^{i phi}
    r = 1.0 - delta
    dist2 = delta * delta + 4.0 * r * np.sin((xi - phi) / 2.0) ** 2
    return (1.0 - r * r) / dist2


def _tail_series_sum(tail, xi: float, tol: float) -> tuple[float, float]:
    """Partial Poisson series of one tail at xi, plus a certified tail bound.

    Only valid when the series converges (tangential family, or any family
    anchored away from xi).  Terms are added until the closed-form rest is
    small against the partial sum; the bound is reported, not hidden, since
    slowly convergent families cannot reach absolute tolerances.
    """
    n = 4096
    while True:
        delta, phi = tail.terms(n)
        partial = float(_poisson_term(delta, xi, phi).sum())
        good = max(tol, 1e-6 * max(abs(partial), 1.0))
        if isinstance(tail, StolzTail):
            d1 = tail.c * tail.q ** (n + 1)
            cluster = (1.0 + abs(tail.t)) * d1
            s = 2.0 * abs(math.sin((xi - tail.anchor_theta) / 2.0))
            if s > 2.0 * cluster:
                rest = 2.0 * (d1 / (1.0 - tail.q)) / (s - cluster) ** 2
                if rest <= good:
                    return partial, rest
        else:
            u0 = n + tail.first_u
            rho = tail.rho
            gap = abs(math.sin((xi - tail.anchor_theta) / 2.0)) * 2.0
            zone = 1.0 / u0
            r_min = 1.0 - float(u0) ** -rho
            rests = []
            if gap > 2.0 * zone:
                # every remaining zero is within 2/u of the anchor point
                d = gap - 2.0 * zone
                rests.append(
                    2.0 * float(u0 - 1) ** (1.0 - rho) / (rho - 1.0) / d ** 2
                )
            # at-the-anchor route: each zero is at least 1/u away in angle
            psi = ((xi - tail.anchor_theta + math.pi) % TWO_PI) - math.pi
            on_far_side = (psi <= 0.0) if tail.side == "upper" else (psi >= 0.0)
            if on_far_side:
                rests.append(
                    (math.pi ** 2 / (2.0 * r_min))
                    * float(u0 - 1) ** (3.0 - rho)
                    / (rho - 3.0)
                )
            rest = min(rests) if rests else math.inf
            if rest <= good:
                return partial, rest
        if n >= (1 << 17):
            if math.isfinite(rest):
                return partial, rest
            raise TruncationError("Poisson series tail bound did not converge")
        n *= 2


def angular_derivative_series(
    spec: InnerFunctionSpec, xi: UnitPoint, policy: TruncationPolicy | None = None
) -> SeriesResult:
    """Local Poisson series sum over all configured zeros at the point xi.

    Divergent exactly when a nontangential tail is anchored at xi (each of
    its terms is bounded below); otherwise finite with a certified bound.
    """
    policy = policy or TruncationPolicy()
    key = canon_angle(xi.theta)
    for tail in spec.tails:
        if isinstance(tail, StolzTail) and canon_angle(tail.anchor_theta) == key:
            return SeriesResult(finite=False)
    total = 0.0
    bound = 0.0
    for z in spec.zeros:
        d2 = abs(xi.value - z.point) ** 2
        total += z.multiplicity * (1.0 - z.modulus ** 2) / d2
    tol = policy.phase_tol
    for tail in spec.tails:
        part, rest = _tail_series_sum(tail, xi.theta, tol)
        total += part
        bound += rest
    return SeriesResult(finite=True, value=total, tail_bound=bound)


def one_sided_limit(
    spec: InnerFunctionSpec, xi: UnitPoint, side: str, policy: TruncationPolicy
) -> CertifiedUnimodular:
    """Limit of the function approaching xi from one side.

    side is "below" (angles increasing to xi) or "above".  The limit equals
    the pointwise product of all factor values at xi whenever the requested
    side is free of accumulation; each tail contributes a principal phase
    sum with enough terms that the closed-form rest clears phase_tol.
    """
    if side not in ("below", "above"):
        raise DomainError(f"side must be 'below' or 'above', got {side!r}")
    direction = -1 if side == "below" else +1
    if spec.accumulates_into(xi.theta, direction):
        raise NoLimitError(f"solutions accumulate on the {side} side of {xi.theta}")
    th = xi.theta
    phase = spec.constant_arg + spec.zero_order * th
    for z in spec.zeros:
        phase += z.multiplicity * float(blaschke_phase(z.modulus, th - z.argument))
    for atom in spec.atoms:
        # atoms elsewhere are smooth here; an atom at xi was rejected above
        phase += -atom.mass / math.tan((th - atom.theta) / 2.0)

    err = 0.0
    for tail in spec.tails:
        n = max(policy.tail_terms, 1024)
        while True:
            sub = InnerFunctionSpec(tails=(tail,))
            rest = truncation_error_bound(sub, (th, th), n)
            if rest <= policy.phase_tol:
                break
            if n >= (1 << 21):
                raise TruncationError("one-sided limit certificate did not converge")
            n *= 2
        delta, phi = tail.terms(n)
        h = blaschke_phase(1.0 - delta, th - phi)
        principal = (h + math.pi) % TWO_PI - math.pi
        phase += float(principal.sum())
        err += rest
    return CertifiedUnimodular(cmath.exp(1j * (phase % TWO_PI)), err)


def classify_singularity(
    spec: InnerFunctionSpec, xi: UnitPoint, policy: TruncationPolicy | None = None
) -> SingularityRecord:
    """Type one spectrum point from its contributing causes."""
    policy = policy or TruncationPolicy()
    causes = spec.causes_at(xi.theta)
    if not causes:
        raise NotSingularError(f"angle {xi.theta} is not in the spectrum")
    has_atom = any(isinstance(c, Atom) for c in causes)
    has_stolz = any(isinstance(c, StolzTail) for c in causes)
    upper = any(isinstance(c, TangentialTail) and c.side == "upper" for c in causes)
    lower = any(isinstance(c, TangentialTail) and c.side == "lower" for c in causes)
    if has_atom or has_stolz or (upper and lower):
        return SingularityRecord(xi.theta, TYPE_2, causes)
    if upper:
        limit = one_sided_limit(spec, xi, "below", policy)
        return SingularityRecord(xi.theta, TYPE_1A, causes, limit)
    limit = one_sided_limit(spec, xi, "above", policy)
    return SingularityRecord(xi.theta, TYPE_1B, causes, limit)


def _interval_type(lo_acc: bool, hi_acc: bool) -> str:
    if lo_acc and hi_acc:
        return TYPE_2
    if lo_acc:
        return TYPE_1A
    if hi_acc:
        return TYPE_1B
    return TYPE_0


def _count_multiples_between(p_lo: float, p_hi: float) -> list[int]:
    """Indices m with p_lo < 2*pi*m < p_hi."""
    m_first = math.floor(p_lo / TWO_PI) + 1
    m_last = math.ceil(p_hi / TWO_PI) - 1
    return list(range(m_first, m_last + 1))


def _type0_image(chart: PhaseChart, lim_lo: float, lim_hi: float):
    """Solutions of Theta = 1 inside a type-0 arc, as (angle, multiplicity).

    The phase is strictly increasing, so every solution is simple.
    """
    sols = []
    for m in _count_multiples_between(lim_lo, lim_hi):
        theta = chart.invert_lift(TWO_PI * m)
        sols.append((canon_angle(theta), 1))
    return tuple(sols)


def classify_intervals(
    spec: InnerFunctionSpec,
    policy: TruncationPolicy | None = None,
    phase_window: float | None = None,
) -> SpectrumReport:
    """Full classification: every spectrum point and every arc labeled."""
    from .inner_model import DEFAULT_PHASE_WINDOW

    policy = policy or TruncationPolicy()
    window = phase_window if phase_window is not None else DEFAULT_PHASE_WINDOW
    angles = list(spec.singular_angles)

    if not angles:
        chart = build_chart_auto(spec, (0.0, TWO_PI), policy, window)
        # one half-open period carries exactly winding/2*pi solutions
        deg = int(round(chart.winding / TWO_PI))
        m0 = math.ceil(chart.phase_lo / TWO_PI - 1e-9)
        image = tuple(
            (canon_angle(chart.invert_lift(TWO_PI * m)), 1)
            for m in range(m0, m0 + deg)
        )
        full = IntervalRecord(
            lo=0.0,
            hi=TWO_PI,
            itype=TYPE_0,
            phase_span=chart.winding,
            type0_image=image,
        )
        return SpectrumReport(spec, policy, (), (full,))

    sings = tuple(classify_singularity(spec, UnitPoint(a), policy) for a in angles)
    intervals = []
    n = len(angles)
    for i in range(n):
        lo, hi = spec.arc_bounds(i)
        lo_acc, hi_acc = spec.arc_accumulation(lo, hi)
        itype = _interval_type(lo_acc, hi_acc)
        # a point's limit is taken on its free side, the side this arc is on
        limit_lo = None if lo_acc else sings[i].limit
        limit_hi = None if hi_acc else sings[(i + 1) % n].limit
        phase_span = None
        image = None
        if itype == TYPE_0:
            chart = build_chart_auto(spec, (lo, hi), policy, window)
            phase_span = chart.phase_hi - chart.phase_lo
            image = _type0_image(chart, chart.phase_lo, chart.phase_hi)
        intervals.append(
            IntervalRecord(
                lo=lo,
                hi=hi,
                itype=itype,
                limit_lo=limit_lo,
                limit_hi=limit_hi,
                phase_span=phase_span,
                type0_image=image,
            )
        )
    return SpectrumReport(spec, policy, sings, tuple(intervals))


def truncated_solution_count(
    spec: InnerFunctionSpec, anchor: float, eps: float, n_terms: int
) -> int:
    """Solutions of the n-term truncation of Theta = 1 in (anchor, anchor+eps).

    The truncated model is analytic across a tail anchor, so the count is
    finite for every n; it growing without bound as n doubles is the visible
    signature of genuine accumulation.
    """
    pol = TruncationPolicy(tail_terms=n_terms, phase_tol=1.0)
    p_lo = phase_lift(spec, anchor, pol)
    p_hi = phase_lift(spec, anchor + eps, pol)
    return len(_count_multiples_between(p_lo, p_hi))
