"""Boundary phase machinery for finitely described inner functions.

An inner function here is a unimodular constant times z^p, times a finite
Blaschke product, times truncatable zero-tail families, times an atomic
singular factor.  Everything on the unit circle is computed through phase
sums: each factor contributes a real, globally smooth (or explicitly
singular) phase term, and the boundary value is exp(i * total).  Products
of near-unimodular complexes are never formed, so the modulus is exactly 1
by construction and there is no drift near singularities.

The central objects are:

  * ``phase_lift``: the truncated global phase function, smooth away from
    atom angles, strictly increasing.
  * ``PhaseChart``: a monotone sampled lift of the phase on one arc with a
    certified truncation bound and a safeguarded Newton inverse.
  * ``truncation_error_bound``: a rigorous sup bound on the phase error of
    the truncation on an arc, with closed-form remainders for both tail
    families.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    DuplicateSingularityError,
    InvalidArcError,
    PhaseRangeError,
    SingularPointError,
    TruncationError,
)

TWO_PI = 2.0 * math.pi

# Shared numeric defaults.  Charts refuse to extend past the point where the
# truncation certificate exceeds phase_tol.
DEFAULT_TAIL_TERMS = 64
DEFAULT_PHASE_TOL = 1e-9
DEFAULT_PHASE_WINDOW = 8.0 * math.pi

# Lookahead terms evaluated exactly before the closed-form remainder kicks in.
_CERT_LOOKAHEAD = 512
# asin(x) <= _ASIN_SLACK * x holds for x <= 0.8; remainders cap ratios at 0.5.
_ASIN_SLACK = 1.16
_RATIO_CAP = 0.5


def canon_angle(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi)."""
    r = theta % TWO_PI
    if r >= TWO_PI or r < 0.0:
        r = 0.0
    return r


def canon_angles(thetas) -> np.ndarray:
    """canon_angle of every element, bitwise the same (np.mod rounds like %)."""
    r = np.mod(np.asarray(thetas, dtype=float), TWO_PI)
    return np.where(r >= TWO_PI, 0.0, r)


def angular_gap(lo: float, hi: float, phi: float) -> float:
    """Shortest angular distance from phi to the closed arc [lo, hi].

    Zero when phi falls on the arc (mod 2*pi).  The arc is directed
    counterclockwise with hi - lo <= 2*pi.
    """
    span = hi - lo
    x = (phi - lo) % TWO_PI
    if x <= span:
        return 0.0
    return min(x - span, TWO_PI - x)


@dataclass(frozen=True)
class UnitPoint:
    """A point exp(i*theta) on the unit circle, stored canonically."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", canon_angle(self.theta))

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class DiskZero:
    """A zero inside the open disk, with multiplicity."""

    modulus: float
    argument: float
    multiplicity: int = 1

    def __post_init__(self):
        if not 0.0 <= self.modulus < 1.0:
            raise DomainError(f"zero modulus must lie in [0, 1), got {self.modulus}")
        if self.multiplicity < 1 or int(self.multiplicity) != self.multiplicity:
            raise DomainError("zero multiplicity must be a positive integer")

    @property
    def point(self) -> complex:
        return self.modulus * cmath.exp(1j * self.argument)


@dataclass(frozen=True)
class Atom:
    """A point mass of the singular measure at angle theta."""

    theta: float
    mass: float

    def __post_init__(self):
        if not self.mass > 0.0:
            raise DomainError("atom mass must be strictly positive")


@dataclass(frozen=True)
class StolzTail:
    """Zeros a_n = (1 - c*q^n) * exp(i*(anchor + t*c*q^n)), n = 1, 2, ...

    The points approach exp(i*anchor) inside a nontangential cone: the
    angular offset is proportional to the radial gap, with slope t.
    """

    anchor_theta: float
    c: float
    q: float
    t: float = 0.0

    kind = "StolzGeometric"

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise DomainError("StolzGeometric offset c must lie in (0, 1)")
        if not 0.0 < self.q < 1.0:
            raise DomainError("StolzGeometric ratio q must lie in (0, 1)")
        if self.c * self.q >= 1.0:
            raise DomainError("StolzGeometric first point has non-positive modulus")

    def term(self, n: int) -> tuple[float, float]:
        """(radial gap delta_n, zero angle phi_n) for term n >= 1."""
        delta = self.c * self.q ** n
        return delta, self.anchor_theta + self.t * delta

    def terms(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        n = np.arange(1, count + 1, dtype=float)
        delta = self.c * self.q ** n
        return delta, self.anchor_theta + self.t * delta

    @property
    def cone_aperture(self) -> float:
        """An aperture alpha > 1 with |anchor_pt - a_n| <= alpha*(1 - |a_n|)."""
        return max(2.0, 1.5 * (1.0 + abs(self.t)))


@dataclass(frozen=True)
class TangentialTail:
    """Zeros with radial gap u^{-rho} and angular offset +-1/u, u = 2, 3, ...

    The quotient gap/offset is u^{1-rho} -> 0, so the points approach the
    anchor tangentially from one side.  rho >= 4 keeps the local Poisson
    series summable, which is what makes the opposite one-sided limit exist.
    """

    anchor_theta: float
    side: str
    rho: float = 4.0

    kind = "TangentialSummable"
    first_u = 2  # u = 1 would put the first zero at the origin

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise DomainError(f"tangential side must be 'upper' or 'lower', got {self.side!r}")
        if not self.rho >= 4.0:
            raise DomainError("tangential radial exponent rho must be >= 4")

    @property
    def sign(self) -> float:
        return 1.0 if self.side == "upper" else -1.0

    def term(self, n: int) -> tuple[float, float]:
        """(radial gap, zero angle) for term n >= 1; internally u = n + 1."""
        u = n + self.first_u - 1
        return u ** -self.rho, self.anchor_theta + self.sign / u

    def terms(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.arange(self.first_u, self.first_u + count, dtype=float)
        return u ** -self.rho, self.anchor_theta + self.sign / u


TailFamily = StolzTail | TangentialTail


@dataclass(frozen=True)
class InnerFunctionSpec:
    """Finitely described inner function.

    constant_arg is the argument of the unimodular constant, zero_order the
    order of the zero at the origin.  Tail anchors and atom angles form the
    spectrum; several causes may share one angle (an atom on top of a tail,
    or tangential tails on both sides), but exact duplicates are rejected.
    """

    constant_arg: float = 0.0
    zero_order: int = 0
    zeros: tuple[DiskZero, ...] = ()
    tails: tuple[TailFamily, ...] = ()
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(self.zeros))
        object.__setattr__(self, "tails", tuple(self.tails))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if self.zero_order < 0 or int(self.zero_order) != self.zero_order:
            raise DomainError("zero_order must be a non-negative integer")
        seen_atoms = set()
        for a in self.atoms:
            key = canon_angle(a.theta)
            if key in seen_atoms:
                raise DuplicateSingularityError(f"two atoms at angle {key}")
            seen_atoms.add(key)
        seen_tails = set()
        for t in self.tails:
            key = (t.kind, canon_angle(t.anchor_theta), getattr(t, "side", ""))
            if key in seen_tails:
                raise DuplicateSingularityError(f"duplicate tail family {key}")
            seen_tails.add(key)

    @property
    def singular_angles(self) -> tuple[float, ...]:
        """Sorted canonical angles of the spectrum."""
        angles = {canon_angle(a.theta) for a in self.atoms}
        angles |= {canon_angle(t.anchor_theta) for t in self.tails}
        return tuple(sorted(angles))

    @property
    def finite_degree(self) -> int:
        """Winding degree of the finite part (origin order plus zeros)."""
        return self.zero_order + sum(z.multiplicity for z in self.zeros)

    def is_singular_angle(self, theta: float) -> bool:
        return canon_angle(theta) in set(self.singular_angles)

    def causes_at(self, theta: float):
        """All atoms and tails whose singular point is at this angle."""
        key = canon_angle(theta)
        out = [a for a in self.atoms if canon_angle(a.theta) == key]
        out += [t for t in self.tails if canon_angle(t.anchor_theta) == key]
        return tuple(out)

    def accumulates_into(self, theta: float, direction: int) -> bool:
        """True when solutions of Theta = const pile up on one side of theta.

        direction +1 asks about the arc just above theta, -1 just below.
        Atoms and nontangential tails accumulate on both sides; a tangential
        tail only on its own side.
        """
        for cause in self.causes_at(theta):
            if isinstance(cause, (Atom, StolzTail)):
                return True
            if isinstance(cause, TangentialTail):
                if (direction > 0) == (cause.side == "upper"):
                    return True
        return False


@dataclass(frozen=True)
class TruncationPolicy:
    """How many tail terms to keep and how much phase error to accept."""

    tail_terms: int = DEFAULT_TAIL_TERMS
    phase_tol: float = DEFAULT_PHASE_TOL

    def __post_init__(self):
        if self.tail_terms < 1:
            raise DomainError("tail_terms must be positive")
        if not self.phase_tol > 0.0:
            raise DomainError("phase_tol must be positive")


# ---------------------------------------------------------------------------
# factor phases


def blaschke_phase(r, u):
    """Centered boundary phase of one Blaschke factor.

    For a zero at r*exp(i*phi) evaluated at exp(i*theta), u = theta - phi.
    The value is a globally smooth, strictly increasing lift with
    h(u + 2*pi) = h(u) + 2*pi and h(0) = -pi; as r -> 1 it tends to 0 for
    u in (0, 2*pi).  Real part 1 - r*cos(u) >= 1 - r > 0 keeps the atan2
    branch-free.
    """
    return u - math.pi + 2.0 * np.arctan2(r * np.sin(u), 1.0 - r * np.cos(u))


def poisson_kernel(r, u):
    """d/du of blaschke_phase: (1 - r^2) / |exp(iu) - r|^2."""
    return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(u) + r * r)


def atom_phase(mass, v):
    """Boundary phase of the atomic factor: -mass * cot(v / 2)."""
    return -mass / np.tan(v / 2.0)


def atom_phase_derivative(mass, v):
    return mass / (2.0 * np.sin(v / 2.0) ** 2)


def eval_factor(zero: DiskZero, point: UnitPoint) -> complex:
    """Single Blaschke factor value on the circle (multiplicity ignored).

    Computed from the phase sum, never the raw quotient, so the result is
    unimodular to machine precision even next to the zero's radial ray.
    """
    if zero.modulus == 0.0:
        raise DomainError("a zero at the origin is represented by zero_order")
    phase = blaschke_phase(zero.modulus, point.theta - zero.argument)
    return cmath.exp(1j * float(phase))


# Point-term elements the tail kernel holds at once; bounds its memory.
_BLOCK_ELEMENTS = 1 << 18

# Work arrays of the tail kernel, one set per thread, kept between calls so
# their pages stay mapped; arrays of this size freed after every call go back
# to the system and are faulted in again on the next.
_work = threading.local()


def _work_arrays(size: int) -> tuple[np.ndarray, ...]:
    """Four float arrays of at least ``size`` elements for this thread."""
    arrays = getattr(_work, "arrays", ())
    if not arrays or arrays[0].size < size:
        arrays = tuple(np.empty(max(size, _BLOCK_ELEMENTS)) for _ in range(4))
        _work.arrays = arrays
    return arrays


@functools.lru_cache(maxsize=8)
def _tail_coefficients(tail: TailFamily, count: int) -> tuple[np.ndarray, ...]:
    """Zero angles phi, moduli r, r^2 and 1 - r^2 of the first count terms."""
    delta, phi = tail.terms(count)
    r = 1.0 - delta
    r2 = r * r
    out = (phi, r, r2, 1.0 - r2)
    for a in out:
        a.setflags(write=False)
    return out


def _tail_sums(tail: TailFamily, theta: np.ndarray, count: int, with_slope: bool):
    """Phase sums of the first ``count`` tail terms at each point, and the
    slope sums (Poisson kernels) when asked, from one shared sine and cosine.

    Points go through in blocks of at most _BLOCK_ELEMENTS point-term
    elements.  Each point's terms are summed along their own row, so the
    sums do not depend on the block size or on the number of points.
    """
    phi, r, r2, one_minus_r2 = _tail_coefficients(tail, count)
    flat = theta.reshape(-1)
    phase = np.empty(flat.size)
    slope = np.empty(flat.size) if with_slope else None
    rows = max(1, _BLOCK_ELEMENTS // count)
    work = _work_arrays(min(rows, flat.size) * count)
    for start in range(0, flat.size, rows):
        block = slice(start, start + rows)
        u, rs, rc, den = (w[: flat[block].size * count].reshape(-1, count) for w in work)
        np.subtract(flat[block, None], phi, out=u)
        np.sin(u, out=rs)
        rs *= r
        np.cos(u, out=rc)
        rc *= r
        # blaschke_phase: u - pi + 2 * atan2(r sin u, 1 - r cos u)
        np.subtract(1.0, rc, out=den)
        at = np.arctan2(rs, den, out=rs)
        at *= 2.0
        u -= math.pi
        u += at
        phase[block] = u.sum(axis=-1)
        if with_slope:
            # poisson_kernel: (1 - r^2) / (1 - 2 r cos u + r^2); doubling is exact
            rc *= 2.0
            np.subtract(1.0, rc, out=rc)
            rc += r2
            np.divide(one_minus_r2, rc, out=rc)
            slope[block] = rc.sum(axis=-1)
    return phase.reshape(theta.shape), slope.reshape(theta.shape) if with_slope else None


def _add_rows(first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """first + rows[0] + rows[1] + ... per point, added strictly left to right."""
    stacked = np.concatenate([first.reshape(1, -1), rows])
    return np.add.accumulate(stacked, axis=0, out=stacked)[-1].reshape(first.shape)


def phase_lift(spec: InnerFunctionSpec, theta, policy: TruncationPolicy, with_slope: bool = False):
    """Truncated global phase of the inner function, as a real lift.

    Smooth and strictly increasing away from atom angles; the atomic terms
    blow up to -inf/+inf across each atom.  All arcs share this one lift,
    which is what makes phases comparable across charts.  With
    ``with_slope`` the result is ``(phase, slope)``, the slope being the
    derivative of the same truncated lift, computed in the same pass.
    """
    th = np.asarray(theta, dtype=float)
    total = spec.constant_arg + spec.zero_order * th
    slope = np.full(th.shape, float(spec.zero_order))
    for z in spec.zeros:
        u = th - z.argument
        total = total + z.multiplicity * blaschke_phase(z.modulus, u)
        if with_slope:
            slope = slope + z.multiplicity * poisson_kernel(z.modulus, u)
    for tail in spec.tails:
        tail_phase, tail_slope = _tail_sums(tail, th, policy.tail_terms, with_slope)
        total = total + tail_phase
        if with_slope:
            slope = slope + tail_slope
    if spec.atoms:
        # all atoms at once, rows of (atom, point); the running sums still
        # add the atoms one after another, as a loop over atoms would
        mass = np.array([a.mass for a in spec.atoms])[:, None]
        v = th.reshape(1, -1) - np.array([a.theta for a in spec.atoms])[:, None]
        total = _add_rows(total, atom_phase(mass, v))
        if with_slope:
            slope = _add_rows(slope, atom_phase_derivative(mass, v))
    if np.ndim(theta) == 0:
        total, slope = float(total), float(slope)
    return (total, slope) if with_slope else total


def phase_derivative(spec: InnerFunctionSpec, point: UnitPoint, policy: TruncationPolicy) -> float:
    """d/dtheta of the boundary phase at a regular point.  Always positive."""
    if spec.is_singular_angle(point.theta):
        raise SingularPointError(f"angle {point.theta} is in the spectrum")
    return phase_lift(spec, point.theta, policy, with_slope=True)[1]


def eval_inner(spec: InnerFunctionSpec, point: UnitPoint, policy: TruncationPolicy) -> complex:
    """Truncated boundary value of the inner function; |result| = 1 exactly."""
    if spec.is_singular_angle(point.theta):
        raise SingularPointError(f"angle {point.theta} is in the spectrum")
    return cmath.exp(1j * phase_lift(spec, point.theta, policy))


def poisson_arc_mass(zero: DiskZero, epsilon: float) -> float:
    """Harmonic measure of the arc (0, epsilon) seen from the zero.

    Closed form alpha/pi - epsilon/(2*pi) with alpha the angle of
    (exp(i*eps) - a) / (1 - a) normalized to [0, 2*pi).  A zero at the
    origin is fine here (alpha = epsilon).  The per-point quantity ignores
    multiplicity.
    """
    if not 0.0 < epsilon < TWO_PI:
        raise DomainError("epsilon must lie in (0, 2*pi)")
    a = zero.point
    w = (cmath.exp(1j * epsilon) - a) / (1.0 - a)
    alpha = math.atan2(w.imag, w.real)
    if alpha < 0.0:
        alpha += TWO_PI
    return alpha / math.pi - epsilon / TWO_PI


def frostman_transform(value: complex, a: complex) -> complex:
    """Disk automorphism (w - a) / (1 - conj(a) w) applied to a value."""
    if abs(a) >= 1.0:
        raise DomainError("transform parameter must lie in the open disk")
    return (value - a) / (1.0 - a.conjugate() * value)


def frostman_phase(phi, a: complex):
    """Lift of the transform at phase level: arg of transform(exp(i*phi)).

    Smooth, strictly increasing, commutes with +2*pi.  Applying it to a
    chart's phase array gives the chart of the transformed function.
    """
    if abs(a) >= 1.0:
        raise DomainError("transform parameter must lie in the open disk")
    rho = abs(a)
    beta = cmath.phase(a) if rho > 0.0 else 0.0
    p = np.asarray(phi, dtype=float)
    out = p + 2.0 * np.arctan2(rho * np.sin(p - beta), 1.0 - rho * np.cos(p - beta))
    if np.ndim(phi) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# truncation certificates


def _stolz_remainder(tail: StolzTail, lo: float, hi: float, start: int) -> float:
    """Bound for terms n >= start, all clustered at the anchor point."""
    delta1 = tail.c * tail.q ** start
    cluster = (1.0 + abs(tail.t)) * delta1
    anchor_gap = angular_gap(lo, hi, tail.anchor_theta)
    s = 2.0 * math.sin(anchor_gap / 2.0)
    if s <= 2.0 * cluster:
        return math.inf
    d = s - cluster
    if delta1 / d > _RATIO_CAP:
        return math.inf
    total_delta = delta1 / (1.0 - tail.q)
    return 2.0 * _ASIN_SLACK * total_delta / d


def _tangential_remainder(tail: TangentialTail, lo: float, hi: float, start_u: int) -> float:
    """Bound for terms with u >= start_u.  Two routes, best one wins.

    Route A: the arc stays at positive angular distance from the whole
    remaining zero zone.  Route B: the arc sits on the far side of the
    anchor, where each remaining zero is at least 1/u away in angle.
    """
    rho = tail.rho
    r_min = 1.0 - float(start_u) ** -rho
    best = math.inf

    zone_lo = tail.anchor_theta if tail.side == "upper" else tail.anchor_theta - 1.0 / start_u
    zone_hi = tail.anchor_theta + 1.0 / start_u if tail.side == "upper" else tail.anchor_theta
    zone_sep = min(
        angular_gap(lo, hi, zone_lo),
        angular_gap(lo, hi, zone_hi),
    )
    overlap = (
        angular_gap(zone_lo, zone_hi, lo) == 0.0
        or angular_gap(zone_lo, zone_hi, hi) == 0.0
        or angular_gap(lo, hi, zone_lo) == 0.0
        or angular_gap(lo, hi, zone_hi) == 0.0
    )
    if not overlap and zone_sep > 0.0:
        d_min = 2.0 * math.sqrt(r_min) * math.sin(zone_sep / 2.0)
        x_first = float(start_u) ** -rho / d_min
        if x_first <= _RATIO_CAP:
            sum_delta = float(start_u - 1) ** (1.0 - rho) / (rho - 1.0)
            best = 2.0 * _ASIN_SLACK * sum_delta / d_min

    # far-side route, valid even when the arc ends exactly at the anchor.
    # Requirement: walking from the anchor in the zone's direction, the
    # first arc endpoint is at distance >= 2/start_u (so every remaining
    # zero at offset 1/u keeps angular distance >= 1/u from the arc), and
    # the arc does not wrap through the anchor into the zone.
    if tail.side == "upper":
        d_first = (lo - tail.anchor_theta) % TWO_PI
        d_second = (hi - tail.anchor_theta) % TWO_PI
    else:
        d_first = (tail.anchor_theta - hi) % TWO_PI
        d_second = (tail.anchor_theta - lo) % TWO_PI
    far_side = (d_second == 0.0 or d_first <= d_second) and (
        d_first >= 2.0 / float(start_u)
    )
    # evaluating exactly at the anchor: every remaining zero is 1/u away
    if lo == hi and d_first == 0.0:
        far_side = True
    if far_side:
        x_first = (math.pi / 2.0) * float(start_u) ** (1.0 - rho) / math.sqrt(r_min)
        if x_first <= _RATIO_CAP:
            tail_sum = float(start_u - 1) ** (2.0 - rho) / (rho - 2.0)
            route_b = _ASIN_SLACK * math.pi * tail_sum / math.sqrt(r_min)
            best = min(best, route_b)

    return best


@functools.lru_cache(maxsize=32)
def _lookahead_terms(tail: TailFamily, first: int) -> tuple[np.ndarray, ...]:
    """delta_n, phi_n, delta_n * delta_n and 4 * (1 - delta_n) of the
    _CERT_LOOKAHEAD terms from n = first on, with (delta_n, phi_n) exactly
    tail.term(n); read-only arrays."""
    delta, phi = np.array(
        [tail.term(n) for n in range(first, first + _CERT_LOOKAHEAD)]
    ).T.copy()
    out = (delta, phi, delta * delta, 4.0 * (1.0 - delta))
    for a in out:
        a.setflags(write=False)
    return out


# exponents for map(math.pow, ...) over one tail's lookahead terms
_TWOS = (2.0,) * _CERT_LOOKAHEAD

# asin(x) of the C library is x itself below 2**-26 (glibc, musl).
_ASIN_IDENTITY = 2.0 ** -26


def _libm_asin(x: np.ndarray) -> np.ndarray:
    """math.asin of every element, bitwise; numpy's arcsin may round
    differently, so the elements it is not the identity on go through math."""
    out = x.copy()
    big = x >= _ASIN_IDENTITY
    if big.any():
        out[big] = list(map(math.asin, x[big].tolist()))
    return out


def truncation_error_bound(spec: InnerFunctionSpec, arc: tuple[float, float], n_terms: int) -> float:
    """Sup bound on the phase error of the n_terms truncation over the arc.

    The first _CERT_LOOKAHEAD omitted terms of each tail are bounded one by
    one through the chord distance (per-factor phase error is at most
    2*asin(min(1, delta/d))); the infinite rest via a closed form.  Returns
    inf when an omitted zero's angle touches the arc, since the omitted
    factor's phase branch then jumps inside the arc and no uniform bound
    exists there.  Degenerate arcs (lo == hi) bound the error at one point.

    The lookahead terms are evaluated as arrays, rounded as the scalar
    angular_gap, math.sin, pow and math.asin round, and added strictly left
    to right, tail after tail, so the bound is bitwise the sum that a loop
    over the terms gives.
    """
    lo, hi = float(arc[0]), float(arc[1])
    if hi < lo or hi - lo > TWO_PI + 1e-12:
        raise DomainError("arc must satisfy lo <= hi <= lo + 2*pi")
    # most calls from the margin-retreat loops end here, on an arc that
    # still holds the first omitted zero of some tail
    if any(angular_gap(lo, hi, tail.term(n_terms + 1)[1]) <= 0.0 for tail in spec.tails):
        return math.inf
    span = hi - lo
    total = 0.0
    for tail in spec.tails:
        delta, phi, delta_sq, four_r = _lookahead_terms(tail, n_terms + 1)
        # angular_gap(lo, hi, phi) of every term
        x = np.mod(phi - lo, TWO_PI)
        gap = np.where(x <= span, 0.0, np.minimum(x - span, TWO_PI - x))
        if np.any(gap <= 0.0):
            return math.inf
        # chord from each zero (1 - delta) exp(i phi) to the arc: the
        # square is pow(s, 2), as s ** 2 is in Python, which may round
        # differently from s * s
        s2 = np.array(list(map(math.pow, np.sin(gap / 2.0).tolist(), _TWOS)))
        ratio = delta / np.sqrt(delta_sq + four_r * s2)
        if np.any(ratio >= 1.0):
            return math.inf
        terms = np.concatenate(([total], 2.0 * _libm_asin(ratio)))
        total = float(np.add.accumulate(terms, out=terms)[-1])
        if isinstance(tail, StolzTail):
            rem = _stolz_remainder(tail, lo, hi, n_terms + _CERT_LOOKAHEAD + 1)
        else:
            rem = _tangential_remainder(
                tail, lo, hi, n_terms + _CERT_LOOKAHEAD + tail.first_u
            )
        if not math.isfinite(rem):
            return math.inf
        total += rem
    return total


# ---------------------------------------------------------------------------
# phase charts


@dataclass(frozen=True)
class PhaseChart:
    """Monotone sampled phase lift on one arc, with a certified inverse.

    thetas/phases are the adaptive grid (increments < pi/2); the effective
    sub-arc [thetas[0], thetas[-1]] is where the truncation certificate
    holds and the window budget allowed sampling.  For a spectrum-free spec
    the chart is periodic: the lift extends by the exact winding.
    """

    spec: InnerFunctionSpec
    policy: TruncationPolicy
    arc: tuple[float, float]
    thetas: np.ndarray
    phases: np.ndarray
    cert_bound: float
    lo_accumulating: bool
    hi_accumulating: bool
    periodic: bool = False
    winding: float = 0.0

    @property
    def phase_lo(self) -> float:
        return float(self.phases[0])

    @property
    def phase_hi(self) -> float:
        return float(self.phases[-1])

    @property
    def midpoint_phase(self) -> float:
        mid = 0.5 * (self.arc[0] + self.arc[1])
        return phase_lift(self.spec, mid, self.policy)

    def phase_of(self, theta):
        """The same global lift the grid was sampled from."""
        return phase_lift(self.spec, theta, self.policy)

    def covers_phase(self, target: float) -> bool:
        if self.periodic:
            return True
        return self.phase_lo <= target <= self.phase_hi

    def invert_lift(self, target: float) -> float:
        """Angle (as a real lift, not canonicalized) with phase = target."""
        return float(self.invert_lift_many(np.asarray([target]))[0])

    def invert_lift_many(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized monotone inversion by safeguarded Newton iteration.

        Each target starts at the linear interpolation between its two
        bracketing chart nodes.  An iteration evaluates the phase and its
        slope once, shrinks the bracket by the sign of the residual, and
        takes the Newton step, or the bracket midpoint when that step would
        not land strictly inside the bracket; so every answer stays inside
        its node bracket.  A target stops when its residual is exactly zero,
        its step is at most 2 ulp, or its bracket is below 1e-15 radians.
        """
        t = np.asarray(targets, dtype=float)
        shape = t.shape
        t = t.reshape(-1)
        shift = np.zeros_like(t)
        if self.periodic:
            k = np.floor((t - self.phase_lo) / self.winding)
            t = t - k * self.winding
            shift = k * TWO_PI
            t = np.clip(t, self.phase_lo, self.phases[-1])
        else:
            if np.any(t < self.phase_lo - 1e-12) or np.any(t > self.phase_hi + 1e-12):
                raise PhaseRangeError(
                    f"target outside covered phase range [{self.phase_lo}, {self.phase_hi}]"
                )
            t = np.clip(t, self.phase_lo, self.phase_hi)
        idx = np.searchsorted(self.phases, t, side="right")
        idx = np.clip(idx, 1, len(self.phases) - 1)
        lo = self.thetas[idx - 1].copy()
        hi = self.thetas[idx].copy()
        p_lo = self.phases[idx - 1]
        x = lo + (t - p_lo) / (self.phases[idx] - p_lo) * (hi - lo)
        x = np.clip(x, lo, hi)
        active = np.arange(t.size)
        for _ in range(80):
            if active.size == 0:
                break
            xa, ta = x[active], t[active]
            phase, slope = phase_lift(self.spec, xa, self.policy, with_slope=True)
            resid = phase - ta
            la = np.where(resid < 0.0, xa, lo[active])
            ha = np.where(resid > 0.0, xa, hi[active])
            lo[active], hi[active] = la, ha
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = xa - resid / slope
            # a step of at most 2 ulp has converged; any other step must land
            # strictly inside the bracket, whose ends are already evaluated
            tiny = np.abs(newton - xa) <= 2.0 * np.spacing(np.abs(xa))
            inside = (newton > la) & (newton < ha)
            xn = np.where(inside, newton, 0.5 * (la + ha))
            xn = np.where(tiny, np.clip(newton, la, ha), xn)
            x[active] = np.where(resid == 0.0, xa, xn)
            done = (resid == 0.0) | tiny | (ha - la < 1e-15)
            active = active[~done]
        return (x + shift).reshape(shape)


def phase_inverse(chart: PhaseChart, target_phase: float) -> UnitPoint:
    """Angle on the chart's arc whose phase equals target_phase."""
    return UnitPoint(chart.invert_lift(target_phase))


def _march(spec, policy, start_theta, start_phase, bound_theta, budget_phase, direction):
    """Adaptive walk from the midpoint toward one end of the arc.

    Steps keep successive phase increments below pi/2, growing gently and
    halving on overshoot.  Stops either at bound_theta (a node is placed
    exactly there) or where the phase budget is consumed (the crossing is
    bisected onto the budget).  Returns nodes excluding the start point.
    """
    span = abs(bound_theta - start_theta)
    if span == 0.0:
        return [], []
    max_inc = 0.45 * math.pi
    thetas, phases = [], []
    theta, phi = start_theta, start_phase
    step = span / 64.0
    limit_phase = start_phase + direction * budget_phase
    while True:
        remaining = (bound_theta - theta) * direction
        if remaining <= 0.0:
            break
        h = min(step, remaining)
        cand = theta + direction * h
        if remaining <= step:
            cand = bound_theta
        phi_cand = phase_lift(spec, cand, policy)
        if abs(phi_cand - phi) >= max_inc and abs(cand - theta) > 1e-15:
            step = abs(cand - theta) / 2.0
            if step < 1e-16 * max(1.0, span):
                raise TruncationError("phase step underflow while sampling arc")
            continue
        if (phi_cand - limit_phase) * direction > 0.0:
            # budget crossed: bisect the crossing onto the limit exactly
            a, b = theta, cand
            for _ in range(200):
                m = 0.5 * (a + b)
                if (phase_lift(spec, m, policy) - limit_phase) * direction > 0.0:
                    b = m
                else:
                    a = m
                if abs(b - a) < 1e-15:
                    break
            edge = 0.5 * (a + b)
            edge_phase = phase_lift(spec, edge, policy)
            if abs(edge - theta) > 1e-15:
                thetas.append(edge)
                phases.append(edge_phase)
            break
        thetas.append(cand)
        phases.append(phi_cand)
        theta, phi = cand, phi_cand
        step = min(step * 1.7, span / 8.0)
        if cand == bound_theta:
            break
    return thetas, phases


def build_phase_chart(
    spec: InnerFunctionSpec,
    arc: tuple[float, float],
    policy: TruncationPolicy,
    phase_window: float = DEFAULT_PHASE_WINDOW,
) -> PhaseChart:
    """Sample the phase lift on an arc into a monotone, certified chart.

    The arc may not contain spectrum points in its interior; its endpoints
    may be singular.  On sides that accumulate solutions the grid is clipped
    at midpoint phase +- phase_window; elsewhere the endpoint itself gets a
    node.  The effective arc additionally retreats from tail anchors until
    the truncation certificate clears phase_tol.
    """
    lo, hi = float(arc[0]), float(arc[1])
    if not phase_window > 0.0:
        raise DomainError("phase window must be positive")
    if not lo < hi or hi - lo > TWO_PI + 1e-9:
        raise InvalidArcError("arc must satisfy lo < hi <= lo + 2*pi")
    span = hi - lo
    for s in spec.singular_angles:
        x = (s - lo) % TWO_PI
        if 1e-12 < x < span - 1e-12:
            raise InvalidArcError(f"arc interior contains the singularity at {s}")

    full_circle = not spec.singular_angles and span >= TWO_PI - 1e-12
    if full_circle and spec.finite_degree == 0:
        raise InvalidArcError("constant inner function has no phase chart")

    lo_acc = spec.accumulates_into(lo, +1) if spec.is_singular_angle(lo) else False
    hi_acc = spec.accumulates_into(hi, -1) if spec.is_singular_angle(hi) else False

    # retreat from tail anchors until the certificate clears the policy
    lo_eff, hi_eff = lo, hi
    cert = truncation_error_bound(spec, (lo_eff, hi_eff), policy.tail_terms)
    margin = span * 1e-6
    while cert > policy.phase_tol:
        if margin > 0.4 * span:
            raise TruncationError(
                f"truncation bound {cert} exceeds phase_tol {policy.phase_tol} on the arc"
            )
        if lo_acc:
            lo_eff = lo + margin
        if hi_acc:
            hi_eff = hi - margin
        if not (lo_acc or hi_acc):
            raise TruncationError(
                f"truncation bound {cert} exceeds phase_tol {policy.phase_tol} on the arc"
            )
        cert = truncation_error_bound(spec, (lo_eff, hi_eff), policy.tail_terms)
        margin *= 2.0

    mid = 0.5 * (lo + hi)
    mid_phase = phase_lift(spec, mid, policy)

    up_t, up_p = _march(
        spec, policy, mid, mid_phase, hi_eff,
        phase_window if hi_acc else math.inf, +1,
    )
    dn_t, dn_p = _march(
        spec, policy, mid, mid_phase, lo_eff,
        phase_window if lo_acc else math.inf, -1,
    )
    raw_t = list(reversed(dn_t)) + [mid] + up_t
    raw_p = list(reversed(dn_p)) + [mid_phase] + up_p
    # drop float ties that a clipped edge node can produce
    kept_t, kept_p = [raw_t[0]], [raw_p[0]]
    for t_i, p_i in zip(raw_t[1:], raw_p[1:]):
        if t_i > kept_t[-1] and p_i > kept_p[-1]:
            kept_t.append(t_i)
            kept_p.append(p_i)
    thetas = np.asarray(kept_t, dtype=float)
    phases = np.asarray(kept_p, dtype=float)
    if len(thetas) < 2:
        raise TruncationError("sampled phase failed to be strictly increasing")

    winding = 0.0
    if full_circle:
        winding = TWO_PI * spec.finite_degree
        # pin the top node so periodic reduction is exact
        phases = phases.copy()
        phases[-1] = phases[0] + winding

    return PhaseChart(
        spec=spec,
        policy=policy,
        arc=(lo, hi),
        thetas=thetas,
        phases=phases,
        cert_bound=cert,
        lo_accumulating=lo_acc,
        hi_accumulating=hi_acc,
        periodic=full_circle,
        winding=winding,
    )


_TERMS_CAP = 1 << 21


def certifiable_terms(
    spec: InnerFunctionSpec,
    arc: tuple[float, float],
    policy: TruncationPolicy,
) -> int:
    """Smallest doubling of policy.tail_terms whose certificate clears tol.

    Tangential certificates decay only polynomially in the term count, so a
    fixed default may be far too small even on arcs that are nowhere near
    the accumulating zeros.  The probe mimics the chart builder's margin
    retreat for the accumulating sides, so the answer matches what a chart
    build at that term count would certify.
    """
    lo, hi = float(arc[0]), float(arc[1])
    lo_acc = spec.accumulates_into(lo, +1) if spec.is_singular_angle(lo) else False
    hi_acc = spec.accumulates_into(hi, -1) if spec.is_singular_angle(hi) else False
    span = hi - lo
    n = policy.tail_terms
    while n <= _TERMS_CAP:
        margin = span * 1e-6
        lo_eff, hi_eff = lo, hi
        while margin <= 0.4 * span:
            if truncation_error_bound(spec, (lo_eff, hi_eff), n) <= policy.phase_tol:
                return n
            if not (lo_acc or hi_acc):
                break
            if lo_acc:
                lo_eff = lo + margin
            if hi_acc:
                hi_eff = hi - margin
            margin *= 2.0
        n *= 2
    raise TruncationError(
        f"no term count up to {_TERMS_CAP} certifies phase_tol {policy.phase_tol} on the arc"
    )


def build_chart_auto(
    spec: InnerFunctionSpec,
    arc: tuple[float, float],
    policy: TruncationPolicy,
    phase_window: float = DEFAULT_PHASE_WINDOW,
) -> PhaseChart:
    """build_phase_chart, escalating tail_terms until the certificate holds.

    The returned chart's policy records the term count actually used; the
    phase tolerance is never loosened.
    """
    n = certifiable_terms(spec, arc, policy)
    eff = TruncationPolicy(tail_terms=n, phase_tol=policy.phase_tol)
    return build_phase_chart(spec, arc, eff, phase_window)
