"""Pedal-type curve constructions for an ellipse and their feature detectors.

Every family here is a map t -> point in the plane built from the base
ellipse P(t) = (a cos t, b sin t) and a fixed pole M:

* pedal: foot of the perpendicular from M onto the tangent line at P(t)
* contrapedal: same with the normal line
* rotated pedal: the projection line direction is the tangent turned by theta
* interpolated pedal: affine blend of pedal and contrapedal feet
* negative pedal: envelope of lines through P(t) perpendicular to P(t) - M
* hybrid: intersection of the perpendicular to the tangent direction drawn
  through M with the perpendicular to M - P(t) drawn through P(t)
* pseudo-Talbot: a cubic-harmonic curve defined for poles on the ellipse,
  traversed so that its signed area carries the orientation of the
  supporting line family
* evolutoid: envelope of lines crossing the curve at a fixed angle to the
  tangent (angle 0 gives the curve back, pi/2 the evolute)

Point evaluators are vectorized over t and complex-safe, so the cusp finder
can differentiate them by complex step.  Every ellipse family with a pole M
is evaluated in two steps: a frame builder does the work that depends on
the parameters alone and returns points(m, s), the points for the pole m
whose boundary parameter is s, so a scan can share one frame among all the
poles of a grid.  points() also takes a chunk of k poles as a pair of
(k, 1) coordinate arrays (see curves.pole_xy) with a (k, 1) array s, and
then returns one curve per pole.  The frames are called through the
registry, areas.FAMILIES, and harness.family_evaluator:

* pedal, contrapedal, rotated and interpolated: a FootFrame holds P(t), the
  line directions and their squared lengths, and its points drop the feet
  from the pole (s is not read);
* pseudo-Talbot is affine in (cos s, sin s) of its pole P(s), so its frame
  holds three columns per coordinate (m is not read);
* hybrid and negative pedal are singular at the pole's own parameter s,
  so their frames run in tau = t - s and hold the harmonics of tau, which
  the points for a pole turn by s with angle addition; at s = 0 the turn
  is exact, so a frame built at t and called with s = 0 gives the points
  at t.

The evolutoid has no pole and no frame: evolutoid_point evaluates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .curves import (
    Ellipse,
    SampledCurve,
    SupportCurve,
    as_xy,
    ellipse_point,
    ellipse_velocity,
    pole_xy,
)
from .errors import (
    DegenerateLine,
    DomainError,
    GeometryError,
    SingularFamily,
    SingularParameter,
)
from .tolerances import PARALLEL_TOL, TANGENT_TOL

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# perpendicular feet


def _param_at(t, mask) -> float:
    """Real part of the parameter at the first true entry of mask."""
    return float(np.real(np.broadcast_to(t, np.shape(mask)).flat[np.argmax(mask)]))


class FootFrame:
    """The pole-free part of a Steiner-family evaluator at parameters t.

    FootFrame(p, d) holds P(t) and the direction d of the line through each
    point; a blend FootFrame(p, d, d2, mu) also holds a second direction d2
    and its weight mu on it.  None of it depends on the pole, so a scan
    whose grid stays put builds one frame per grid size and calls it for
    every chunk of poles.  The frame keeps all a foot needs before it reads
    the pole: contiguous x and y columns of p and of each direction, and
    each direction's squared length, checked here once (a direction that
    vanishes raises DegenerateLine).
    """

    def __init__(self, p, d, d2=None, mu: float = 0.0):
        p = np.asarray(p)
        self.px, self.py = p[..., 0].copy(), p[..., 1].copy()
        self.mu = mu
        # (dx, dy, dx**2 + dy**2) of d, then of d2
        self.lines = []
        for v in (d,) if d2 is None else (d, d2):
            v = np.asarray(v)
            dx, dy = v[..., 0].copy(), v[..., 1].copy()
            dd = dx ** 2 + dy ** 2
            if np.min(np.abs(dd)) < 1e-24:
                raise DegenerateLine("line direction vanishes")
            self.lines.append((dx, dy, dd))

    def _foot(self, x0, y0, line):
        """Foot of the perpendicular from (x0, y0) onto the line p + u d:
        u = ((m - p) . d) / (d . d).  The coordinates are written into a
        (2, ..., n) buffer of coordinate planes, and the (..., n, 2) view of
        it is returned, so the quadrature reads each plane contiguously."""
        dx, dy, dd = line
        u = ((x0 - self.px) * dx + (y0 - self.py) * dy) / dd
        planes = np.empty((2,) + np.shape(u), dtype=u.dtype)
        np.add(self.px, u * dx, out=planes[0, ...])
        np.add(self.py, u * dy, out=planes[1, ...])
        return np.moveaxis(planes, 0, -1)

    def __call__(self, m, s=0.0):
        """Feet of the perpendiculars from m (a pole, or a chunk of poles as
        (k, 1) coordinate arrays), blended as (1 - mu) * foot on d +
        mu * foot on d2 when the frame has a second line.  s, the pole's
        boundary parameter, is not read: a foot depends on m alone."""
        x0, y0 = pole_xy(m)
        foot = self._foot(x0, y0, self.lines[0])
        if len(self.lines) == 1:
            return foot
        return (1.0 - self.mu) * foot + self.mu * self._foot(x0, y0, self.lines[1])


def _normal(v):
    """v turned a quarter turn counterclockwise."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def pedal_frame(e: Ellipse, t) -> FootFrame:
    """Tangent lines at P(t)."""
    return FootFrame(ellipse_point(e, t), ellipse_velocity(e, t))


def contrapedal_frame(e: Ellipse, t) -> FootFrame:
    """Normal lines at P(t)."""
    return FootFrame(ellipse_point(e, t), _normal(ellipse_velocity(e, t)))


def rotated_frame(e: Ellipse, t, theta: float) -> FootFrame:
    """Lines through P(t) along the tangent turned by theta."""
    v = ellipse_velocity(e, t)
    ct, st = math.cos(theta), math.sin(theta)
    d = np.stack([ct * v[..., 0] - st * v[..., 1],
                  st * v[..., 0] + ct * v[..., 1]], axis=-1)
    return FootFrame(ellipse_point(e, t), d)


def interpolated_frame(e: Ellipse, t, mu: float) -> FootFrame:
    """Tangent and normal lines at P(t), blended with weight mu on the normal."""
    v = ellipse_velocity(e, t)
    return FootFrame(ellipse_point(e, t), v, _normal(v), mu)


def support_pedal_point(s: SupportCurve, t, m):
    """Pedal of a support-function curve: foot from m onto the tangent with normal angle t."""
    x0, y0 = as_xy(m)
    t = np.asarray(t)
    h = s.h(t)
    ct, st = np.cos(t), np.sin(t)
    return np.stack([x0 * st ** 2 + (h - y0 * st) * ct,
                     (h - x0 * ct) * st + y0 * ct ** 2], axis=-1)


def support_contrapedal_point(s: SupportCurve, t, m):
    """Contrapedal of a support-function curve: foot from m onto the normal line."""
    x0, y0 = as_xy(m)
    t = np.asarray(t)
    dh = s.dh(t)
    ct, st = np.cos(t), np.sin(t)
    return np.stack([x0 * ct ** 2 + y0 * ct * st - dh * st,
                     y0 * st ** 2 + x0 * ct * st + dh * ct], axis=-1)


# ---------------------------------------------------------------------------
# envelopes of line families


def _envelope_solve(t, nx, ny, mx, my, d, dd):
    """Solve n . X = d, n' . X = d' for X, with n = (nx, ny), n' = (mx, my).

    Raises SingularFamily, naming the first parameter of t where the two
    lines are parallel.
    """
    # as arrays, never numpy scalars: scalar arithmetic can round a complex
    # product differently from the array loops, and complex-step callers pass
    # a scalar t
    nx, ny, mx, my, d, dd = (np.asarray(v) for v in (nx, ny, mx, my, d, dd))
    det = nx * my - ny * mx
    scale2 = nx * nx + ny * ny + mx * mx + my * my
    bad = np.abs(det) < PARALLEL_TOL * np.abs(scale2)
    if np.any(bad):
        t_bad = _param_at(t, bad)
        raise SingularFamily(
            f"envelope is singular near t={t_bad:.6g} (parallel line pencil)", t=t_bad)
    x = (d * my - dd * ny) / det
    y = (nx * dd - mx * d) / det
    return np.stack([x, y], axis=-1)


def _turned(c, sn, angle):
    """cos and sin of tau + angle from c = cos tau and sn = sin tau, by angle
    addition.  At angle 0 they are c and s, bit for bit."""
    ca, sa = np.cos(angle), np.sin(angle)
    return c * ca - sn * sa, sn * ca + c * sa


def negative_pedal_frame(e: Ellipse, tau) -> Callable:
    """The negative pedal of a pole at the ellipse parameter s, sampled at
    tau = t - s.

    Returns points(m, s), the envelope points of the lines through P(s + tau)
    perpendicular to P(s + tau) - m.  The frame holds cos tau and sin tau;
    points() turns them by s and solves each line n . X = d together with
    its t-derivative, for n = P(t) - m and d = n . P(t).  A chunk of poles
    takes (k, 1) arrays m and s.  SingularFamily names the parameter s + tau.
    """
    tau = np.asarray(tau)
    ct, st = np.cos(tau), np.sin(tau)

    def points(m, s):
        x0, y0 = pole_xy(m)
        c, sn = _turned(ct, st, s)
        # P(t) and P'(t) as arrays, as ellipse_point and ellipse_velocity
        # give them: a scalar tau must not switch the rest to scalar arithmetic
        px, py = np.asarray(e.a * c), np.asarray(e.b * sn)
        vx, vy = np.asarray(-e.a * sn), np.asarray(e.b * c)
        # each (k, n) array is dropped once used, so a chunk's peak memory
        # stays near that of the solve
        del c, sn
        nx, ny = px - x0, py - y0
        d = nx * px + ny * py
        dd = vx * (2 * px - x0) + vy * (2 * py - y0)
        del px, py
        return _envelope_solve(s + tau, nx, ny, vx, vy, d, dd)

    return points


# ---------------------------------------------------------------------------
# hybrid curve


def hybrid_frame(e: Ellipse, tau) -> Callable:
    """The hybrid curve of a pole at the ellipse parameter s, sampled at
    tau = t - s.

    Returns points(m, s): the intersections of the perpendicular to the
    tangent direction at P(s + tau) drawn through m with the perpendicular
    to m - P(s + tau) drawn through P(s + tau).  The frame holds cos j tau
    and sin j tau for j = 1, 2, 3; points() turns them by s and goes on with
    the harmonics of t.  A chunk of poles takes (k, 1) arrays m and s.  The
    point blows up where m sits on the tangent line at P(t), which for m on
    the ellipse happens only at t = s; SingularParameter names s + tau.
    """
    tau = np.asarray(tau)
    harmonics = [(np.cos(tau), np.sin(tau)), (np.cos(2 * tau), np.sin(2 * tau)),
                 (np.cos(3 * tau), np.sin(3 * tau))]

    def points(m, s):
        a, b = e.a, e.b
        x0, y0 = pole_xy(m)
        c2 = e.c2
        (ct, st), (c2t, s2t), (c3t, s3t) = (
            _turned(c, sn, j * s) for j, (c, sn) in enumerate(harmonics, 1))
        den = 4.0 * (a * y0 * st + b * x0 * ct - a * b)
        small = np.abs(den) <= TANGENT_TOL * 4.0 * a * b
        if np.any(small):
            t_bad = _param_at(s + tau, small)
            raise SingularParameter(
                f"hybrid point undefined near t={t_bad:.6g} (pole on the tangent line)",
                t=t_bad)
        nx = (-b * (3 * a * a + b * b + 4 * y0 * y0) * ct + 4 * a * b * x0 * c2t
              - b * c2 * c3t + 4 * a * x0 * y0 * st + 4 * b * b * y0 * s2t)
        ny = (-a * (a * a + 3 * b * b + 4 * x0 * x0) * st + 4 * a * a * x0 * s2t
              - a * c2 * s3t + 4 * b * x0 * y0 * ct - 4 * a * b * y0 * c2t)
        del ct, st, c2t, s2t, c3t, s3t  # before the division makes two more (k, n) arrays
        return np.stack([nx / den, ny / den], axis=-1)

    return points


# ---------------------------------------------------------------------------
# pseudo-Talbot curve


def pseudo_talbot_frame(e: Ellipse, u) -> Callable:
    """The pseudo-Talbot curve at the traversal parameters u, for any pole.

    The curve is the cubic-harmonic companion of the hybrid curve for a
    pole on the ellipse.  Returns points(m, s) for the pole P(s); m is not
    read.  The traversal parameter u runs the curve so that its signed area
    matches the orientation of the supporting line family, which is
    opposite to the raw harmonic angle; internally the formula is evaluated
    at angle -u.  The curve is affine in (cos s, sin s): each coordinate is
    F0(u) + cos s Fc(u) + sin s Fs(u), and the frame holds the three columns
    of each.  A (k, 1) array s stands for k poles.
    """
    a, b = e.a, e.b
    a2, b2 = a * a, b * b
    a4, b4 = a2 * a2, b2 * b2
    c4 = e.c2 * e.c2
    t = -np.asarray(u)
    ct, st = np.cos(t), np.sin(t)
    ct2 = ct * ct
    kx = 2 * ct2 * ct2 - 3 * ct2
    ky = 2 * ct2 * ct2 - ct2
    # (F0, Fc, Fs) of x, then of y
    fx = [ct * (a2 + b2) * (-a2 * st ** 2 - b2 * ct2 + 2 * b2) / (a * b2),
          -((kx + 1) * a4 - 2 * (kx + 1) * a2 * b2 + kx * b4) / (a * b2),
          -2 * c4 * st ** 3 * ct / (a * b2)]
    fy = [st * (a2 + b2) * ((a2 - b2) * ct2 + a2) / (a2 * b),
          -2 * c4 * st * ct ** 3 / (a2 * b),
          -((ky - 1) * a4 - 2 * ky * a2 * b2 + ky * b4) / (a2 * b)]

    def points(m, s):
        cs, ss = np.cos(s), np.sin(s)
        return np.stack([fx[0] + cs * fx[1] + ss * fx[2],
                         fy[0] + cs * fy[1] + ss * fy[2]], axis=-1)

    return points


# ---------------------------------------------------------------------------
# evolutoids


def evolutoid_point(e: Ellipse, theta: float, t):
    """Envelope point of lines meeting the ellipse at angle theta to the tangent.

    theta = 0 returns P(t); theta = pi/2 returns the evolute point.
    """
    a, b = e.a, e.b
    c2 = e.c2
    cth, sth = math.cos(theta), math.sin(theta)
    t = np.asarray(t)
    ct, st = np.cos(t), np.sin(t)
    x = (a * cth * cth * ct + c2 * sth * sth * ct ** 3 / a
         - st * sth * cth * (b * b * ct * ct + a * a * st * st) / b)
    y = (a * sth * cth * ct
         - c2 * sth * ct * ct * (b * ct * cth - a * sth * st) / (a * b)
         + st * (b * b * cth * cth - c2 * sth * sth) / b)
    return np.stack([x, y], axis=-1)


def evolutoid_support(s: SupportCurve, theta: float) -> SupportCurve:
    """Evolutoid of a support-function curve, again as a support curve.

    h_theta(t) = h(t - theta) cos theta + h'(t - theta) sin theta.  The third
    derivative of h is not part of the SupportCurve contract, so the second
    derivative of h_theta falls back to a fourth-order central difference of
    s.d2h (step ~7.4e-4 balances truncation against roundoff).
    """
    cth, sth = math.cos(theta), math.sin(theta)
    fd_step = 7.4e-4

    def h(t):
        u = np.asarray(t) - theta
        return s.h(u) * cth + s.dh(u) * sth

    def dh(t):
        u = np.asarray(t) - theta
        return s.dh(u) * cth + s.d2h(u) * sth

    def d2h(t):
        u = np.asarray(t) - theta
        d3 = (-s.d2h(u + 2 * fd_step) + 8 * s.d2h(u + fd_step)
              - 8 * s.d2h(u - fd_step) + s.d2h(u - 2 * fd_step)) / (12 * fd_step)
        return s.d2h(u) * cth + d3 * sth

    return SupportCurve(h=h, dh=dh, d2h=d2h)


# ---------------------------------------------------------------------------
# feature detectors


_CS_STEP = 1e-200


def _velocity_of(evaluator: Callable, t: float) -> np.ndarray:
    """Derivative of a point evaluator: complex step when the evaluator
    supports it, otherwise central differences."""
    try:
        p = np.asarray(evaluator(t + 1j * _CS_STEP))
        if not np.iscomplexobj(p):
            raise TypeError("evaluator discarded the imaginary part")
        return np.asarray(p.imag, dtype=float).reshape(2) / _CS_STEP
    except Exception:
        dt = 1e-7
        lo = np.asarray(evaluator(t - dt), dtype=float).reshape(2)
        hi = np.asarray(evaluator(t + dt), dtype=float).reshape(2)
        return (hi - lo) / (2 * dt)


def _speed_of(evaluator: Callable, t: float) -> float:
    v = _velocity_of(evaluator, t)
    return float(math.hypot(v[0], v[1]))


def _chord_speed(evaluator: Callable, t: float, delta: float = 1e-3) -> float:
    """Secant slope |P(t+delta) - P(t-delta)| / (2 delta).

    A robust stand-in for the speed: envelope evaluators lose their velocity
    to rounding noise near a singular family parameter while their positions
    stay clean, and a cusp pulls the two chord endpoints together anyway.
    The chord is kept coarse so the position noise stays far below it; a
    probe landing on the singular parameter itself counts as fast.
    """
    try:
        lo = np.asarray(evaluator(t - delta), dtype=float).reshape(2)
        hi = np.asarray(evaluator(t + delta), dtype=float).reshape(2)
    except GeometryError:
        return math.inf
    return float(math.hypot(hi[0] - lo[0], hi[1] - lo[1])) / (2 * delta)


def _golden_min(f: Callable, lo: float, hi: float, xtol: float = 1e-10) -> float:
    """Golden-section minimizer; assumes a single interior minimum."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _require_finite(curve: SampledCurve, what: str) -> None:
    if not np.all(np.isfinite(curve.points)):
        raise DomainError(f"{what} needs finite sample points")


def find_cusps(curve: SampledCurve, tol: float = 1e-5) -> np.ndarray:
    """Parameters (mod 2*pi) where the curve has a cusp.

    Grid speeds flag candidate minima; each is refined by golden section on
    the true parametric speed and accepted when the refined speed drops
    below tol times the median grid speed *and* the velocity direction
    reverses across the point.  Both conditions together reject smooth slow
    spots and grazing near-cusps.  An outright velocity zero (refined speed
    below 1e-13 of the median) counts regardless of reversal: there the
    velocity vanishes to even order, as at the parameter where a pair of
    cusps is born, and its direction comes back unflipped.
    """
    n = len(curve)
    if n < 8:
        raise DomainError("cusp detection needs at least 8 samples")
    _require_finite(curve, "cusp detection")
    t = curve.params
    pts = curve.points
    step = t[1] - t[0]
    diff = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    speed = np.hypot(diff[:, 0], diff[:, 1]) / (2 * step)
    ref = float(np.median(speed))
    if ref <= 0:
        raise DomainError("degenerate curve: median speed is zero")

    prev = np.roll(speed, 1)
    nxt = np.roll(speed, -1)
    candidates = np.nonzero((speed < prev) & (speed <= nxt))[0]

    ev = curve.evaluator
    found: List[float] = []
    for k in candidates:
        lo, hi = t[k] - step, t[k] + step
        if ev is not None:
            tr = _golden_min(lambda x: _speed_of(ev, x), lo, hi)
            s_min = _speed_of(ev, tr)
        else:
            tr = float(t[k])
            s_min = float(speed[k])
        if s_min >= tol * ref:
            if ev is None:
                continue
            # retry on chord speeds: a cusp sitting where the evaluator is
            # nearly singular shows a noisy velocity but clean positions
            tr = _golden_min(lambda x: _chord_speed(ev, x), lo, hi)
            if _chord_speed(ev, tr) >= tol * ref:
                continue
            u = (np.asarray(ev(tr - 1e-3), dtype=float).reshape(2)
                 - np.asarray(ev(tr - 2e-3), dtype=float).reshape(2))
            w = (np.asarray(ev(tr + 2e-3), dtype=float).reshape(2)
                 - np.asarray(ev(tr + 1e-3), dtype=float).reshape(2))
            if float(u @ w) >= 0.0:
                continue
            found.append(tr % TWO_PI)
            continue
        if s_min >= 1e-13 * ref:
            if ev is not None:
                va = _velocity_of(ev, tr - 1e-4)
                vb = _velocity_of(ev, tr + 1e-4)
            else:
                va = (pts[k] - pts[k - 1]) / step
                vb = (pts[(k + 1) % n] - pts[k]) / step
            if float(va @ vb) >= 0.0:
                continue
        found.append(tr % TWO_PI)

    if not found:
        return np.empty(0)
    found.sort()
    merged = [found[0]]
    for x in found[1:]:
        if x - merged[-1] > 1e-7:
            merged.append(x)
    if len(merged) > 1 and (merged[0] + TWO_PI) - merged[-1] <= 1e-7:
        merged.pop()
    return np.asarray(merged)


# ---------------------------------------------------------------------------
# self intersections


@dataclass
class Crossing:
    """A transversal self-intersection: the point and the two parameters."""

    point: np.ndarray
    t1: float
    t2: float


def _segment_hits(a1, d1, a2, d2):
    """Intersection fractions of segment bundles a + s d, half-open in [0, 1)."""
    den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    r = a2 - a1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / den
        u = (r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]) / den
    ok = (np.abs(den) > 1e-14) & (s >= 0) & (s < 1) & (u >= 0) & (u < 1)
    return ok, s, u


def _candidate_hits(a, d, order, first, k0: int, k1: int):
    """Hits among the sweep's candidate pairs k0 .. k1-1, as (i, j, s, u) with i < j.

    Candidate k pairs the segments at sorted positions p and p + 1 + k -
    first[p], where first[p] <= k < first[p + 1].  Adjacent pairs and the
    wrap pair are dropped before the exact test.
    """
    # each index array is dropped once used, so a full chunk's peak memory
    # stays near that of the coordinate arrays of its pairs
    k = np.arange(k0, k1)
    p = np.searchsorted(first, k, side="right") - 1
    u, v = order[p], order[p + 1 + k - first[p]]
    del k, p
    i, j = np.minimum(u, v), np.maximum(u, v)
    del u, v
    keep = (j > i + 1) & ~((i == 0) & (j == len(a) - 1))
    i, j = i[keep], j[keep]
    del keep
    ok, s, w = _segment_hits(a[i], d[i], a[j], d[j])
    return i[ok], j[ok], s[ok], w[ok]


def self_intersections(curve: SampledCurve, refine: bool = True,
                       block: int = 512) -> List[Crossing]:
    """Transversal self-crossings of the closed polyline through the samples.

    A sort-and-sweep prefilter (Shamos & Hoey 1976) picks the candidate
    pairs: the segments are sorted by the left end of their x-extent, and a
    binary search on each right end finds the segments that start before it
    ends.  Only these overlapping, non-adjacent pairs go through the exact
    intersection test, so the cost is about O(n log n + candidates) instead
    of n^2/2 tests; a smooth curve has a few candidates per segment.  The
    extents are padded by 1e-12 * max|x|, so a pair whose segments touch
    up to roundoff stays a candidate.

    The candidates are tested in chunks of at most block * block pairs,
    which bounds the memory even when every x-extent overlaps.  Hits come
    in the order of a block-wise scan of the pairs i < j: sorted by
    (i // block, j // block, i, j).  With an attached evaluator each hit is
    polished by re-intersecting locally resampled arcs.  Parameters are
    reported inside the sampled window (the second one may exceed the start
    by up to a full period at the wrap segment).
    """
    pts = curve.points
    n = len(pts)
    if n < 8:
        raise DomainError("self-intersection scan needs at least 8 samples")
    if block < 1:
        raise DomainError(f"block must be >= 1, got {block}")
    _require_finite(curve, "self-intersection scan")
    t = curve.params
    step = t[1] - t[0]
    a = pts
    d = np.roll(pts, -1, axis=0) - pts

    pad = 1e-12 * float(np.max(np.abs(pts[:, 0])))
    x_end = a[:, 0] + d[:, 0]
    lo = np.minimum(a[:, 0], x_end) - pad
    hi = np.maximum(a[:, 0], x_end) + pad
    order = np.argsort(lo, kind="stable")
    # the segment at sorted position p overlaps those at positions p+1 .. stop[p]-1
    stop = np.searchsorted(lo[order], hi[order], side="right")
    count = stop - np.arange(n) - 1
    first = np.cumsum(count) - count
    total = int(first[-1] + count[-1])

    found = [_candidate_hits(a, d, order, first, k0, min(k0 + block * block, total))
             for k0 in range(0, total, block * block)]

    # never empty: neighbouring segments share a vertex, so their extents overlap
    i, j, s, u = (np.concatenate(col) for col in zip(*found))
    emit = np.lexsort((j, i, j // block, i // block))
    hits = [Crossing(point=a[gi] + si * d[gi],
                     t1=float(t[gi] + si * step),
                     t2=float(t[gj] + ui * step))
            for gi, gj, si, ui in zip(i[emit], j[emit], s[emit], u[emit])]

    if refine and curve.evaluator is not None:
        hits = [_polish_crossing(curve.evaluator, c, float(step)) for c in hits]
    return hits


def _polish_crossing(ev: Callable, c: Crossing, width: float) -> Crossing:
    """Shrink the two parameter windows around a crossing by re-intersection."""
    t1, t2 = c.t1, c.t2
    best = c
    for _ in range(3):
        g1 = np.linspace(t1 - width, t1 + width, 9)
        g2 = np.linspace(t2 - width, t2 + width, 9)
        p1 = np.asarray(ev(g1), dtype=float)
        p2 = np.asarray(ev(g2), dtype=float)
        a1, d1 = p1[:-1], np.diff(p1, axis=0)
        a2, d2 = p2[:-1], np.diff(p2, axis=0)
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        ok, s, u = _segment_hits(a1[ii], d1[ii], a2[jj], d2[jj])
        if not np.any(ok):
            break
        i, j = next(zip(*np.nonzero(ok)))
        si, ui = s[i, j], u[i, j]
        t1 = float(g1[i] + si * (g1[i + 1] - g1[i]))
        t2 = float(g2[j] + ui * (g2[j + 1] - g2[j]))
        best = Crossing(point=a1[i] + si * d1[i], t1=t1, t2=t2)
        width /= 6.0
    return best
