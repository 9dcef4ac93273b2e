"""Pedal-type curve constructions for an ellipse and their feature detectors.

Every family here is a map t -> point in the plane built from the base
ellipse P(t) = (a cos t, b sin t) and a fixed pole M:

* pedal: foot of the perpendicular from M onto the tangent line at P(t)
* contrapedal: same with the normal line
* rotated pedal: the projection line direction is the tangent turned by theta
* interpolated pedal: affine blend of pedal and contrapedal feet
* negative pedal: envelope of lines through P(t) perpendicular to P(t) - M
* hybrid: the negative pedal reflected in P(t) (hybrid_frame)
* pseudo-Talbot: a cubic-harmonic curve defined for poles on the ellipse,
  traversed so that its signed area carries the orientation of the
  supporting line family
* evolutoid: envelope of lines crossing the curve at a fixed angle to the
  tangent (angle 0 gives the curve back, pi/2 the evolute)

Point evaluators are vectorized over t and complex-safe, so the feature
detectors differentiate them by complex step: each takes a curve only with
its evaluator (curves.sample_curve keeps it), and both check their input
alike (_evaluator_of).  Every ellipse family is
evaluated in two steps: a frame builder does the work that depends on
the parameters alone and returns points(x, y), the points for the pole at
the plain coordinates (x, y), so a scan can share one frame among all the
poles of a grid.  For a chunk of k poles, x and y are (k, 1) arrays, and
points() returns one curve per pole; a scan may pass a workspace for the
points as well (areas.Family).  No function here reads or checks a
pole: harness.family_evaluator reads its pole once (curves.as_xy), and
harness.scan hands over the coordinates of its locus poles, finite by
construction.  The frames are called through the registry, areas.FAMILIES.

Every family is affine in two coordinates (c1, c2) read from the pole,
the pencil of a pole off the ellipse excepted: each coordinate of a point
is F0(t) + c1 F1(t) + c2 F2(t), and the frame holds the three columns of
each (_affine_frame, the one writer of coordinate planes).

* the ellipse: F0 = P(t), and zero columns for the pole.
* pedal, contrapedal, rotated and interpolated: the feet from the pole
  (x, y) itself, (c1, c2) = (x, y).  A foot p + u d has u affine in the
  pole (_feet), and the interpolated blend is one foot too, since the
  pedal and contrapedal feet sum to P(t) + m.
* pseudo-Talbot, hybrid and negative pedal: (c1, c2) = (cos s, sin s) of
  a pole P(s) on the ellipse, read as (x/a, y/b).  For the negative pedal
  this is its pencil with the removable singularity at t = s divided out,
  a trigonometric polynomial of degree 2 in t, finite at t = s; the hybrid
  takes the same columns reflected in P(t).  It serves exactly the poles
  on the ellipse (curves.xy_on_ellipse); any other pole takes the pencil
  itself, which keeps its singularity and its SingularFamily error, for
  both families.  Pseudo-Talbot has no other form: it has no points for a
  pole off the ellipse.

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
    ellipse_point,
    ellipse_point_velocity,
    xy_on_ellipse,
)
from .errors import DegenerateLine, DomainError, SingularFamily
from .tolerances import CUSP_SPEED_TOL, PARALLEL_TOL

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# affine frames


def _affine_frame(fx, fy, sx: float = 1.0, sy: float = 1.0) -> Callable:
    """points(x, y) of a curve affine in the scaled coordinates
    (c1, c2) = (x/sx, y/sy) of its pole (x, y): each coordinate is
    F0 + c1 F1 + c2 F2.

    fx and fy are the columns (F0, F1, F2) of x and of y, arrays over the
    parameters.  The Steiner feet take the pole as it is; a boundary family
    passes (sx, sy) = (a, b) and so reads (cos s, sin s) of its pole P(s).
    The points are written into a (2, ..., n) buffer of coordinate planes,
    of the columns' dtype (complex under a complex step) and of any shape,
    0-d included; the (..., n, 2) view of it is returned, so the quadrature
    reads each plane contiguously.  A chunk of poles takes (k, 1) arrays.
    The sums go into the planes in place, (F0 + c1 F1) + c2 F2, through
    one scratch plane: no other full-size temporary.

    points(x, y, out) writes into the workspace out instead, a real
    (3, k, n) array for a chunk of k poles on n real parameters: the
    planes are out[:2] and the scratch plane is out[2], so a scan that
    passes one workspace to every chunk allocates no plane per chunk.  The
    points returned are then a view of out, valid until its next use.
    Without out, the planes take the shape and dtype of c1 F1, which is
    the scratch plane: the helpers that work them out from the columns
    cost more than the products on the few parameters of a cusp-refinement
    step.  Past that, both take one body, the rows F broadcast over a
    chunk's rows: each c F is a (k, 1) by (n,) product, and F0 a row added
    to the plane.  numpy copies the operands of such broadcasts through
    its buffer when a row is shorter than the buffer (8192 elements by
    default; a scan at n = 256 has rows of 512), at up to three times the
    cost, so a scan runs its chunks with the buffer cut to a row
    (harness._row_buffer).  The frame keeps nothing between calls: each
    pole's points are bitwise the same in any chunk, or alone.
    """

    def points(x0, y0, out=None):
        c1, c2 = x0 / sx, y0 / sy
        if out is None:
            # as an array, as it is the scratch plane (a 0-d product is a
            # numpy scalar)
            scratch = np.asarray(c1 * fx[1])
            planes = np.empty((2,) + scratch.shape, dtype=np.result_type(scratch, fy[1]))
        else:
            planes, scratch = out[:2], out[2]
            np.multiply(c1, fx[1], scratch)
        px, py = planes[0, ...], planes[1, ...]
        # outputs passed by position: the keyword costs more on few parameters
        np.add(fx[0], scratch, px)
        np.add(px, np.multiply(c2, fx[2], scratch), px)
        np.add(fy[0], np.multiply(c1, fy[1], py), py)
        np.add(py, np.multiply(c2, fy[2], scratch), py)
        return planes.transpose((*range(1, planes.ndim), 0))

    return points


# ---------------------------------------------------------------------------
# perpendicular feet


def _param_at(t, mask) -> float:
    """Real part of the parameter at the first true entry of mask."""
    return float(np.real(np.broadcast_to(t, np.shape(mask)).flat[np.argmax(mask)]))


def _feet(t, p, d):
    """Columns of the feet of the perpendiculars from a pole (x, y) onto the
    lines p + u d, one line per parameter of t.

    u = ((m - p) . d) / (d . d) is affine in the pole, so each foot is
    F0 + x F1 + y F2 with F0 = p - ((p . d) / (d . d)) d,
    F1 = (dx / (d . d)) d and F2 = (dy / (d . d)) d.  Returns the columns
    (F0, F1, F2) of x and of y, as _affine_frame takes them.  A direction
    that vanishes raises DegenerateLine, naming the first such parameter:
    one whose larger coordinate is at most 1e-12 times the largest
    coordinate of the points p.  The floor is relative to the size of the
    points, so a scaled ellipse keeps its lines and a zero line is refused
    at any size, and it squares nothing, so it neither overflows nor
    underflows before the columns do.
    """
    p, d = np.asarray(p), np.asarray(d)
    px, py, dx, dy = p[..., 0], p[..., 1], d[..., 0], d[..., 1]
    dd = dx ** 2 + dy ** 2
    bad = np.maximum(np.abs(dx), np.abs(dy)) <= 1e-12 * np.max(np.abs(p))
    if bad.any():
        raise DegenerateLine(f"line direction vanishes near t={_param_at(t, bad):.6g}")
    w, gx, gy = (px * dx + py * dy) / dd, dx / dd, dy / dd
    # the y of F1 and the x of F2 are both dx dy / (d . d): one array
    q = gx * dy
    return (px - w * dx, gx * dx, q), (py - w * dy, q, gy * dy)


def _normal(v):
    """v turned a quarter turn counterclockwise."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def ellipse_frame(e: Ellipse, t) -> Callable:
    """The ellipse itself, P(t), for every pole: the columns of its pole
    are zero, and F0 plus a signed zero is F0, bitwise."""
    p = ellipse_point(e, t)
    zero = np.zeros_like(p[..., 0])
    return _affine_frame((p[..., 0], zero, zero), (p[..., 1], zero, zero))


def pedal_frame(e: Ellipse, t) -> Callable:
    """Tangent lines at P(t)."""
    return _affine_frame(*_feet(t, *ellipse_point_velocity(e, t)))


def contrapedal_frame(e: Ellipse, t) -> Callable:
    """Normal lines at P(t)."""
    p, v = ellipse_point_velocity(e, t)
    return _affine_frame(*_feet(t, p, _normal(v)))


def rotated_frame(e: Ellipse, t, theta: float) -> Callable:
    """Lines through P(t) along the tangent turned by theta."""
    p, v = ellipse_point_velocity(e, t)
    ct, st = math.cos(theta), math.sin(theta)
    d = np.stack([ct * v[..., 0] - st * v[..., 1],
                  st * v[..., 0] + ct * v[..., 1]], axis=-1)
    return _affine_frame(*_feet(t, p, d))


def interpolated_frame(e: Ellipse, t, mu: float) -> Callable:
    """Tangent and normal lines at P(t), blended with weight mu on the normal.

    The two feet from m sum to P(t) + m, as the lines are perpendicular and
    meet at P(t), so the blend (1 - mu) pedal + mu contrapedal is
    (1 - 2 mu) pedal + mu (P(t) + m): one foot per parameter.
    """
    p, v = ellipse_point_velocity(e, t)
    fx, fy = _feet(t, p, v)
    k = 1.0 - 2.0 * mu
    return _affine_frame((k * fx[0] + mu * p[..., 0], k * fx[1] + mu, k * fx[2]),
                         (k * fy[0] + mu * p[..., 1], k * fy[1], k * fy[2] + mu))


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
    # an overflowed scale is no evidence of parallel lines: such a pole's
    # points come out non-finite instead
    bad = (np.abs(det) < PARALLEL_TOL * np.abs(scale2)) & np.isfinite(scale2)
    if np.any(bad):
        t_bad = _param_at(t, bad)
        raise SingularFamily(
            f"envelope is singular near t={t_bad:.6g} (parallel line pencil)", t=t_bad)
    x = (d * my - dd * ny) / det
    y = (nx * dd - mx * d) / det
    return np.stack([x, y], axis=-1)


# ---------------------------------------------------------------------------
# boundary families: the reduced or the rational form, by pole


def _by_pole(e: Ellipse, t, columns: Callable, rational: Callable) -> Callable:
    """points(x, y, out=None) of a boundary family at the parameters t: for
    a pole on the ellipse (curves.xy_on_ellipse, one test on its
    coordinates), the reduced frame, an _affine_frame in (cos s, sin s)
    over columns(e, t); for any other pole, the rational frame
    rational(e, t).  Each frame is built on first use and kept, so a call
    builds only the one it needs.  A chunk that mixes both kinds of pole
    gets each row from its own frame.  The workspace out goes to the
    reduced frame when every pole of the chunk takes it, and is ignored
    otherwise.  The two builders are plain closures, not functools.cache:
    a cache costs about 2 us to create, twice per frame, which a feature
    detector pays on every evaluator call of a hybrid or negative pedal
    (some 15% of a call on a few parameters)."""
    red_frame = rat_frame = None

    def reduced():
        nonlocal red_frame
        if red_frame is None:
            red_frame = _affine_frame(*columns(e, t), e.a, e.b)
        return red_frame

    def unreduced():
        nonlocal rat_frame
        if rat_frame is None:
            rat_frame = rational(e, t)
        return rat_frame

    def points(x0, y0, out=None):
        on = xy_on_ellipse(e, x0, y0)
        if on.all():
            return reduced()(x0, y0, out)
        if not on.any():
            return unreduced()(x0, y0)
        rows = on[:, 0]
        red = reduced()(x0[rows], y0[rows])
        rat = unreduced()(x0[~rows], y0[~rows])
        out = np.empty((len(rows),) + red.shape[1:], dtype=np.result_type(red, rat))
        out[rows], out[~rows] = red, rat
        return out

    return points


# ---------------------------------------------------------------------------
# negative pedal and hybrid: one pencil


def negative_pedal_rational_frame(e: Ellipse, t) -> Callable:
    """The negative pedal of any pole at the ellipse parameters t, as the
    envelope of its line pencil.

    Returns points(x, y, out=None), the envelope points of the lines
    through P(t) perpendicular to P(t) - m for the pole m = (x, y): each
    line n . X = d, for n = P(t) - m and d = n . P(t), solved together with
    its t-derivative.  A chunk of poles takes (k, 1) arrays; the workspace
    out is ignored.  For m on the ellipse at P(s) the pencil is singular at
    t = s, where SingularFamily names t.
    """
    t = np.asarray(t)
    ct, st = np.cos(t), np.sin(t)
    # P(t) and P'(t) as arrays, as ellipse_point_velocity gives
    # them: a scalar t must not switch the rest to scalar arithmetic
    px, py = np.asarray(e.a * ct), np.asarray(e.b * st)
    vx, vy = np.asarray(-e.a * st), np.asarray(e.b * ct)

    def points(x0, y0, out=None):
        nx, ny = px - x0, py - y0
        d = nx * px + ny * py
        dd = vx * (2 * px - x0) + vy * (2 * py - y0)
        return _envelope_solve(t, nx, ny, vx, vy, d, dd)

    return points


def _negative_pedal_columns(e: Ellipse, t):
    """The columns of the negative pedal of the pole P(s), its pencil's
    singularity at t = s divided out (see negative_pedal_frame)."""
    t = np.asarray(t)
    return _reduced_columns(e, t, np.cos(t), np.sin(t))


def _reduced_columns(e: Ellipse, t, c1, s1):
    # _negative_pedal_columns on the array t, given its cos and sin
    al, be = (e.a * e.a + e.b * e.b) / (2 * e.a), (e.a * e.a + e.b * e.b) / (2 * e.b)
    ga, de = e.c2 / (2 * e.a), e.c2 / (2 * e.b)
    c2, s2 = np.cos(2 * t), np.sin(2 * t)
    return (2 * ga * c1, ga * c2 - al, -ga * s2), (-2 * de * s1, de * s2, de * c2 - be)


def negative_pedal_frame(e: Ellipse, t) -> Callable:
    """The negative pedal at the ellipse parameters t: envelope of the lines
    through P(t) perpendicular to P(t) - m.

    Returns points(x, y).  For a pole on the ellipse, at P(s), the
    determinant of the pencil is ab (1 - cos(t - s)) and its numerators
    vanish there to the same order; divided out, the curve is a
    trigonometric polynomial of degree 2 in t, affine in (cos s, sin s).
    With alpha = (a^2 + b^2) / (2a),
    beta = (a^2 + b^2) / (2b), gamma = c^2 / (2a) and delta = c^2 / (2b):
    x = -alpha cos s + 2 gamma cos t + gamma cos(2t + s) and
    y = -beta sin s - 2 delta sin t + delta sin(2t + s), finite at t = s.
    The pole gives s: (cos s, sin s) = (x/a, y/b).  Any other pole takes
    the pencil itself (negative_pedal_rational_frame).
    """
    return _by_pole(e, t, _negative_pedal_columns, negative_pedal_rational_frame)


def _hybrid_columns(e: Ellipse, t):
    # the negative pedal's columns reflected in P(t), once per frame, on one
    # cos t and sin t; P(t) as ellipse_point gives it, an array even for a
    # 0-d t
    t = np.asarray(t)
    ct, st = np.cos(t), np.sin(t)
    (x0, x1, x2), (y0, y1, y2) = _reduced_columns(e, t, ct, st)
    px, py = np.asarray(e.a * ct), np.asarray(e.b * st)
    return (2 * px - x0, -x1, -x2), (2 * py - y0, -y1, -y2)


def _hybrid_rational(e: Ellipse, t) -> Callable:
    p2, negative = 2 * ellipse_point(e, t), negative_pedal_rational_frame(e, t)
    return lambda x0, y0, out=None: p2 - negative(x0, y0)


def hybrid_frame(e: Ellipse, t) -> Callable:
    """The hybrid curve at the ellipse parameters t: the intersection of the
    line through the pole m perpendicular to the tangent at P(t) with the
    line L through P(t) perpendicular to P(t) - m.

    It is the negative pedal N reflected in P(t): H = 2P(t) - N.  Both
    H - P and N - P lie along L.  N's envelope condition gives
    P' . (N - P) = (P - m) . P', and H's line gives
    P' . (H - P) = (m - P) . P'; a point of L is fixed by its dot product
    with P' unless m sits on the tangent at P(t), where both are singular.

    Returns points(x, y).  For a pole on the ellipse, at P(s), the frame
    holds the negative pedal's reduced columns reflected, (2P - N0, -N1,
    -N2); with alpha, beta, gamma and delta as in negative_pedal_frame,
    x = alpha cos s + 2 alpha cos t - gamma cos(2t + s) and
    y = beta sin s + 2 beta sin t - delta sin(2t + s).  Any other pole
    takes 2P(t) minus the points of the pencil, and its SingularFamily.
    """
    return _by_pole(e, t, _hybrid_columns, _hybrid_rational)


# ---------------------------------------------------------------------------
# pseudo-Talbot curve


def pseudo_talbot_frame(e: Ellipse, u) -> Callable:
    """The pseudo-Talbot curve at the traversal parameters u.

    The curve is the cubic-harmonic companion of the hybrid curve for a
    pole on the ellipse.  Returns points(x, y) for the pole (x, y) = P(s),
    read as (cos s, sin s) = (x/a, y/b) like the reduced frames of
    hybrid_frame;
    the curve has no points for a pole off the ellipse, which
    harness.family_evaluator and harness.scan refuse.  The traversal
    parameter u runs the curve so that its signed area matches the
    orientation of the supporting line family, which is opposite to the raw
    harmonic angle; internally the formula is evaluated at angle -u.  The
    curve is affine in (cos s, sin s): each coordinate is
    F0(u) + cos s Fc(u) + sin s Fs(u), and the frame holds the three columns
    of each.  A chunk of poles takes (k, 1) arrays.
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
    return _affine_frame(
        (ct * (a2 + b2) * (-a2 * st ** 2 - b2 * ct2 + 2 * b2) / (a * b2),
         -((kx + 1) * a4 - 2 * (kx + 1) * a2 * b2 + kx * b4) / (a * b2),
         -2 * c4 * st ** 3 * ct / (a * b2)),
        (st * (a2 + b2) * ((a2 - b2) * ct2 + a2) / (a2 * b),
         -2 * c4 * st * ct ** 3 / (a2 * b),
         -((ky - 1) * a4 - 2 * ky * a2 * b2 + ky * b4) / (a2 * b)),
        a, b)


# ---------------------------------------------------------------------------
# evolutoids


def evolutoid_point(e: Ellipse, theta: float, t):
    """Envelope point of lines meeting the ellipse at angle theta to the tangent.

    theta = 0 returns P(t); theta = pi/2 returns the evolute point.  With
    C = cos t, S = sin t and c^2 = a^2 - b^2,
    x = a cos^2(theta) C + (c^2 / a) sin^2(theta) C^3
        - sin(theta) cos(theta) S (b C^2 + (a^2 / b) S^2) and
    y = a sin(theta) cos(theta) C - (c^2 / a) sin(theta) cos(theta) C^3
        + (c^2 / b) sin^2(theta) S C^2 + ((b^2 cos^2(theta) - c^2 sin^2(theta)) / b) S.
    The scalar coefficients are folded first, so the arrays see only
    C^2, S^2 and a few products with them.  A parameter gives bitwise the
    same point alone, 0-d or not, as among others.
    """
    a, b, c2 = e.a, e.b, e.c2
    cth, sth = math.cos(theta), math.sin(theta)
    sc = sth * cth
    t = np.asarray(t)
    # on a 1-d array, reshaped on return: a 0-d t would turn the rest into
    # numpy scalar arithmetic, which can round differently from the array
    # loops
    ct, st = np.cos(t.reshape(-1)), np.sin(t.reshape(-1))
    cc = ct * ct
    ccc = cc * ct
    x = ((a * cth * cth) * ct + (c2 * sth * sth / a) * ccc
         - st * ((sc * b) * cc + (sc * a * a / b) * (st * st)))
    y = ((a * sc) * ct - (c2 * sc / a) * ccc
         + st * ((b * b * cth * cth - c2 * sth * sth) / b + (c2 * sth * sth / b) * cc))
    # not np.stack: on the few parameters of a cusp-refinement step it
    # costs more than a tenth of the whole call
    return np.concatenate((x[:, None], y[:, None]), axis=-1).reshape(t.shape + (2,))


# ---------------------------------------------------------------------------
# feature detectors


# The complex step: a power of two, so dividing by it is exact, and small
# enough that its truncation error, of order _CS_STEP^2, is nil, yet large
# enough that the imaginary part of a curve of size 1e-250 stays normal.
_CS_STEP = 2.0 ** -64
# The least extent of a curve that the detectors take, 2^-958 ~ 4.1e-289:
# the imaginary part of a smaller curve's complex step, _CS_STEP times it,
# is subnormal, and its velocities lose digits (near 1e-300, 2 of the
# contrapedal's 8 crossings and every cusp of the deltoid and the evolute)
_CS_FLOOR = np.finfo(float).tiny / _CS_STEP


def _jet(evaluator: Callable, t):
    """Points and derivative of a point evaluator at the parameters t, of
    any shape, as (p, v), each t.shape + (2,).

    One complex-step call on all the parameters (Squire & Trapp, SIAM Rev.
    40, 1998): the real part gives the points, the imaginary part over the
    step the derivative.  An evaluator whose points come back real drops
    the imaginary part, and the detectors refuse it with DomainError; an
    error the evaluator raises propagates as it is, as in sample_curve.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape + (2,)
    p = np.asarray(evaluator(t.ravel() + 1j * _CS_STEP))
    if p.dtype.kind != "c":
        raise DomainError("the feature detectors need a complex-safe evaluator: "
                          "this one drops the imaginary part of its parameters")
    return p.real.reshape(shape), p.imag.reshape(shape) / _CS_STEP


# The step of the forward difference that gives v' in _velocity_zeros.  Its
# error only slows a step: v = 0 solves v.v' = 0 whatever v' reads.
_GN_H = 1e-7
# A candidate stops once its step is at most this.
_GN_XTOL = 1e-10
# The most calls a refinement makes.  It is what stops the double zero where
# a pair of cusps is born: for v = c e^2 the forward difference reads
# c (2e + _GN_H), so within about _GN_H of the zero the steps stay at 1e-9
# to 1e-8; the speed there is already an outright zero.  With the closing
# call, at most 13 calls per curve.
_GN_CALLS = 12


def _velocity_zeros(evaluator: Callable, t: np.ndarray, step: float) -> np.ndarray:
    """Minimizers of the speed |v| near the 1-d parameters t, each within a
    step of its start, by Gauss-Newton steps on v: t <- t - (v.v')/(v'.v').

    All candidates still moving go in one _jet call per step.  At a
    double zero of v the step is half the distance to it, so a step about
    half the one before and of the same sign is doubled (Schroeder's
    correction for multiplicity 2).  A v' that is zero or not finite gives
    no step.
    """
    x = np.array(t, dtype=float)
    lo, hi = x - step, x + step
    last = np.zeros_like(x)
    live = np.arange(x.size)
    for _ in range(_GN_CALLS):
        xs = x[live]
        _, v = _jet(evaluator, np.stack([xs, xs + _GN_H], axis=1))
        dv = (v[:, 1] - v[:, 0]) / _GN_H
        # (v.v')/(v'.v') as (v.u)/|v'| with u = v'/|v'|: v'.v' overflows
        # from |v'| = 1e154 on
        norm = np.hypot(dv[:, 0], dv[:, 1])
        ok = (norm > 0) & (norm < np.inf)
        d = np.zeros(len(xs))
        d[ok] = -np.sum(v[ok, 0] * (dv[ok] / norm[ok, None]), axis=1) / norm[ok]
        ratio = np.divide(d, last[live], out=np.zeros_like(d), where=last[live] != 0)
        d[(ratio > 0.4) & (ratio < 0.6)] *= 2.0
        x[live] = np.clip(xs + d, lo[live], hi[live])
        last[live] = x[live] - xs
        live = live[np.abs(last[live]) > _GN_XTOL]
        if not live.size:
            break
    return x


def _wrapped(v: np.ndarray) -> np.ndarray:
    """The periodic samples v with the last one put before them and the
    first after them."""
    return np.concatenate((v[-1:], v, v[:1]))


def _evaluator_of(curve: SampledCurve, what: str):
    """The evaluator of a curve fit for the feature detector named what,
    and the curve's extent, its largest coordinate: a curve with no
    evaluator, fewer than 8 samples, a non-finite point or an extent below
    _CS_FLOOR raises DomainError."""
    if curve.evaluator is None:
        raise DomainError(f"{what} needs the curve's evaluator: sample it with sample_curve")
    if len(curve) < 8:
        raise DomainError(f"{what} needs at least 8 samples")
    if not np.all(np.isfinite(curve.points)):
        raise DomainError(f"{what} needs finite sample points")
    size = float(np.max(np.abs(curve.points)))
    if size < _CS_FLOOR:
        raise DomainError(f"{what}: the curve's extent {size:.3g} is below {_CS_FLOOR:.3g}, "
                          "where the complex step underflows; scale the curve up")
    return curve.evaluator, size


def _spectral_bounds(points: np.ndarray):
    """(M1, M2, M3), M_r = sum_k k^r sqrt(|x_k|^2 + |y_k|^2) with x_k and y_k
    the complex amplitudes of mode k of the samples' trigonometric
    interpolant X: bounds on its |X'|, |X''| and |X'''| over the period, by
    the triangle inequality over the modes and Cauchy-Schwarz within each.
    The samples are finite and one period, 2 pi, on an even grid.

    One rfft of the two coordinate planes, C-contiguous, divided by the
    samples' largest magnitude, so that no finite curve overflows inside
    it; the sums are multiplied back as Python floats, so a bound past the
    float range reads inf, never NaN, and raises no warning.
    """
    scale = float(np.max(np.abs(points))) or 1.0
    f = np.fft.rfft(np.divide(points.T, scale, order="C"))
    k = np.arange(f.shape[1], dtype=float)
    # the amplitude of mode k > 0 is 2 |f_k| / n (the Nyquist mode's is
    # half that, so the bounds hold); |f_k| <= n, so the squares are safe
    sq = f.real * f.real + f.imag * f.imag
    a1 = k * np.sqrt(sq[0] + sq[1])
    a2 = k * a1
    unit = scale * (2 / len(points))
    return tuple(unit * float(m) for m in (np.sum(a1), np.sum(a2), k @ a2))


def find_cusps(curve: SampledCurve) -> np.ndarray:
    """Parameters (mod 2*pi) where the curve has a cusp.

    Grid speeds flag candidate minima.  Each is refined once, to the
    minimum of the true parametric speed within a step of its node, by
    Gauss-Newton steps on the velocity of the curve's evaluator
    (_velocity_zeros).  A candidate is a cusp when its speed drops below
    CUSP_SPEED_TOL times the median grid speed *and* the velocity direction
    reverses across the point.  Both conditions together reject smooth
    slow spots and grazing near-cusps.  An outright velocity zero (speed
    below 1e-13 of the median) counts regardless of reversal: there the
    velocity vanishes to even order, as at the parameter where a pair of
    cusps is born, and its direction comes back unflipped.  A curve with
    no evaluator, fewer than 8 samples, a non-finite point or an extent
    below _CS_FLOOR, about 4.1e-289, raises DomainError
    (curves.sample_curve keeps the evaluator).

    The velocity is the evaluator's complex step (_jet), and it must
    resolve each cusp: next to a singular parameter of the evaluator it is
    rounding noise, and a cusp there is missed.  The registry frames meet
    this: a pole on the ellipse goes through its reduced frame, finite at
    its own parameter s, while its rational negative pedal
    (negative_pedal_rational_frame, built by no public path) loses the
    deltoid's cusp at t = s.

    A candidate whose grid speed exceeds the slow speed, CUSP_SPEED_TOL
    times the median, by more than (h/2) M2 + (h^2/6) M3, with h the step
    and M2, M3 >= max|X''|, |X'''| from the samples' spectrum
    (_spectral_bounds), is dropped before any refinement, as it could
    never pass the slow test: a point slower than the slow speed lies
    within h/2 of its nearest node, whose central-difference speed is then
    at most that much above it, and a candidate within a step of the point
    is that node or a grid-speed minimum next to it, no faster.  A curve
    whose candidates are all dropped makes no evaluator call; a bound past
    the float range keeps every candidate.

    All candidates are refined together: one evaluator call per
    Gauss-Newton step holds the two probes of every candidate still
    moving, and each candidate stops on its own.  One closing call gives
    the refined speeds and the velocities on both sides of every
    candidate.  An evaluator that drops the imaginary part raises
    DomainError at its first call; an error the evaluator raises
    propagates as it is, while a dropped candidate is never evaluated.
    """
    ev, _ = _evaluator_of(curve, "cusp detection")
    t = curve.params
    # a Python float, so the bound below overflows to inf without a warning
    step = float(t[1] - t[0])
    # the coordinate planes wrapped: x[:-2] and x[2:] hold the nodes before
    # and after each node
    x, y = _wrapped(curve.points[:, 0]), _wrapped(curve.points[:, 1])
    speed = np.hypot(x[2:] - x[:-2], y[2:] - y[:-2]) / (2 * step)
    ref = float(np.median(speed))
    if ref <= 0:
        raise DomainError("degenerate curve: median speed is zero")
    slow_speed = CUSP_SPEED_TOL * ref

    around = _wrapped(speed)
    k = np.flatnonzero((speed < around[:-2]) & (speed <= around[2:]))
    # the grid speed at the node nearest a slow point, from M2 and M3
    _, m2, m3 = _spectral_bounds(curve.points)
    k = k[speed[k] <= step / 2 * m2 + step * step / 6 * m3 + slow_speed]
    if not k.size:
        return np.empty(0)

    tr = _velocity_zeros(ev, t[k], step).tolist()
    # the refined speeds and the velocities across each point, one call
    _, v = _jet(ev, np.array([[r, r - 1e-4, r + 1e-4] for r in tr]))
    s_min = [math.hypot(vx, vy) for vx, vy in v[:, 0].tolist()]
    vel = v[:, 1:]

    # a slow candidate is a cusp outright when its speed vanishes, else when
    # the velocity reverses across it
    slow = [r for r, s in enumerate(s_min) if not s >= slow_speed]
    cusps = [r for r in slow if not s_min[r] >= 1e-13 * ref]
    turning = [r for r in slow if s_min[r] >= 1e-13 * ref]
    cusps += [r for r in turning if not float(vel[r, 0] @ vel[r, 1]) >= 0.0]
    found = sorted(tr[r] % TWO_PI for r in cusps)
    if not found:
        return np.empty(0)
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


def _candidate_pairs(y_lo, y_hi, order, first, shift, k0: int, k1: int):
    """The sweep's candidate pairs k0 .. k1-1 that stay candidates, as
    (i, j) with i < j.

    y_lo and y_hi are the segments' padded y-extents.  The candidates of
    the sorted position p are first[p] .. first[p + 1] - 1, in one run, and
    candidate k pairs the segments at positions p and k - shift[p],
    shift[p] = first[p] - p - 1.  The chunk's positions are enumerated by
    run length, the runs at its two ends trimmed to it.  Adjacent pairs,
    the wrap pair and pairs whose y-extents do not overlap are dropped: of
    the pairs whose x-extents overlap, most lie on branches far apart in y
    (a contrapedal at n = 2048: ~7,500 candidates, ~15 left).
    """
    n = len(order)
    p0, p1 = np.searchsorted(first, (k0, k1 - 1), side="right") - 1
    runs = np.diff(first[p0:p1 + 1], append=k1)
    runs[0] -= k0 - first[p0]
    # each index array is dropped once used, so a full chunk's peak memory
    # stays near that of the coordinate arrays of its pairs
    u = np.repeat(order[p0:p1 + 1], runs)
    v = order[np.arange(k0, k1) - np.repeat(shift[p0:p1 + 1], runs)]
    i, j = np.minimum(u, v), np.maximum(u, v)
    del u, v
    gap = j - i
    keep = (gap > 1) & (gap < n - 1) & (y_lo[i] <= y_hi[j]) & (y_lo[j] <= y_hi[i])
    return i[keep], j[keep]


# _sweep lists its candidate pairs in chunks of at most _BLOCK * _BLOCK,
# and returns them in the order of a block-wise scan
_BLOCK = 512


def _sweep(pts: np.ndarray, tube: float):
    """The non-adjacent pairs (i, j), i < j, of the closed polyline's
    segments pts[i] -> pts[i + 1] whose padded extents overlap, as two
    index arrays sorted by (i // _BLOCK, j // _BLOCK, i, j).

    A sort-and-sweep prefilter (Shamos & Hoey 1976): the segments are
    sorted by the left end of their x-extent, and a binary search on each
    right end finds the segments that start before it ends.  Only these
    pairs whose y-extents overlap too stay, so the cost is about
    O(n log n + pairs) instead of n^2/2 tests; a smooth curve has a few
    pairs per segment.  The extents are padded by 1e-12 * max|x| (and
    1e-12 * max|y|) plus tube, so a pair whose segments touch up to
    roundoff stays.  The pairs are listed in chunks of at most
    _BLOCK * _BLOCK, which bounds the memory even when every x-extent
    overlaps.  The candidates of one sorted position are a run of
    consecutive positions, so a chunk lists its pairs by run length
    (_candidate_pairs).
    """
    n = len(pts)
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
    pad = 1e-12 * float(np.max(np.abs(x))) + tube
    x_end = x + dx
    lo = np.minimum(x, x_end) - pad
    hi = np.maximum(x, x_end) + pad
    ypad = 1e-12 * float(np.max(np.abs(y))) + tube
    y_end = y + dy
    y_lo = np.minimum(y, y_end) - ypad
    y_hi = np.maximum(y, y_end) + ypad
    order = np.argsort(lo, kind="stable")
    # the segment at sorted position p overlaps those at positions p+1 .. stop[p]-1
    stop = np.searchsorted(lo[order], hi[order], side="right")
    count = stop - np.arange(n) - 1
    first = np.cumsum(count) - count
    shift = first - np.arange(n) - 1
    total = int(first[-1] + count[-1])

    chunk = _BLOCK * _BLOCK
    pairs = [_candidate_pairs(y_lo, y_hi, order, first, shift, k0, min(k0 + chunk, total))
             for k0 in range(0, total, chunk)]
    # never empty: neighbouring segments share a vertex, so their extents overlap
    i, j = (np.concatenate(col) for col in zip(*pairs))
    emit = np.lexsort((j, i, j // _BLOCK, i // _BLOCK))
    return i[emit], j[emit]


def self_intersections(curve: SampledCurve) -> List[Crossing]:
    """Transversal self-crossings of the sampled closed curve.

    The crossings are those of the curve itself, found in half-open
    parameter boxes [t_i, t_i+1) x [t_j, t_j+1).  The arc over a step
    strays from its chord by at most h^2 M2 / 8, with h the step and
    M2 >= max|P''| from the samples' spectrum (_spectral_bounds), so the
    sweep (_sweep) pads every segment's extents by that tube: a crossing of
    the curve then lies in a candidate box pair, whether the chords cross
    or not.  Each box pair is solved for P(t1) = P(t2) by Newton steps
    from its centre, kept inside the box, all boxes together
    (_polish_crossings), on the evaluator's complex step (_jet), which
    refuses an evaluator that drops the imaginary part with DomainError; a
    root is kept only when it lies in its own half-open box with its
    residual at roundoff.  The boxes are disjoint, so each crossing is
    reported once, whichever way the curve runs; two copies of a root that
    an edge computed an ulp off splits are merged (_first_copies).
    Results come in the sweep's block-wise order of the box pairs, and
    parameters are reported inside the sampled period [t_0, t_0 + 2 pi).

    A curve with no evaluator, fewer than 8 samples, a non-finite point or
    an extent below _CS_FLOOR, about 4.1e-289, where the complex step
    underflows, raises DomainError (curves.sample_curve keeps the
    evaluator).  So does a curve so large that M1, the tube or the residual
    scale overflows, naming which: an infinite tube would make every pair a
    candidate.
    """
    ev, size = _evaluator_of(curve, "self-intersection scan")
    pts, t = curve.points, curve.params
    step = t[1] - t[0]
    m1, m2, _ = _spectral_bounds(pts)
    tube = step * step * m2 / 8
    # the residual scale of _polish_crossings at its largest parameters
    reach = size + 2 * (abs(float(t[0])) + TWO_PI) * m1
    bad = [name for name, v in (("M1", m1), ("the tube", tube), ("the residual scale", reach))
           if not math.isfinite(v)]
    if bad:
        raise DomainError(f"self-intersection scan: overflow in {', '.join(bad)}; "
                          "scale the curve down")
    i, j = _sweep(pts, tube)
    return _polish_crossings(ev, np.append(t, t[0] + TWO_PI), i, j, size, m1)


# A crossing's Newton polish is done once quadratic convergence predicts
# its next step, |d|^3 / |d before|^2, to be at most _NEWTON_TTOL (a
# fraction of the spacing of doubles near 1); a done crossing takes no
# more steps, so the roundoff jitter of its steps cannot keep it going.
# The first step, from half a grid step off, predicts nothing, so every
# box takes at least two.  From a box's centre a root takes three or four
# calls on random interior poles at n = 2048 (a / b from 1.25 to 5), and
# up to seven where two crossings nearly coincide, next to the astroid.
_NEWTON_CALLS = 8
_NEWTON_TTOL = 1e-16
# A root is kept when |P(t1) - P(t2)| is at most _ROUNDOFF times the
# curve's extent plus (|t1| + |t2|) M1, M1 >= max|P'|: rounding t to a
# double moves P by up to eps |t| |P'|.  Roots reach 0.51 of eps times that
# and the boxes left without a root 3e7 or more (a / b from 1.25 to 5,
# poles at random and 1e-6 to 6e-5 off the astroid, n = 2048)
_ROUNDOFF = 8 * np.finfo(float).eps
# Two roots that agree to _SAME grid steps in both parameters are one
# crossing: two crossings that close are beyond the grid's resolution
_SAME = 1e-6


def _newton_crossings(ev: Callable, tt: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                      down: int) -> np.ndarray:
    """Newton steps on F(t1, t2) = P(t1) - P(t2) from the parameter pairs
    tt, shape (m, 2), each parameter kept in [lo, hi]; returns the new pairs.

    Each step makes one _jet call on both parameters of every crossing
    still moving: P and P' by complex step.  The 2 by 2 system
    P'(t1) d1 - P'(t2) d2 = -F is solved by Cramer's rule, on P' and F
    times 2^down, the power of two that brings the curve's bound on |P'|
    into [1/2, 1): that leaves the step as it is and keeps the products in
    range on a curve of any size.  A singular or non-finite system gives
    no step.  Each crossing stops as the constants above say, and the
    calls stop when all have.  An error of a call propagates as it is, and
    an evaluator that drops the imaginary part raises _jet's DomainError.
    """
    tt = tt.copy()
    live, last = np.arange(len(tt)), np.zeros(len(tt))
    for call in range(_NEWTON_CALLS):
        cur = tt[live]
        p, v = _jet(ev, cur)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # exact, so the step is the raw system's where its products do
            # not over- or underflow
            f = np.ldexp(p[:, 0] - p[:, 1], down)
            v = np.ldexp(v, down)
            a, b = v[:, 0], v[:, 1]
            det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
            d = np.stack([f[:, 1] * b[:, 0] - f[:, 0] * b[:, 1],
                          a[:, 0] * f[:, 1] - a[:, 1] * f[:, 0]], axis=1) / det[:, None]
        d = np.where(np.isfinite(d).all(axis=1, keepdims=True), d, 0.0)
        new = np.minimum(np.maximum(cur + d, lo[live]), hi[live])
        moved = np.abs(new - cur).max(axis=1)
        tt[live] = new
        going = moved ** 3 > _NEWTON_TTOL * last ** 2
        if not going.any():
            break
        live, last = live[going], moved[going] * (call > 0)
    return tt


def _first_copies(tt: np.ndarray, lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the roots tt, shape (m, 2), that are no copy of an earlier
    one.  A root within tol of an edge of its boxes [lo, hi) may come out
    of the box on the other side of the edge too, some ulps away: the node
    that should be pi can be pi + 4.4e-16.  Of such roots, one that agrees
    with an earlier one to tol in both parameters, mod 2 pi and in either
    order (a crossing at the wrap comes as (t1, t2) and (t2, t1 + 2 pi)),
    is a copy."""
    first = np.ones(len(tt), dtype=bool)
    edge = np.flatnonzero(np.any((tt - lo <= tol) | (hi - tt <= tol), axis=1))
    if len(edge) > 1:
        d = np.abs(tt[edge, None, :, None] - tt[None, edge, None, :]) % TWO_PI
        close = np.minimum(d, TWO_PI - d) <= tol
        same = (close[..., 0, 0] & close[..., 1, 1]) | (close[..., 0, 1] & close[..., 1, 0])
        first[edge] = ~np.tril(same, -1).any(axis=1)
    return first


def _polish_crossings(ev: Callable, edges: np.ndarray, i: np.ndarray, j: np.ndarray,
                      size: float, speed: float) -> List[Crossing]:
    """The crossings of the curve in the box pairs
    [edges[i], edges[i + 1]) x [edges[j], edges[j + 1]), at most one each.

    Newton steps on P(t1) = P(t2) start from every box pair's centre, all
    together, each parameter kept inside its closed box
    (_newton_crossings).  One closing call evaluates P at both parameters
    of every root that ends inside its half-open boxes, and a root is kept
    when |P(t1) - P(t2)| is at roundoff (_ROUNDOFF, on the curve's extent
    size and M1 = speed), and when it is no copy of an earlier one
    (_first_copies); its point is P(t1).  A root on an edge belongs to the
    box that starts there, so a crossing at a node is reported once.
    """
    if not i.size:
        return []
    lo = np.stack([edges[i], edges[j]], axis=1)
    hi = np.stack([edges[i + 1], edges[j + 1]], axis=1)
    tt = _newton_crossings(ev, (lo + hi) / 2, lo, hi, -math.frexp(speed)[1])
    inside = np.all((lo <= tt) & (tt < hi), axis=1)
    tt, lo, hi = tt[inside], lo[inside], hi[inside]
    if not len(tt):
        return []
    p = np.asarray(ev(tt.ravel()), dtype=float).reshape(tt.shape + (2,))
    res = np.hypot(*(p[:, 0] - p[:, 1]).T)
    at = np.flatnonzero(res <= _ROUNDOFF * (size + np.abs(tt).sum(axis=1) * speed))
    at = at[_first_copies(tt[at], lo[at], hi[at], _SAME * (edges[1] - edges[0]))]
    return [Crossing(point=pt, t1=t1, t2=t2) for pt, (t1, t2) in zip(p[at, 0], tt[at].tolist())]
