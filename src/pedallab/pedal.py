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

Point evaluators are vectorized over t and complex-safe, so the cusp finder
can differentiate them by complex step.  Every ellipse family with a pole M
is evaluated in two steps: a frame builder does the work that depends on
the parameters alone and returns points(x, y), the points for the pole at
the plain coordinates (x, y), so a scan can share one frame among all the
poles of a grid.  For a chunk of k poles, x and y are (k, 1) arrays, and
points() returns one curve per pole; a scan may pass a workspace for the
points as well (areas.Family).  No function here reads or checks a
pole: harness.family_evaluator reads its pole once (curves.as_xy), and
harness.scan hands over the coordinates of its locus poles, finite by
construction.  The frames are called through the registry, areas.FAMILIES.

Every family with a pole is affine in two coordinates (c1, c2) read from
the pole, the pencil of a pole off the ellipse excepted: each coordinate of
a point is F0(t) + c1 F1(t) + c2 F2(t), and the frame holds the three
columns of each (_affine_frame, the one writer of coordinate planes).

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
    SupportCurve,
    ellipse_point,
    ellipse_point_velocity,
    xy_on_ellipse,
)
from .errors import DegenerateLine, DomainError, SingularFamily
from .tolerances import CUSP_BOUND_MARGIN, PARALLEL_TOL

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
    Two things make this path cheaper per point:

    * F0 is tiled to the chunk's height on the first call with a
      workspace, once per frame (so once per scan), and kept; a shorter
      chunk reads its first rows.  Adding the row F0 to k rows costs numpy
      half as much again as adding two planes.
    * Each c F stays a (k, 1) by (n,) product, which reads the one row F
      and writes the plane.  numpy copies the operands of such a product
      through its buffers when a row is shorter than a third of the buffer
      (8192 elements by default; a scan at n = 256 has rows of 512), at
      about three times the cost; a scan runs all its chunks with the
      buffer cut to a row (harness._row_buffer), so each row is one inner
      loop.

    The sums and their order are those of points(x, y), so the points are
    bitwise the same, and those of each pole alone.
    """
    f0 = None

    def points(x0, y0, out=None):
        nonlocal f0
        c1, c2 = x0 / sx, y0 / sy
        if out is not None:
            px, py, scratch = out
            k, n = px.shape
            if f0 is None or len(f0[0]) < k:
                f0 = np.empty((2, k, n), dtype=np.result_type(fx[0], fy[0]))
                f0[0], f0[1] = fx[0], fy[0]
            np.add(f0[0, :k], np.multiply(c1, fx[1], scratch), px)
            np.add(px, np.multiply(c2, fx[2], scratch), px)
            np.add(f0[1, :k], np.multiply(c1, fy[1], py), py)
            np.add(py, np.multiply(c2, fy[2], scratch), py)
            return out[:2].transpose(1, 2, 0)
        # c1 F1 first, whose shape and dtype the planes take: the helpers
        # that work them out from the columns cost more than the products
        # on the few parameters of a cusp-refinement step; as an array, as
        # it is the scratch plane (a 0-d product is a numpy scalar)
        scratch = np.asarray(c1 * fx[1])
        planes = np.empty((2,) + scratch.shape, dtype=np.result_type(scratch, fy[1]))
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
    that vanishes raises DegenerateLine, naming the first such parameter.
    """
    p, d = np.asarray(p), np.asarray(d)
    px, py, dx, dy = p[..., 0], p[..., 1], d[..., 0], d[..., 1]
    dd = dx ** 2 + dy ** 2
    bad = np.abs(dd) < 1e-24
    if bad.any():
        raise DegenerateLine(f"line direction vanishes near t={_param_at(t, bad):.6g}")
    w, gx, gy = (px * dx + py * dy) / dd, dx / dd, dy / dd
    # the y of F1 and the x of F2 are both dx dy / (d . d): one array
    q = gx * dy
    return (px - w * dx, gx * dx, q), (py - w * dy, q, gy * dy)


def _normal(v):
    """v turned a quarter turn counterclockwise."""
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


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
    otherwise."""
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
    # P(t) and P'(t) as arrays, as ellipse_point and ellipse_velocity give
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


# The complex step: a power of two, so dividing by it is exact, and small
# enough that its truncation error, of order _CS_STEP^2, is nil, yet large
# enough that the imaginary part of a curve of size 1e-250 stays normal.
_CS_STEP = 2.0 ** -64


def _points_at(evaluator: Callable, t) -> np.ndarray:
    """Points of an evaluator at the parameters t, of any shape, as one call
    on the flattened parameters; returns t.shape + (2,) floats."""
    t = np.asarray(t)
    return np.asarray(evaluator(t.ravel()), dtype=float).reshape(t.shape + (2,))


def _jet(evaluator: Callable, t, point: bool = False):
    """Points and derivative of a point evaluator at the parameters t, of
    any shape, as (p, v), each t.shape + (2,); p is None unless point.

    All parameters go in one complex-step call when the evaluator supports
    complex input: the real part gives the points, the imaginary part over
    the step the derivative.  An evaluator that discards the imaginary part
    gets central differences, again in one call, which holds the points
    themselves between the two probes of each parameter when point is
    asked for.  When the complex-step call raises, each parameter is tried
    alone, so only a parameter whose own complex step fails falls back to
    central differences.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape + (2,)
    try:
        p = np.asarray(evaluator(t.ravel() + 1j * _CS_STEP))
    except Exception:
        # any failure of the complex step, not only GeometryError: an
        # evaluator may reject complex input outright
        if t.size > 1:
            each = [_jet(evaluator, x, point) for x in t.ravel()]
            v = np.stack([v for _, v in each]).reshape(shape)
            return (np.stack([p for p, _ in each]).reshape(shape) if point else None), v
        p = None
    if p is None or p.dtype.kind != "c":
        dt = 1e-7
        pts = _points_at(evaluator, np.add.outer(t, (-dt, 0.0, dt) if point else (-dt, dt)))
        return (pts[..., 1, :] if point else None), (pts[..., -1, :] - pts[..., 0, :]) / (2 * dt)
    return (np.asarray(p.real, dtype=float).reshape(shape) if point else None,
            np.asarray(p.imag, dtype=float).reshape(shape) / _CS_STEP)


def _velocity_of(evaluator: Callable, t) -> np.ndarray:
    """Derivative of a point evaluator at the parameters t, of any shape;
    returns t.shape + (2,) (_jet without the points)."""
    return _jet(evaluator, t)[1]


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

    All candidates still moving go in one _velocity_of call per step.  At a
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
        v = _velocity_of(evaluator, np.stack([xs, xs + _GN_H], axis=1))
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


def _require_finite(curve: SampledCurve, what: str) -> None:
    if not np.all(np.isfinite(curve.points)):
        raise DomainError(f"{what} needs finite sample points")


def find_cusps(curve: SampledCurve, tol: float = 1e-5) -> np.ndarray:
    """Parameters (mod 2*pi) where the curve has a cusp.

    Grid speeds flag candidate minima.  With an evaluator, each is refined
    once, to the minimum of the true parametric speed within a step of its
    node, by Gauss-Newton steps on the velocity (_velocity_zeros); without
    one, it keeps its node and grid speed.  A candidate is a cusp when its
    speed drops below tol times the median grid speed *and* the velocity
    direction reverses across the point.  Both conditions together reject
    smooth slow spots and grazing near-cusps.  An outright velocity zero
    (speed below 1e-13 of the median) counts regardless of reversal: there
    the velocity vanishes to even order, as at the parameter where a pair
    of cusps is born, and its direction comes back unflipped.  A tol that
    is not finite and > 0 raises DomainError.

    The evaluator's velocity (complex step, else central differences;
    _velocity_of) must resolve each cusp: next to a singular parameter of
    the evaluator it is rounding noise, and a cusp there is missed.  The
    registry frames meet this: a pole on the ellipse goes through its
    reduced frame, finite at its own parameter s, while its rational
    negative pedal (negative_pedal_rational_frame, built by no public path)
    loses the deltoid's cusp at t = s.

    A candidate whose grid speed exceeds tol times the median by more than
    CUSP_BOUND_MARGIN * step * max|X''| (X'' from the grid's second
    differences) is dropped before any refinement: within a step of its
    node the speed changes by at most step * max|X''|, so it could never
    pass the slow test.  A curve whose candidates are all dropped makes no
    evaluator call.

    With an evaluator, all candidates are refined together: one evaluator
    call per Gauss-Newton step holds the two probes of every candidate
    still moving, and each candidate stops on its own.  One closing call
    gives the refined speeds and the velocities on both sides of every
    candidate.  A failed complex step falls back to central differences for
    its probe alone; any other GeometryError of a batched call propagates
    as it is, while a dropped candidate is never evaluated.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    n = len(curve)
    if n < 8:
        raise DomainError("cusp detection needs at least 8 samples")
    _require_finite(curve, "cusp detection")
    t = curve.params
    step = t[1] - t[0]
    # the coordinate planes wrapped: x[:-2], x[1:-1] and x[2:] hold the
    # nodes before, at and after each node
    x, y = _wrapped(curve.points[:, 0]), _wrapped(curve.points[:, 1])
    speed = np.hypot(x[2:] - x[:-2], y[2:] - y[:-2]) / (2 * step)
    ref = float(np.median(speed))
    if ref <= 0:
        raise DomainError("degenerate curve: median speed is zero")

    around = _wrapped(speed)
    k = np.flatnonzero((speed < around[:-2]) & (speed <= around[2:]))
    # the Taylor bound: step max|X''| from the second differences
    # d2 = step^2 X''
    d2 = np.hypot(x[2:] - 2 * x[1:-1] + x[:-2], y[2:] - 2 * y[1:-1] + y[:-2])
    bound = CUSP_BOUND_MARGIN * float(np.max(d2)) / step
    k = k[speed[k] <= bound + tol * ref]
    if not k.size:
        return np.empty(0)

    ev = curve.evaluator
    if ev is None:
        # a node keeps its grid speed, and its velocities are those of the
        # grid segments into and out of it
        seg = np.stack([x[2:] - x[1:-1], y[2:] - y[1:-1]], axis=-1) / step
        tr, s_min = t[k].tolist(), speed[k].tolist()
        vel = np.stack([seg[k - 1], seg[k]], axis=1)
    else:
        tr = _velocity_zeros(ev, t[k], step).tolist()
        # the refined speeds and the velocities across each point, one call
        v = _velocity_of(ev, np.array([[r, r - 1e-4, r + 1e-4] for r in tr]))
        s_min = [math.hypot(vx, vy) for vx, vy in v[:, 0].tolist()]
        vel = v[:, 1:]

    # a slow candidate is a cusp outright when its speed vanishes, else when
    # the velocity reverses across it
    slow = [r for r, s in enumerate(s_min) if not s >= tol * ref]
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


def _plane_hits(x1, y1, dx1, dy1, x2, y2, dx2, dy2):
    """_segment_hits on the coordinate planes of the two bundles."""
    den = dx1 * dy2 - dy1 * dx2
    rx, ry = x2 - x1, y2 - y1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rx * dy2 - ry * dx2) / den
        u = (rx * dy1 - ry * dx1) / den
    ok = (np.abs(den) > 1e-14) & (s >= 0) & (s < 1) & (u >= 0) & (u < 1)
    return ok, s, u


def _segment_hits(a1, d1, a2, d2):
    """Intersection fractions of segment bundles a + s d, half-open in [0, 1)."""
    return _plane_hits(a1[..., 0], a1[..., 1], d1[..., 0], d1[..., 1],
                       a2[..., 0], a2[..., 1], d2[..., 0], d2[..., 1])


def _candidate_hits(planes, y_lo, y_hi, order, first, shift, k0: int, k1: int):
    """Hits among the sweep's candidate pairs k0 .. k1-1, as (i, j, s, u) with i < j.

    planes holds the 1-d planes (x, y, dx, dy) of the segments, and y_lo
    and y_hi their padded y-extents.  The candidates of the sorted
    position p are first[p] .. first[p + 1] - 1, in one run, and
    candidate k pairs the segments at positions p and k - shift[p],
    shift[p] = first[p] - p - 1.  The chunk's positions are enumerated by
    run length, the runs at its two ends trimmed to it.  Adjacent pairs,
    the wrap pair and pairs whose y-extents do not overlap are dropped
    before the exact test: of the pairs whose x-extents overlap, most lie
    on branches far apart in y (a contrapedal at n = 2048: ~7,500
    candidates, ~15 left).
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
    i, j = i[keep], j[keep]
    del gap, keep
    ok, s, w = _plane_hits(*(c[i] for c in planes), *(c[j] for c in planes))
    return i[ok], j[ok], s[ok], w[ok]


def self_intersections(curve: SampledCurve, refine: bool = True,
                       block: int = 512) -> List[Crossing]:
    """Transversal self-crossings of the closed polyline through the samples.

    A sort-and-sweep prefilter (Shamos & Hoey 1976) picks the candidate
    pairs: the segments are sorted by the left end of their x-extent, and a
    binary search on each right end finds the segments that start before it
    ends.  Only these overlapping, non-adjacent pairs whose y-extents
    overlap too go through the exact intersection test, so the cost is
    about O(n log n + candidates) instead of n^2/2 tests; a smooth curve
    has a few candidates per segment.  The extents are padded by
    1e-12 * max|x| and 1e-12 * max|y|, so a pair whose segments touch up
    to roundoff stays a candidate.

    The candidates are tested in chunks of at most block * block pairs,
    which bounds the memory even when every x-extent overlaps.  The
    candidates of one sorted position are a run of consecutive positions,
    so a chunk lists its pairs by run length, and gathers each pair's
    coordinates from the 1-d planes x, y, dx and dy (_candidate_hits).
    Hits come in the order of a block-wise scan of the pairs i < j: sorted
    by (i // block, j // block, i, j).  With an attached evaluator the hits
    are polished by Newton steps on P(t1) = P(t2), all hits together: each
    step is one evaluator call on both parameters of every hit still
    moving, and one closing call gives the points (_polish_crossings).  A
    hit the sweep did not resolve, one that Newton moves by more than a
    twentieth of a step, is polished by re-intersecting resampled windows
    first, as the polish did before Newton steps.  P(t1) - P(t2) reaches roundoff, that of rounding t1 and
    t2 to doubles included, on grids that resolve the curve.  Parameters
    are reported inside the sampled window (the second one may exceed the
    start by up to a full period at the wrap segment), up to about a step.
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
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y

    pad = 1e-12 * float(np.max(np.abs(x)))
    x_end = x + dx
    lo = np.minimum(x, x_end) - pad
    hi = np.maximum(x, x_end) + pad
    ypad = 1e-12 * float(np.max(np.abs(y)))
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

    planes = (x, y, dx, dy)
    found = [_candidate_hits(planes, y_lo, y_hi, order, first, shift, k0, min(k0 + block * block, total))
             for k0 in range(0, total, block * block)]

    # never empty: neighbouring segments share a vertex, so their extents overlap
    i, j, s, u = (np.concatenate(col) for col in zip(*found))
    emit = np.lexsort((j, i, j // block, i // block))
    i, j, s, u = i[emit], j[emit], s[emit], u[emit]
    point = np.stack([x[i] + s * dx[i], y[i] + s * dy[i]], axis=-1)
    hits = [Crossing(point=p, t1=t1, t2=t2)
            for p, t1, t2 in zip(point, (t[i] + s * step).tolist(), (t[j] + u * step).tolist())]

    if refine and curve.evaluator is not None:
        hits = _polish_crossings(curve.evaluator, hits, float(step))
    return hits


# A crossing's Newton polish is done once quadratic convergence predicts
# its next step, |d|^3 / |d before|^2, to be at most _NEWTON_TTOL (a
# fraction of the spacing of doubles near 1); a done crossing takes no
# more steps, so the roundoff jitter of its steps cannot keep it going.
# From the sweep's estimate, within about step^2 times the curve's bending,
# that takes two or three steps at n = 2048 for a / b up to 2.4 and three
# or four at a / b = 5; coarser grids may take more, up to _NEWTON_CALLS.
_NEWTON_CALLS = 6
_NEWTON_TTOL = 1e-16
# A hit whose Newton polish moves a parameter by more than _FAR grid steps
# was not resolved by the sweep: another crossing may be as near to it.
# On random interior poles of the 2:1 ellipse at n = 2048 that is 3 in 100
# conjecture checks; the hits that Newton took to another crossing than
# the window polish did moved 0.097 steps or more (a / b from 1.25 to 5,
# n from 64 to 2048)
_FAR = 0.05

# the node numbers 0 .. 8 of a polish window
_NODES = np.arange(9.0)


def _newton_crossings(ev: Callable, tt: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Newton steps on F(t1, t2) = P(t1) - P(t2) from the parameter pairs
    tt, shape (m, 2), each parameter kept in [lo, hi]; returns the new pairs.

    Each step makes one _jet call on both parameters of every crossing
    still moving: P and P' (complex step, else central differences).  The
    2 by 2 system P'(t1) d1 - P'(t2) d2 = -F is solved by Cramer's rule; a
    singular or non-finite system gives no step.  Each crossing stops as
    the constants above say, and the calls stop when all have.  A
    GeometryError of a call propagates as it is, after _jet's
    per-parameter retry of a failed complex step.
    """
    tt = tt.copy()
    live, last = np.arange(len(tt)), np.zeros(len(tt))
    for _ in range(_NEWTON_CALLS):
        cur = tt[live]
        p, v = _jet(ev, cur, point=True)
        f = p[:, 0] - p[:, 1]
        a, b = v[:, 0], v[:, 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        live, last = live[going], moved[going]
    return tt


def _window_crossings(ev: Callable, tt: np.ndarray, width: float) -> np.ndarray:
    """Shrink the two parameter windows around the crossings tt, shape
    (m, 2), by re-intersection, all together; returns the new pairs.

    Each of 3 rounds resamples both windows of every crossing still being
    polished at 9 points, in one evaluator call for all of them, and
    intersects the two 8-segment arcs of each; the first hit in row-major
    (segment of the first arc, segment of the second) order becomes the
    crossing, and the windows shrink 6-fold around it.  A crossing whose
    arcs do not meet keeps its last estimate and stops.  A GeometryError of
    a round's call propagates as it is.
    """
    tt = tt.copy()
    rows = np.arange(len(tt))
    for _ in range(3):
        if not rows.size:
            break
        mid = tt[rows]
        lo, hi = mid - width, mid + width
        # np.linspace(lo, hi, 9, axis=-1), bit for bit: its own formula
        g = _NODES * ((hi - lo) / 8)[..., None] + lo[..., None]  # (m, 2, 9)
        g[..., 8] = hi
        p = _points_at(ev, g)
        x, y = p[..., 0], p[..., 1]
        dx, dy = np.diff(x, axis=-1), np.diff(y, axis=-1)
        ok, s, u = _plane_hits(x[:, 0, :-1, None], y[:, 0, :-1, None],
                               dx[:, 0, :, None], dy[:, 0, :, None],
                               x[:, 1, None, :-1], y[:, 1, None, :-1],
                               dx[:, 1, None, :], dy[:, 1, None, :])
        ok = ok.reshape(len(rows), 64)
        k = np.flatnonzero(ok.any(axis=1))
        # flat indices of the hit in s and u, and of the first node of
        # each arc's segment in g
        f = ok[k].argmax(axis=1)
        i, j = np.divmod(f, 8)
        f += 64 * k
        n1 = 18 * k + i
        n2 = n1 + (9 - i + j)
        nodes = g.reshape(-1)
        rows = rows[k]
        tt[rows, 0] = nodes[n1] + s.reshape(-1)[f] * (nodes[n1 + 1] - nodes[n1])
        tt[rows, 1] = nodes[n2] + u.reshape(-1)[f] * (nodes[n2 + 1] - nodes[n2])
        width /= 6.0
    return tt


def _polish_crossings(ev: Callable, hits: List[Crossing], width: float) -> List[Crossing]:
    """Refine every crossing, all together, by Newton steps on
    P(t1) = P(t2) from the sweep's estimate, each parameter within width
    (a grid step) of it (_newton_crossings); one closing call evaluates
    P(t1), the crossing's point.

    Where two branches cross at a small angle, a sweep hit may lie between
    two crossings of the curve, within a step of both, and Newton may take
    it to either; or the crossing may lie just beyond a step.  So a hit
    that Newton moves by more than _FAR steps is polished again from the
    sweep's estimate: by re-intersecting windows (_window_crossings), whose
    first hit in order of the first parameter is the crossing the
    window-only polish before Newton steps chose, then by Newton steps kept
    within its last window.
    """
    if not hits:
        return hits
    t0 = np.array([[c.t1, c.t2] for c in hits])
    tt = _newton_crossings(ev, t0, t0 - width, t0 + width)
    redo = np.abs(tt - t0).max(axis=1) > _FAR * width
    if redo.any():
        w, near = _window_crossings(ev, t0[redo], width), width / 36
        tt[redo] = _newton_crossings(ev, w, w - near, w + near)
    point = _points_at(ev, tt[:, 0])
    return [Crossing(point=pt, t1=t1, t2=t2) for pt, (t1, t2) in zip(point, tt.tolist())]
