"""Reference computations that only the tests read.

Each is a second route to a quantity that a test compares with the
package's own, or the one route to a paper claim that no report
certifies: the support-function pedal of a body that is not an ellipse
(acceptance claim c02), the evolutoid's area by the support route (c09a)
with the ellipse's analytic h'' that it needs, the evolutoid's perimeter
(c09c) and the triangle's circumcenter (c10).
They stay out of the package's public surface, as bench/reference.py
keeps the benchmark's reference outside it.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from pedallab import ParamGrid, Point2


def ellipse_velocity(e, t):
    """P'(t) = (-a sin t, b cos t) of the ellipse P(t) = (a cos t, b sin t)."""
    t = np.asarray(t)
    return np.stack([-e.a * np.sin(t), e.b * np.cos(t)], axis=-1)


class Support(NamedTuple):
    """A support function h and its derivative dh, in the outward normal angle."""

    h: Callable
    dh: Callable


def support_point(s, t):
    """The point of the support curve s (h and dh) whose outward normal
    angle is t: (h cos t - h' sin t, h sin t + h' cos t)."""
    t = np.asarray(t)
    h, dh = s.h(t), s.dh(t)
    ct, st = np.cos(t), np.sin(t)
    return np.stack([h * ct - dh * st, h * st + dh * ct], axis=-1)


def support_pedal_point(s, t, m):
    """The foot from the pole m onto the tangent line of s whose outward
    normal n has angle t: m + (h - m . n) n."""
    t = np.asarray(t)
    n = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return m + (s.h(t) - n @ np.asarray(m))[..., None] * n


def ellipse_d2h(e) -> Callable:
    """h'' of the ellipse's center-based support function h (as
    pedallab.ellipse_support builds it), analytic:
    h'' = -c^2 cos 2t / h - (c^4 / 4) sin^2 2t / h^3, c^2 = a^2 - b^2."""
    a2, b2, c2 = e.a * e.a, e.b * e.b, e.c2

    def d2h(t):
        t = np.asarray(t)
        h = np.sqrt(a2 * np.cos(t) ** 2 + b2 * np.sin(t) ** 2)
        return -c2 * np.cos(2 * t) / h - (c2 * c2 / 4.0) * np.sin(2 * t) ** 2 / h ** 3

    return d2h


def evolutoid_support(s, d2h: Callable, theta: float) -> Support:
    """The evolutoid of a support curve s whose h'' is d2h, whose lines
    cross s at the angle theta to its tangent: h_theta(t) =
    h(t - theta) cos theta + h'(t - theta) sin theta, and its derivative."""
    c, si = math.cos(theta), math.sin(theta)
    return Support(h=lambda t: s.h(t - theta) * c + s.dh(t - theta) * si,
                   dh=lambda t: s.dh(t - theta) * c + d2h(t - theta) * si)


def support_area(s, n: int = 4096) -> float:
    """Signed area 1/2 int (h^2 - h'^2) dt of the support curve s, on
    ParamGrid(n, offset=0.5); Support(s.dh, d2h) gives its evolute's."""
    t = ParamGrid(n, offset=0.5).nodes()
    h, dh = s.h(t), s.dh(t)
    return 0.5 * (2.0 * math.pi / n) * float(np.sum(h * h - dh * dh))


def polyline_perimeter(points) -> float:
    """Length of the closed curve sampled at the rows of points, on a
    uniform grid of one period: the polyline's length, with one Richardson
    step against the polyline of the even samples."""
    def length(p):
        seg = np.roll(p, -1, axis=0) - p
        return float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))

    full, half = length(points), length(points[::2])
    return full + (full - half) / 3.0


def circumcenter(p1, p2, p3) -> Point2:
    """Center of the circle through three points that are not collinear."""
    (ax, ay), (bx, by), (cx, cy) = p1, p2, p3
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    det = 2.0 * (ux * vy - uy * vx)
    u2, v2 = ux * ux + uy * uy, vx * vx + vy * vy
    return Point2(ax + (vy * u2 - uy * v2) / det, ay + (ux * v2 - vx * u2) / det)


def internal_angles(v) -> np.ndarray:
    """The unsigned angles at the vertices, the rows of v, of a polygon."""
    back, fwd = np.roll(v, 1, axis=0) - v, np.roll(v, -1, axis=0) - v
    cross = back[:, 0] * fwd[:, 1] - back[:, 1] * fwd[:, 0]
    return np.arctan2(np.abs(cross), np.sum(back * fwd, axis=1))
