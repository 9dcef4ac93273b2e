"""Core geometric types: ellipse, support-function curves, sampling grids.

Two parametrizations coexist deliberately.  The ellipse and everything built
on it in :mod:`pedallab.pedal` use the ellipse angle t with
P(t) = (a cos t, b sin t).  Support-function curves use the outward normal
angle.  The two are never converted pointwise; derived quantities (areas,
point sets) are compared instead.

All evaluators accept scalars or numpy arrays and are safe to call with
complex parameter values, which enables complex-step differentiation in the
cusp finder.

A pole is a point at every public entry, read once by as_xy; past that
read, code works on its plain coordinates (Ellipse.implicit_xy,
xy_on_ellipse and the frames of pedallab.pedal), which it trusts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .tolerances import ON_ELLIPSE_TOL

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Point2:
    """A finite point of the plane."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"point components must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


def as_xy(m) -> np.ndarray:
    """Normalize a Point2 / pair / array into a shape-(2,) float array."""
    if isinstance(m, Point2):
        return m.as_array()
    try:
        arr = np.asarray(m, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"expected a 2d point, got {m!r}") from None
    if arr.shape != (2,):
        raise DomainError(f"expected a 2d point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("point components must be finite")
    return arr


@dataclass(frozen=True)
class Ellipse:
    """Ellipse x^2/a^2 + y^2/b^2 = 1 with a >= b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("semi-axes must be finite")
        if not self.a >= self.b > 0:
            raise DomainError(f"require a >= b > 0, got a={self.a}, b={self.b}")

    @property
    def c2(self) -> float:
        """Squared linear eccentricity a^2 - b^2 (>= 0; circles allowed)."""
        return self.a * self.a - self.b * self.b

    def implicit(self, m):
        """x^2/a^2 + y^2/b^2 at the point m (as_xy), 1 on the boundary, or a
        (k,) array of values at a (k, 2) array of points."""
        return self.implicit_xy(*_points_xy(m))

    def implicit_xy(self, x, y):
        """x^2/a^2 + y^2/b^2 at plain coordinates x and y of any one shape,
        unchecked: the one expression of the implicit value.  Elementwise,
        so a point's value is bitwise the same alone and among others."""
        # squares by np.square, not **: a scalar ** 2 goes through pow(),
        # which can round differently from the array loop
        return np.square(x / self.a) + np.square(y / self.b)


def _points_xy(m):
    """x and y of the point m (as_xy), or the columns of a (k, 2) array."""
    return np.asarray(m, dtype=float).T if np.ndim(m) == 2 else as_xy(m)


def xy_on_ellipse(e: Ellipse, x, y):
    """Whether the points at plain coordinates x and y lie on the ellipse:
    their implicit value (Ellipse.implicit_xy) is 1 to ON_ELLIPSE_TOL.
    Unchecked and elementwise, for callers that have read their poles."""
    return abs(e.implicit_xy(x, y) - 1.0) <= ON_ELLIPSE_TOL


def pole_on_ellipse(e: Ellipse, m):
    """xy_on_ellipse of the pole m, or of each row of a (k, 2) array of
    poles, read as Ellipse.implicit reads them."""
    return xy_on_ellipse(e, *_points_xy(m))


def ellipse_point(e: Ellipse, t):
    """P(t) = (a cos t, b sin t); scalar t -> shape (2,), array -> (n, 2)."""
    t = np.asarray(t)
    return np.stack([e.a * np.cos(t), e.b * np.sin(t)], axis=-1)


def ellipse_velocity(e: Ellipse, t):
    """P'(t) = (-a sin t, b cos t); never the zero vector."""
    t = np.asarray(t)
    return np.stack([-e.a * np.sin(t), e.b * np.cos(t)], axis=-1)


@dataclass
class SupportCurve:
    """Convex-curve description by a support function h and its derivatives.

    h(t) is the signed distance from the origin to the tangent line whose
    outward normal has angle t.  The curve point is recovered by
    (h cos t - h' sin t, h sin t + h' cos t).
    """

    h: Callable
    dh: Callable
    d2h: Callable

    def __post_init__(self):
        probe = np.linspace(0.0, TWO_PI, 17)[:-1]
        vals = np.asarray(self.h(probe), dtype=float)
        scale = max(1.0, float(np.max(np.abs(vals))))
        gap = np.max(np.abs(np.asarray(self.h(probe + TWO_PI)) - vals))
        if gap > 1e-9 * scale:
            raise DomainError(f"support function is not 2*pi-periodic (gap {gap:.3e})")

    def is_convex(self, n: int = 1024) -> bool:
        """Radius of curvature h + h'' positive on an n-point grid."""
        t = np.arange(n) * TWO_PI / n
        return bool(np.all(np.asarray(self.h(t)) + np.asarray(self.d2h(t)) > 0))


def support_point(s: SupportCurve, t):
    """Point of the curve whose outward normal angle is t."""
    t = np.asarray(t)
    h = s.h(t)
    dh = s.dh(t)
    ct, st = np.cos(t), np.sin(t)
    return np.stack([h * ct - dh * st, h * st + dh * ct], axis=-1)


def ellipse_support(e: Ellipse) -> SupportCurve:
    """Center-based support function of the ellipse, with analytic derivatives."""
    a2, b2 = e.a * e.a, e.b * e.b
    c2 = e.c2

    def h(t):
        t = np.asarray(t)
        # argument is >= b^2 > 0 for real t; complex t continues analytically
        return np.sqrt(a2 * np.cos(t) ** 2 + b2 * np.sin(t) ** 2)

    def dh(t):
        t = np.asarray(t)
        return -(c2 / 2.0) * np.sin(2 * t) / h(t)

    def d2h(t):
        t = np.asarray(t)
        ht = h(t)
        return -c2 * np.cos(2 * t) / ht - (c2 * c2 / 4.0) * np.sin(2 * t) ** 2 / ht ** 3

    return SupportCurve(h=h, dh=dh, d2h=d2h)


@dataclass(frozen=True)
class ParamGrid:
    """Uniform periodic grid t_k = start + (k + offset) * 2*pi / count.

    The fractional offset shifts every node by the same sub-step amount,
    which keeps quadrature weights uniform while dodging isolated singular
    parameters (the CLI samples a pole P(s) on the ellipse at start=s with
    offset=1/2).  With offset 0 and start 0 the grid nests: its nodes are
    the even nodes of the grid of twice the count, bit for bit.
    """

    count: int
    start: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.count, numbers.Integral):
            raise DomainError(f"grid count must be an int, got {self.count!r}")
        if self.count < 8:
            raise DomainError(f"grid count must be >= 8, got {self.count}")
        if not 0.0 <= self.offset < 1.0:
            raise DomainError(f"grid offset must lie in [0, 1), got {self.offset}")
        if not math.isfinite(self.start):
            raise DomainError("grid start must be finite")

    def nodes(self) -> np.ndarray:
        return self.start + (np.arange(self.count) + self.offset) * (TWO_PI / self.count)

    @property
    def step(self) -> float:
        return TWO_PI / self.count


@dataclass
class SampledCurve:
    """Closed polyline of curve samples, the exchange format for quadrature.

    One curve: params of shape (n,), points of shape (n, 2).  The optional
    evaluator is the function the samples came from; detectors use it to
    refine features below the grid resolution.
    """

    params: np.ndarray
    points: np.ndarray
    evaluator: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.params.ndim != 1 or self.points.shape != self.params.shape + (2,):
            raise DomainError(
                f"points shape {self.points.shape} does not match params shape {self.params.shape}")
        if not np.all(np.diff(self.params) > 0):
            raise DomainError("params must be strictly increasing")

    def __len__(self) -> int:
        return len(self.params)


def finite_rows(t, points) -> np.ndarray:
    """points, shape (n, 2) on the n nodes t, once every row is finite;
    else EvaluationError naming the first node whose point is not."""
    bad = ~np.isfinite(points).all(axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise EvaluationError(
            f"curve evaluation failed at t={float(t[k])!r}: non-finite point", node=t[k])
    return points


def sample_curve(f: Callable, grid: ParamGrid) -> SampledCurve:
    """Evaluate f on the grid nodes, in one call; failures name the
    offending node.  A non-finite point is named at its node (finite_rows).
    Only a call that raises or returns the wrong shape is replayed node by
    node, to name the first node that raises or is non-finite."""
    t = grid.nodes()
    try:
        pts = np.asarray(f(t), dtype=float)
        vectorized = pts.shape == (t.size, 2)
    except Exception:
        vectorized = False
    if not vectorized:
        pts = np.empty((t.size, 2))
        for k, tk in enumerate(t):
            try:
                pts[k] = np.asarray(f(tk), dtype=float).reshape(2)
            except Exception as exc:
                # a non-finite node before it comes first
                finite_rows(t[:k], pts[:k])
                raise EvaluationError(
                    f"curve evaluation failed at t={float(tk)!r}: {exc}", node=tk) from exc
    return SampledCurve(params=t, points=finite_rows(t, pts), evaluator=f)
