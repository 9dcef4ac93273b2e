"""Signed areas, perimeters and curvature-weighted centroids.

Closed-form area constants live next to the quadrature that checks them.
The quadrature is spectral: the shoelace integral 1/2 int(x y' - y x') is
taken in Fourier space by Parseval's identity, from the real FFTs of the two
coordinate sample sequences, so it is exact for band-limited curves and
converges geometrically for analytic ones (Trefethen & Weideman, SIAM Rev.
2014).  A plain finite-difference shoelace stalls near 1e-6 relative error
at two thousand points, which is not enough to certify the invariants this
package is about.  Every certified area is re-run on a grid twice as fine;
settled() is that doubling test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Ellipse, SampledCurve, SupportCurve, as_xy, Point2
from .errors import (
    CollinearVertices,
    DegenerateLine,
    DomainError,
    QuadratureError,
    ZeroRotationIndex,
    ZeroTotalWeight,
)

TWO_PI = 2.0 * math.pi

# an area on n points is settled when its re-run on 2n points agrees to this
# relative tolerance (absolute below unit area)
DOUBLING_RTOL = 1e-9


class AreaFamily(str, Enum):
    """Curve families with a known closed-form signed area."""

    ELLIPSE = "ellipse"
    PEDAL = "pedal"
    CONTRAPEDAL = "contrapedal"
    ROTATED = "rotated"
    INTERPOLATED = "interpolated"
    HYBRID = "hybrid"
    PSEUDO_TALBOT = "pseudo_talbot"
    EVOLUTOID = "evolutoid"
    NEGATIVE_PEDAL = "negative_pedal"

    @classmethod
    def coerce(cls, value) -> "AreaFamily":
        try:
            return cls(value)
        except ValueError:
            raise DomainError(f"unknown curve family: {value!r}") from None


def _require_pole_on_boundary(e: Ellipse, m, family: str):
    if abs(e.implicit(m) - 1.0) > 1e-9:
        raise DomainError(
            f"{family} area constant holds only for poles on the ellipse; "
            f"got implicit value {e.implicit(m):.12g}")


def closed_form_area(family, e: Ellipse, m=(0.0, 0.0),
                     theta: float = 0.0, mu: float = 0.5) -> float:
    """Signed area of the family member, from the closed-form constants.

    m is the pole, theta the line rotation (rotated pedal) or the tangent
    crossing angle (evolutoid), mu the pedal/contrapedal blend.  Families
    whose constant only holds for poles on the ellipse (hybrid,
    pseudo-Talbot, negative pedal) reject other poles with DomainError.
    """
    fam = AreaFamily.coerce(family)
    a, b = e.a, e.b
    x0, y0 = as_xy(m)
    rho = x0 * x0 + y0 * y0
    base = math.pi * a * b
    if fam is AreaFamily.ELLIPSE:
        return base
    if fam is AreaFamily.PEDAL:
        return 0.5 * math.pi * (a * a + b * b + rho)
    if fam is AreaFamily.CONTRAPEDAL:
        return 0.5 * math.pi * ((a - b) ** 2 + rho)
    if fam is AreaFamily.ROTATED:
        return 0.5 * math.pi * (a * a + b * b - 2 * a * b * math.sin(theta) ** 2 + rho)
    if fam is AreaFamily.INTERPOLATED:
        ap = 0.5 * math.pi * (a * a + b * b + rho)
        ac = 0.5 * math.pi * ((a - b) ** 2 + rho)
        return (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base
    if fam is AreaFamily.HYBRID:
        _require_pole_on_boundary(e, m, "hybrid")
        return math.pi * (3 * a ** 4 + 2 * a * a * b * b + 3 * b ** 4) / (2 * a * b)
    if fam is AreaFamily.PSEUDO_TALBOT:
        _require_pole_on_boundary(e, m, "pseudo-Talbot")
        return (math.pi * (3 * a ** 4 + 2 * a * a * b * b + 3 * b ** 4)
                * (a * a - 2 * a * b - b * b) * (a * a + 2 * a * b - b * b)
                / (8 * a ** 3 * b ** 3))
    if fam is AreaFamily.EVOLUTOID:
        c4 = e.c2 * e.c2
        return (base * math.cos(theta) ** 2
                - (3 * math.pi * c4 / (8 * a * b)) * math.sin(theta) ** 2)
    if fam is AreaFamily.NEGATIVE_PEDAL:
        _require_pole_on_boundary(e, m, "negative pedal")
        return -math.pi * (a + b) ** 2 / 4
    raise DomainError(f"no closed-form area for family {family!r}")


# ---------------------------------------------------------------------------
# spectral quadrature


def _uniform_step(params: np.ndarray) -> float:
    if params.shape[-1] < 8:
        raise QuadratureError("quadrature needs at least 8 samples")
    gaps = np.diff(params, axis=-1)
    step = gaps.flat[0]
    # np.allclose(gaps, step, rtol=1e-12, atol=1e-12), without its temporaries
    if not np.max(np.abs(gaps - step)) <= 1e-12 + 1e-12 * abs(step):
        raise QuadratureError("quadrature requires a uniform parameter grid")
    return float(step)


def _single_curve_step(curve: SampledCurve) -> float:
    if curve.points.ndim != 2:
        raise DomainError("expected one sampled curve, not a stack")
    return _uniform_step(curve.params)


def _fft_derivative(vals: np.ndarray) -> np.ndarray:
    """Derivative of a 2*pi-periodic sample sequence, by spectral collocation."""
    n = vals.size
    k = 1j * np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # the lone Nyquist mode has no odd derivative partner
    return np.fft.ifft(k * np.fft.fft(vals)).real


def signed_area_quadrature(curve: SampledCurve):
    """Signed area 1/2 * integral(x y' - y x') of a closed sampled curve.

    With X = rfft(x) and Y = rfft(y) over the n samples, Parseval's identity
    turns the integral into A = -(4 pi / n^2) sum_k k Im(conj(X_k) Y_k); the
    lone Nyquist mode of an even n is left out, as a spectral derivative
    would zero it.  Periodic grids of a couple thousand points resolve
    analytic curves to machine precision.  The grid must be uniform and must
    cover exactly one period.  A stack of k curves (see SampledCurve) gives
    an array of k areas, each bitwise equal to the area of its curve alone.
    An area that overflows to a non-finite value raises QuadratureError.
    """
    step = _uniform_step(curve.params)
    n = curve.params.shape[-1]
    if abs(n * step - TWO_PI) > 1e-9:
        raise QuadratureError("sampled window must cover one full period")
    fx = np.fft.rfft(curve.points[..., 0], axis=-1)
    fy = np.fft.rfft(curve.points[..., 1], axis=-1)
    k = np.arange(fx.shape[-1], dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cross = fx.real * fy.imag - fx.imag * fy.real  # Im(conj(X_k) Y_k)
        area = np.asarray((-4.0 * math.pi / (n * n)) * np.sum(k * cross, axis=-1))
    bad = area[~np.isfinite(area)]
    if bad.size:
        raise QuadratureError(f"quadrature area is not finite ({float(bad[0])})")
    return float(area) if area.ndim == 0 else area


def settled(coarse, fine):
    """Whether an area on n points agrees with its re-run on 2n points.

    The test is |coarse - fine| <= DOUBLING_RTOL * max(1, |fine|); it works
    elementwise on arrays, and a NaN never settles.
    """
    return np.abs(coarse - fine) <= DOUBLING_RTOL * np.maximum(1.0, np.abs(fine))


def settled_area(coarse: float, fine: float) -> float:
    """The area on n points once settled() accepts it, else QuadratureError."""
    if not settled(coarse, fine):
        raise QuadratureError(f"quadrature not settled (gap {abs(coarse - fine):.3e})")
    return coarse


def perimeter_quadrature(curve: SampledCurve) -> float:
    """Closed-polyline length with one Richardson step against the half grid."""
    _single_curve_step(curve)
    pts = curve.points
    n = len(pts)
    seg = np.roll(pts, -1, axis=0) - pts
    full = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
    if n < 16 or n % 2:
        return full
    half_pts = pts[::2]
    hseg = np.roll(half_pts, -1, axis=0) - half_pts
    half = float(np.sum(np.hypot(hseg[:, 0], hseg[:, 1])))
    return full + (full - half) / 3.0


# ---------------------------------------------------------------------------
# support-function integrals


@dataclass(frozen=True)
class SupportAreas:
    """Signed areas of a support curve and of its evolute."""

    curve: float
    evolute: float


def _support_area_pair(s: SupportCurve, n: int):
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    h = np.asarray(s.h(t), dtype=float)
    dh = np.asarray(s.dh(t), dtype=float)
    d2h = np.asarray(s.d2h(t), dtype=float)
    w = 0.5 * TWO_PI / n
    return (w * np.sum(h * h - dh * dh), w * np.sum(dh * dh - d2h * d2h))


def support_areas(s: SupportCurve, n: int = 2048) -> SupportAreas:
    """Areas 1/2 int(h^2 - h'^2) and 1/2 int(h'^2 - h''^2) with a doubling check."""
    a1, e1 = _support_area_pair(s, n)
    a2, e2 = _support_area_pair(s, 2 * n)
    if not (settled(a1, a2) and settled(e1, e2)):
        raise QuadratureError(
            f"support-area quadrature did not settle at n={n} "
            f"(curve gap {abs(a1 - a2):.3e}, evolute gap {abs(e1 - e2):.3e})")
    return SupportAreas(curve=float(a2), evolute=float(e2))


def support_pedal_area(s: SupportCurve, m, n: int = 2048) -> float:
    """Pedal area about m in polar form: 1/2 int (h - m . n(t))^2 dt."""
    x0, y0 = as_xy(m)
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    r = np.asarray(s.h(t), dtype=float) - x0 * np.cos(t) - y0 * np.sin(t)
    return float(0.5 * (TWO_PI / n) * np.sum(r * r))


def support_contrapedal_area(s: SupportCurve, m, n: int = 2048) -> float:
    """Contrapedal area about m: 1/2 int (h' + m x n(t))^2 dt."""
    x0, y0 = as_xy(m)
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    g = np.asarray(s.dh(t), dtype=float) + x0 * np.sin(t) - y0 * np.cos(t)
    return float(0.5 * (TWO_PI / n) * np.sum(g * g))


# ---------------------------------------------------------------------------
# curvature-weighted centroids


def curvature_centroid_samples(curve: SampledCurve) -> Point2:
    """Centroid of a closed sampled curve weighted by curvature arc measure.

    The weight per node is kappa ds = (x' y'' - y' x'') / (x'^2 + y'^2) dt
    with spectral derivatives; its total is 2*pi times the rotation index.
    Curves of rotation index zero (figure-eights) have no such centroid and
    raise ZeroRotationIndex.
    """
    step = _single_curve_step(curve)
    x = curve.points[:, 0]
    y = curve.points[:, 1]
    dx, dy = _fft_derivative(x), _fft_derivative(y)
    ddx, ddy = _fft_derivative(dx), _fft_derivative(dy)
    w = (dx * ddy - dy * ddx) / (dx * dx + dy * dy)
    total = step * float(np.sum(w))
    if abs(total) <= 1e-9:
        raise ZeroRotationIndex(f"total signed curvature {total:.3e} is zero")
    kx = step * float(np.sum(w * x)) / total
    ky = step * float(np.sum(w * y)) / total
    return Point2(kx, ky)


def curvature_centroid_support(s: SupportCurve, n: int = 2048) -> Point2:
    """Curvature centroid of a support curve: (1/pi) (int h cos, int h sin)."""
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    h = np.asarray(s.h(t), dtype=float)
    w = TWO_PI / n / math.pi
    return Point2(w * float(np.sum(h * np.cos(t))), w * float(np.sum(h * np.sin(t))))


# ---------------------------------------------------------------------------
# polygons


@dataclass
class Polygon:
    """Closed polygon given by its vertex list (counterclockwise for area > 0)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise DomainError(f"polygon needs an (n, 2) vertex array with n >= 3, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("polygon vertices must be finite")
        self.vertices = v

    def __len__(self) -> int:
        return self.vertices.shape[0]


def polygon_signed_area(poly: Polygon) -> float:
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    return float(0.5 * np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def internal_angles(poly: Polygon) -> np.ndarray:
    """Unsigned vertex angles via the adjacent edge directions."""
    v = poly.vertices
    back = np.roll(v, 1, axis=0) - v
    fwd = np.roll(v, -1, axis=0) - v
    nb = np.hypot(back[:, 0], back[:, 1])
    nf = np.hypot(fwd[:, 0], fwd[:, 1])
    scale = float(np.max(np.abs(v))) or 1.0
    if np.min(nb) < 1e-12 * scale or np.min(nf) < 1e-12 * scale:
        raise CollinearVertices("polygon has a repeated vertex")
    # atan2 of |cross| and dot keeps angles near 0 and pi accurate, where
    # arccos of their cosine loses half the digits
    cross = back[:, 0] * fwd[:, 1] - back[:, 1] * fwd[:, 0]
    return np.arctan2(np.abs(cross), back[:, 0] * fwd[:, 0] + back[:, 1] * fwd[:, 1])


def curvature_centroid_polygon(poly: Polygon) -> Point2:
    """Vertex centroid weighted by sin of twice the internal angle.

    For a triangle this is the circumcenter.  Weights can cancel exactly
    (every rectangle does it), which raises ZeroTotalWeight.
    """
    ang = internal_angles(poly)
    w = np.sin(2.0 * ang)
    total = float(np.sum(w))
    if abs(total) <= 1e-12 * len(poly):
        raise ZeroTotalWeight(f"sin(2 angle) weights cancel (total {total:.3e})")
    v = poly.vertices
    return Point2(float(np.sum(w * v[:, 0])) / total, float(np.sum(w * v[:, 1])) / total)


def pedal_polygon(poly: Polygon, m) -> Polygon:
    """Feet of the perpendiculars from m onto the polygon's side lines."""
    p = as_xy(m)
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    dd = d[:, 0] ** 2 + d[:, 1] ** 2
    scale = float(np.max(np.abs(v))) or 1.0
    if np.min(dd) < (1e-12 * scale) ** 2:
        raise DegenerateLine("polygon has a zero-length side")
    u = ((p[0] - v[:, 0]) * d[:, 0] + (p[1] - v[:, 1]) * d[:, 1]) / dd
    return Polygon(v + u[:, None] * d)


def circumcenter(p1, p2, p3) -> Point2:
    """Center of the circle through three points; CollinearVertices if flat."""
    ax, ay = as_xy(p1)
    bx, by = as_xy(p2)
    cx, cy = as_xy(p3)
    ux, uy = bx - ax, by - ay
    vx, vy = cx - ax, cy - ay
    det = 2.0 * (ux * vy - uy * vx)
    scale = math.hypot(ux, uy) * math.hypot(vx, vy)
    if abs(det) <= 1e-12 * scale:
        raise CollinearVertices("circumcenter of collinear points")
    u2 = ux * ux + uy * uy
    v2 = vx * vx + vy * vy
    kx = ax + (vy * u2 - uy * v2) / det
    ky = ay + (ux * v2 - vx * u2) / det
    return Point2(kx, ky)
