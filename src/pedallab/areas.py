"""The curve-family registry; signed areas, perimeters and curvature-weighted
centroids.

FAMILIES declares each curve family once: its closed-form area, its point
evaluator and where its pole lives.  The closed forms live next to the
quadrature that checks them.  The quadrature is spectral: the shoelace
integral 1/2 int(x y' - y x') is taken in Fourier space by Parseval's
identity, from the real FFTs of the two coordinate sample sequences, so it
is exact for band-limited curves and converges geometrically for analytic
ones (Trefethen & Weideman, SIAM Rev. 2014).  A plain finite-difference
shoelace stalls near 1e-6 relative error at two thousand points, which is
not enough to certify the invariants this package is about.
area_rule(params) checks a row of parameters once and returns the
quadrature for any curve or stack of curves sampled on it; the area of a
SampledCurve is area_rule(curve.params)(curve.points).  Every certified
area is re-run on a grid twice as fine; settled() is that doubling test,
and doubling_rule(params) gives both of its areas from one rfft of the
samples on the fine row.  Scans, the identity suite and the CLI's area
command sample once, on the fine row, and take both areas from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .curves import (
    Ellipse,
    ParamGrid,
    Point2,
    SampledCurve,
    SupportCurve,
    as_xy,
    ellipse_point,
    pole_on_ellipse,
)
from .errors import (
    CollinearVertices,
    DegenerateLine,
    DomainError,
    QuadratureError,
    ZeroRotationIndex,
    ZeroTotalWeight,
)
from .pedal import (
    contrapedal_frame,
    hybrid_frame,
    interpolated_frame,
    negative_pedal_frame,
    pedal_frame,
    pseudo_talbot_frame,
    rotated_frame,
)
from .tolerances import DOUBLING_RTOL, GRID_STEP_TOL, PERIOD_TOL, TURNING_TOL

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One curve family, declared once.

    name is the family's command-line name.  area(a, b, rho, theta, mu) is
    its closed-form signed area for a pole at squared distance rho from the
    center.  frame(e, t, theta, mu) does the family's work on the ellipse
    parameters t alone and returns points(x, y, out=None), the points for
    the pole at the plain coordinates (x, y), which it trusts: floats for
    one pole, or (k, 1) arrays for a chunk of k poles, one curve per pole.
    out is an optional real (3, k, n) workspace for a chunk on n real
    parameters: an affine frame writes its two coordinate planes into
    out[:2], through the scratch plane out[2], and returns a view of it,
    valid until the workspace is used again; any other frame may ignore
    it (see pedal._affine_frame).  A frame keeps nothing between calls, so
    each pole's points are bitwise the same in a chunk of any height, or
    alone.  It is the family's one point evaluator, which
    harness.family_evaluator calls on the one pole it has read and
    harness.scan on the coordinates of its locus poles; the evolutoid has
    no pole and no frame.  Every frame
    has one shape: three columns per coordinate, F0 + c1 F1 + c2 F2, affine
    in (c1, c2) = (x, y) of the pole for the Steiner families and in
    (cos s, sin s) of a pole P(s) on the ellipse for the boundary families;
    only the negative pedal's pencil, for a pole off the ellipse, is not
    affine (see pedal._affine_frame).  The hybrid is the negative pedal
    reflected in P(t), H = 2P(t) - N: both lie on the line through P(t)
    perpendicular to P(t) - m, and P' . (H - P) = (m - P) . P' =
    -P' . (N - P) (see pedal.hybrid_frame).  Every family is sampled on
    ParamGrid(n), whose n nodes are the even nodes of its 2n grid.
    on_ellipse marks the families whose closed form holds only for poles on
    the ellipse (curves.pole_on_ellipse); hybrid and negative pedal serve
    such a pole from their reduced form, finite at its own parameter.
    ellipse_pole_only marks the family that has no points at all for a pole
    off the ellipse (pseudo-Talbot), which family_evaluator, scan and the
    CLI refuse.
    """

    name: str
    area: Callable
    frame: Optional[Callable]
    on_ellipse: bool = False
    ellipse_pole_only: bool = False

    @staticmethod
    def of(value) -> "Family":
        """The entry of a family given by name or AreaFamily member."""
        return FAMILIES[AreaFamily.coerce(value).value]


def _ellipse_frame(e: Ellipse, t) -> Callable:
    """The ellipse's points(x, y, out=None): P(t), evaluated once with the
    frame and returned by every call, whatever the pole; a scan broadcasts
    the one curve to the poles of a chunk, and out is ignored."""
    p = ellipse_point(e, t)
    return lambda x, y, out=None: p


def _interpolated_area(a, b, rho, theta, mu):
    ap = 0.5 * math.pi * (a * a + b * b + rho)
    ac = 0.5 * math.pi * ((a - b) ** 2 + rho)
    base = math.pi * a * b
    return (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base


def _pseudo_talbot_area(a, b, rho, theta, mu):
    return (math.pi * (3 * a ** 4 + 2 * a * a * b * b + 3 * b ** 4)
            * (a * a - 2 * a * b - b * b) * (a * a + 2 * a * b - b * b)
            / (8 * a ** 3 * b ** 3))


def _evolutoid_area(a, b, rho, theta, mu):
    c2 = a * a - b * b
    c4 = c2 * c2
    return (math.pi * a * b * math.cos(theta) ** 2
            - (3 * math.pi * c4 / (8 * a * b)) * math.sin(theta) ** 2)


# in command-line order; AreaFamily, harness.SCANNABLE and the CLI's --family
# choices are derived from it
FAMILIES = {f.name: f for f in (
    Family("ellipse", lambda a, b, rho, theta, mu: math.pi * a * b,
           lambda e, t, theta, mu: _ellipse_frame(e, t)),
    Family("pedal", lambda a, b, rho, theta, mu: 0.5 * math.pi * (a * a + b * b + rho),
           lambda e, t, theta, mu: pedal_frame(e, t)),
    Family("contrapedal", lambda a, b, rho, theta, mu: 0.5 * math.pi * ((a - b) ** 2 + rho),
           lambda e, t, theta, mu: contrapedal_frame(e, t)),
    Family("rotated", lambda a, b, rho, theta, mu: 0.5 * math.pi * (
               a * a + b * b - 2 * a * b * math.sin(theta) ** 2 + rho),
           lambda e, t, theta, mu: rotated_frame(e, t, theta)),
    Family("interpolated", _interpolated_area,
           lambda e, t, theta, mu: interpolated_frame(e, t, mu)),
    Family("hybrid", lambda a, b, rho, theta, mu: (
               math.pi * (3 * a ** 4 + 2 * a * a * b * b + 3 * b ** 4) / (2 * a * b)),
           lambda e, t, theta, mu: hybrid_frame(e, t), on_ellipse=True),
    Family("pseudo_talbot", _pseudo_talbot_area,
           lambda e, u, theta, mu: pseudo_talbot_frame(e, u), on_ellipse=True,
           ellipse_pole_only=True),
    Family("negative_pedal", lambda a, b, rho, theta, mu: (
               -math.pi * (a * a - b * b) ** 2 / (2 * a * b)),
           lambda e, t, theta, mu: negative_pedal_frame(e, t), on_ellipse=True),
    Family("evolutoid", _evolutoid_area, None),
)}


class _FamilyName(str, Enum):
    """Base of AreaFamily, whose members come from the registry."""

    @classmethod
    def coerce(cls, value) -> "AreaFamily":
        try:
            return cls(value)
        except ValueError:
            raise DomainError(f"unknown curve family: {value!r}") from None


# one member per registry entry, valued by its name: AreaFamily.PEDAL == "pedal"
AreaFamily = _FamilyName("AreaFamily", [(name.upper(), name) for name in FAMILIES],
                         module=__name__)


def closed_form_areas(family, e: Ellipse, poles: np.ndarray,
                      theta: float = 0.0, mu: float = 0.5):
    """Closed-form signed areas of the family for a (k, 2) array of poles.

    Returns (areas, holds), two (k,) arrays: the family's closed form at
    each pole, and whether it holds there.  It holds everywhere except for
    the families whose constant holds only for poles on the ellipse
    (hybrid, pseudo-Talbot, negative pedal), at poles off it.  Each area
    is bitwise closed_form_area of its pole alone.  A pole so far out that
    its form overflows gets a non-finite area, and no numpy warning.
    """
    fam = Family.of(family)
    x, y = poles[:, 0], poles[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        areas = np.broadcast_to(fam.area(e.a, e.b, x * x + y * y, theta, mu), x.shape)
    holds = pole_on_ellipse(e, poles) if fam.on_ellipse else np.ones(x.shape, dtype=bool)
    return areas, holds


def closed_form_area(family, e: Ellipse, m=(0.0, 0.0),
                     theta: float = 0.0, mu: float = 0.5) -> float:
    """Signed area of the family member, from the closed-form constants.

    m is the pole, theta the line rotation (rotated pedal) or the tangent
    crossing angle (evolutoid), mu the pedal/contrapedal blend.  Families
    whose constant only holds for poles on the ellipse (hybrid,
    pseudo-Talbot, negative pedal) reject other poles with DomainError.
    It is closed_form_areas for one pole.
    """
    fam = Family.of(family)
    pole = as_xy(m)
    areas, holds = closed_form_areas(fam.name, e, pole[None], theta, mu)
    if not holds[0]:
        raise DomainError(
            f"{fam.name} area constant holds only for poles on the ellipse; "
            f"got implicit value {e.implicit(pole):.12g}")
    return float(areas[0])


# ---------------------------------------------------------------------------
# spectral quadrature


def _periodic_step(params) -> float:
    """The step of a periodic row of parameters, checked: one row, strictly
    increasing (else DomainError), at least 8 samples, one uniform step and
    exactly one period (else QuadratureError).  Every quadrature here
    (area_rule, perimeter_quadrature, curvature_centroid_samples) assumes
    all of it."""
    params = np.asarray(params, dtype=float)
    if params.ndim != 1:
        raise DomainError(f"expected one row of params, got shape {params.shape}")
    gaps = np.diff(params)
    if not np.all(gaps > 0):
        raise DomainError("params must be strictly increasing")
    if params.size < 8:
        raise QuadratureError("quadrature needs at least 8 samples")
    step = gaps[0]
    # np.allclose(gaps, step, rtol=GRID_STEP_TOL, atol=GRID_STEP_TOL), without its temporaries
    if not np.max(np.abs(gaps - step)) <= GRID_STEP_TOL + GRID_STEP_TOL * abs(step):
        raise QuadratureError("quadrature requires a uniform parameter grid")
    if abs(params.size * step - TWO_PI) > PERIOD_TOL:
        raise QuadratureError("sampled window must cover one full period")
    return float(step)


def _fft_derivative(vals: np.ndarray) -> np.ndarray:
    """Derivative of a 2*pi-periodic sample sequence, by spectral collocation."""
    n = vals.size
    k = 1j * np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # the lone Nyquist mode has no odd derivative partner
    return np.fft.ifft(k * np.fft.fft(vals)).real


def _mode_weights(n: int):
    """The weights k of the modes 0..n//2 of an n-point rfft, the lone
    Nyquist mode of an even n zeroed as a spectral derivative would zero
    it, and the scale -4 pi / n^2 of the Parseval area."""
    k = np.arange(n // 2 + 1, dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0
    return k, -4.0 * math.pi / (n * n)


def _spectral_areas(re, im, k, scale) -> np.ndarray:
    """scale * sum_k k Im(conj(X_k) Y_k) over the last axis, from the real
    and the imaginary parts of the spectra X and Y, each stacked (X, Y).
    k is the row of mode weights, broadcast over a stack's rows."""
    # Im(conj(X_k) Y_k), weighted in place
    cross = re[0] * im[1]
    cross -= im[0] * re[1]
    cross *= k
    # np.sum's own reduction, without its wrapper
    return np.asarray(scale * np.add.reduce(cross, axis=-1))


def _finite(area: np.ndarray) -> np.ndarray:
    """area itself when all of it is finite, else QuadratureError."""
    ok = np.isfinite(area)
    if not ok.all():
        raise QuadratureError(f"quadrature area is not finite ({float(area[~ok][0])})")
    return area


def _planes_spectra(points, size: int):
    """rfft of both coordinate planes of points on a row of size params, in
    one call; points of another shape raise DomainError."""
    points = np.asarray(points)
    if points.shape[-2:] != (size, 2):
        raise DomainError(f"points of shape {points.shape} are not on {size} params")
    # np.moveaxis(points, -1, 0), without its axis checks
    return np.fft.rfft(points.transpose(-1, *range(points.ndim - 1)), axis=-1)


def area_rule(params) -> Callable:
    """The spectral area rule of one row of n parameters.

    The row is checked here, once: one row, at least 8 samples, strictly
    increasing, one uniform step, exactly one period.  Returns rule(points),
    the signed area 1/2 * integral(x y' - y x') of the closed curve sampled
    at the row, points of shape (n, 2), or an array of k areas for a stack
    of k curves on the row, points of shape (k, n, 2); each is bitwise the
    area of its curve alone.  With X = rfft(x) and Y = rfft(y) over the n
    samples, Parseval's identity turns the integral into
    A = -(4 pi / n^2) sum_k k Im(conj(X_k) Y_k); the lone Nyquist mode of an
    even n is left out, as a spectral derivative would zero it.  Periodic
    grids of a couple thousand points resolve analytic curves to machine
    precision.  A row that fails a check raises DomainError (not one row,
    not increasing) or QuadratureError; points of another shape raise
    DomainError, and an area that overflows to a non-finite value raises
    QuadratureError.  Scans, the identity suite and the CLI's area command
    take their areas from doubling_rule instead.
    """
    _periodic_step(params)
    n = np.shape(params)[0]
    k, scale = _mode_weights(n)

    def rule(points):
        # non-finite samples or products give a non-finite area, refused here
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = _planes_spectra(points, n)
            area = _finite(_spectral_areas(spectra.real, spectra.imag, k, scale))
        return float(area) if area.ndim == 0 else area

    return rule


def doubling_rule(params) -> Callable:
    """The area rule of the doubling check, on the row of 2n parameters.

    The row is checked once, as by area_rule, and must be even and at
    least 16 long (else QuadratureError).  Returns rule(points), the areas
    (coarse, fine) of a curve sampled on the row, shape (2,), or of a stack
    of k curves, points (k, 2n, 2) and areas (2, k); each is bitwise the
    pair of its curve alone.  fine is area_rule(params)(points), bitwise.
    coarse is the area on the n even samples, taken from the same rfft:
    with F the rfft over all 2n samples, the n-point DFT of the even
    samples is X[k] = (F[k] + conj(F[n - k])) / 2, the aliasing identity
    behind the trapezoidal rule (Trefethen & Weideman, SIAM Rev. 2014).
    coarse sums the modes k < n/2: the lone Nyquist mode of an even n is
    left out, as area_rule leaves it out.  coarse agrees with
    area_rule(params[::2]) on the even samples to roundoff, not bitwise.
    Points of another shape raise DomainError, and an area that overflows
    to a non-finite value, coarse first, raises QuadratureError.

    A stack goes to the rfft as its two coordinate planes, a transposed
    view of points, with no copy.  Past the rfft, coarse takes the two
    mirror folds (real and imaginary parts, both planes at once), and each
    area its cross products, their weighting by the mode k and the row
    sums, the rows of mode weights broadcast over the stack.  The rule
    keeps nothing between calls: each curve's pair is bitwise the same in
    a stack of any height, or alone.
    """
    _periodic_step(params)
    size = np.shape(params)[0]
    if size % 2 or size < 16:
        raise QuadratureError(
            f"the doubling check needs an even row of at least 16 params, got {size}")
    n = size // 2
    k_fine, scale_fine = _mode_weights(size)
    half = (n + 1) // 2
    k_coarse = np.arange(half, dtype=float)
    # the folded modes are 2 X[k], so their cross products are 4 times the
    # coarse ones: a quarter of the scale -4 pi / n^2, exactly
    scale_coarse = -math.pi / (n * n)

    def rule(points):
        # non-finite samples or products give a non-finite area, refused here
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = _planes_spectra(points, size)
            re, im = spectra.real, spectra.imag
            rows = spectra.shape[1:-1]
            area = np.empty((2,) + rows)
            # 2 X[k] = F[k] + conj(F[n - k]) for k < n/2, both planes at once
            area[0] = _spectral_areas(re[..., :half] + re[..., n:n - half:-1],
                                      im[..., :half] - im[..., n:n - half:-1],
                                      k_coarse, scale_coarse)
            area[1] = _spectral_areas(re, im, k_fine, scale_fine)
        return _finite(area)

    return rule


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
    """Closed-polyline length with one Richardson step against the half grid.
    The grid must be uniform and must cover exactly one period."""
    _periodic_step(curve.params)
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
# support-function curves and integrals


@dataclass(frozen=True)
class SupportAreas:
    """Signed areas of a support curve and of its evolute."""

    curve: float
    evolute: float


def _support_area_pair(s: SupportCurve, n: int):
    t = ParamGrid(n, offset=0.5).nodes()
    h = np.asarray(s.h(t), dtype=float)
    dh = np.asarray(s.dh(t), dtype=float)
    d2h = np.asarray(s.d2h(t), dtype=float)
    w = 0.5 * TWO_PI / n
    return (w * np.sum(h * h - dh * dh), w * np.sum(dh * dh - d2h * d2h))


def support_areas(s: SupportCurve, n: int = 2048) -> SupportAreas:
    """Areas 1/2 int(h^2 - h'^2) and 1/2 int(h'^2 - h''^2) with a doubling
    check, on ParamGrid(n, offset=0.5) and its 2n grid; an n that is not an
    int >= 8 raises DomainError, as for every support-route integral."""
    a1, e1 = _support_area_pair(s, n)
    a2, e2 = _support_area_pair(s, 2 * n)
    if not (settled(a1, a2) and settled(e1, e2)):
        raise QuadratureError(
            f"support-area quadrature did not settle at n={n} "
            f"(curve gap {abs(a1 - a2):.3e}, evolute gap {abs(e1 - e2):.3e})")
    return SupportAreas(curve=float(a2), evolute=float(e2))


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


def support_pedal_area(s: SupportCurve, m, n: int = 2048) -> float:
    """Pedal area about m in polar form: 1/2 int (h - m . n(t))^2 dt."""
    x0, y0 = as_xy(m)
    t = ParamGrid(n, offset=0.5).nodes()
    r = np.asarray(s.h(t), dtype=float) - x0 * np.cos(t) - y0 * np.sin(t)
    return float(0.5 * (TWO_PI / n) * np.sum(r * r))


def support_contrapedal_area(s: SupportCurve, m, n: int = 2048) -> float:
    """Contrapedal area about m: 1/2 int (h' + m x n(t))^2 dt."""
    x0, y0 = as_xy(m)
    t = ParamGrid(n, offset=0.5).nodes()
    g = np.asarray(s.dh(t), dtype=float) + x0 * np.sin(t) - y0 * np.cos(t)
    return float(0.5 * (TWO_PI / n) * np.sum(g * g))


# ---------------------------------------------------------------------------
# curvature-weighted centroids


def curvature_centroid_samples(curve: SampledCurve) -> Point2:
    """Centroid of a closed sampled curve weighted by curvature arc measure.

    The weight per node is kappa ds = (x' y'' - y' x'') / (x'^2 + y'^2) dt
    with spectral derivatives, on a grid that covers one period.  The
    tangent of a closed curve turns by 2 pi k, and each cusp flips it by
    pi, so a resolved total is a multiple of pi; a total that is not, to
    TURNING_TOL, raises QuadratureError.  That is the grid's failure, most
    often a cusp on a node, where the weight's denominator vanishes.  A
    total of zero turns (figure-eights) has no centroid and raises
    ZeroRotationIndex.
    """
    step = _periodic_step(curve.params)
    x = curve.points[:, 0]
    y = curve.points[:, 1]
    dx, dy = _fft_derivative(x), _fft_derivative(y)
    ddx, ddy = _fft_derivative(dx), _fft_derivative(dy)
    w = (dx * ddy - dy * ddx) / (dx * dx + dy * dy)
    total = step * float(np.sum(w))
    turns = round(total / math.pi) if math.isfinite(total) else 0
    if not abs(total - turns * math.pi) <= TURNING_TOL:
        raise QuadratureError(
            f"total signed curvature {total:.6g} is not a multiple of pi: the grid does "
            "not resolve the curve's turning (a cusp on a node?)")
    if turns == 0:
        raise ZeroRotationIndex(f"total signed curvature {total:.3e} is zero")
    kx = step * float(np.sum(w * x)) / total
    ky = step * float(np.sum(w * y)) / total
    return Point2(kx, ky)


def curvature_centroid_support(s: SupportCurve, n: int = 2048) -> Point2:
    """Curvature centroid of a support curve: (1/pi) (int h cos, int h sin)."""
    t = ParamGrid(n, offset=0.5).nodes()
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


def _corners(poly: Polygon):
    """|back x fwd|, back . fwd, |back|^2 and |fwd|^2 at each vertex, for
    the edges back to the previous vertex and forward to the next; a
    repeated vertex raises CollinearVertices."""
    v = poly.vertices
    back = np.roll(v, 1, axis=0) - v
    fwd = np.roll(v, -1, axis=0) - v
    nb = np.hypot(back[:, 0], back[:, 1])
    nf = np.hypot(fwd[:, 0], fwd[:, 1])
    scale = float(np.max(np.abs(v))) or 1.0
    if np.min(nb) < 1e-12 * scale or np.min(nf) < 1e-12 * scale:
        raise CollinearVertices("polygon has a repeated vertex")
    cross = back[:, 0] * fwd[:, 1] - back[:, 1] * fwd[:, 0]
    return (np.abs(cross), back[:, 0] * fwd[:, 0] + back[:, 1] * fwd[:, 1],
            back[:, 0] ** 2 + back[:, 1] ** 2, fwd[:, 0] ** 2 + fwd[:, 1] ** 2)


def internal_angles(poly: Polygon) -> np.ndarray:
    """Unsigned vertex angles via the adjacent edge directions."""
    cross, dot, _, _ = _corners(poly)
    # atan2 of |cross| and dot keeps angles near 0 and pi accurate, where
    # arccos of their cosine loses half the digits
    return np.arctan2(cross, dot)


def curvature_centroid_polygon(poly: Polygon) -> Point2:
    """Vertex centroid weighted by sin of twice the internal angle.

    For a triangle this is the circumcenter.  Weights can cancel exactly
    (every rectangle does it), which raises ZeroTotalWeight.
    """
    cross, dot, bb, ff = _corners(poly)
    # sin 2A = 2 sin A cos A, taken from the edges: going through the angle
    # A itself costs about eps * pi absolute per weight near A = pi
    w = 2.0 * cross * dot / (bb * ff)
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
