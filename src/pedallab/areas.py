"""The curve-family registry; signed areas and curvature-weighted centroids.

FAMILIES declares each curve family once: its closed-form area, its point
evaluator, where its pole lives and which parameters it reads.  The closed
forms live next to the quadrature that checks them.  The quadrature is
spectral: the shoelace integral 1/2 int(x y' - y x') is taken in Fourier
space by Parseval's identity, from the real FFTs of the two coordinate
sample sequences, so it is exact for band-limited curves and converges
geometrically for analytic ones (Trefethen & Weideman, SIAM Rev. 2014).  A plain finite-difference
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
from typing import Callable, Optional, Tuple

import numpy as np

from .curves import (
    Ellipse,
    ParamGrid,
    Point2,
    SampledCurve,
    SupportCurve,
    as_xy,
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
    ellipse_frame,
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
    """One curve family, declared once, with what it reads.

    name is the family's command-line name.  pole says where its pole
    lives: "none" (the ellipse, whose points ignore it, and the evolutoid),
    "ellipse" (pseudo-Talbot, which has no points at all for a pole off
    the ellipse: family_evaluator, scan and the CLI refuse such a pole) or
    "any".  params names the parameters out of (theta, mu) that it reads:
    theta, the line rotation, for the rotated pedal and the tangent
    crossing angle for the evolutoid, and mu, the blend's weight, for the
    interpolated pedal.  reads(theta, mu) picks them out, by name, and
    every caller of area and frame passes them through it.
    area(a, b, rho, **params) is its closed-form signed area for a pole at
    squared distance rho from the center.  frame(e, t, **params) does the
    family's work on the ellipse parameters t alone and returns
    points(x, y, out=None), the points for the pole at the plain
    coordinates (x, y), which it trusts: floats for one pole, or (k, 1)
    arrays for a chunk of k poles, one curve per pole.
    out is an optional real (3, k, n) workspace for a chunk on n real
    parameters: an affine frame writes its two coordinate planes into
    out[:2], through the scratch plane out[2], and returns a view of it,
    valid until the workspace is used again; any other frame may ignore
    it (see pedal._affine_frame).  A frame keeps nothing between calls, so
    each pole's points are bitwise the same in a chunk of any height, or
    alone.  It is the family's one point evaluator, which
    harness.family_evaluator calls on the one pole it has read and
    harness.scan on the coordinates of its locus poles; the evolutoid has
    no frame (pedal.evolutoid_point).  Every frame
    has one shape: three columns per coordinate, F0 + c1 F1 + c2 F2, affine
    in (c1, c2) = (x, y) of the pole for the Steiner families (the
    ellipse's pole columns are zero, pedal.ellipse_frame) and in
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
    """

    name: str
    area: Callable
    frame: Optional[Callable]
    pole: str = "any"
    params: Tuple[str, ...] = ()
    on_ellipse: bool = False

    def reads(self, theta: float, mu: float) -> dict:
        """theta and mu by name, those of them that the family reads."""
        return {name: v for name, v in (("theta", theta), ("mu", mu)) if name in self.params}

    @staticmethod
    def of(name) -> "Family":
        """The registry entry of the family name; any other value, a name
        not in the registry or no name at all, raises DomainError."""
        try:
            return FAMILIES[name]
        except (KeyError, TypeError):
            raise DomainError(f"unknown curve family: {name!r}") from None


def _interpolated_area(a, b, rho, mu):
    ap = 0.5 * math.pi * (a * a + b * b + rho)
    ac = 0.5 * math.pi * ((a - b) * (a - b) + rho)
    base = math.pi * a * b
    return (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base


def _quartic(a, b):
    # 3 a^4 + 2 a^2 b^2 + 3 b^4, of the hybrid and pseudo-Talbot areas
    a2, b2 = a * a, b * b
    return 3 * (a2 * a2) + 2 * a * a * b * b + 3 * (b2 * b2)


def _pseudo_talbot_area(a, b, rho):
    return (math.pi * _quartic(a, b)
            * (a * a - 2 * a * b - b * b) * (a * a + 2 * a * b - b * b)
            / (8 * (a * a * a) * (b * b * b)))


def _evolutoid_area(a, b, rho, theta):
    c2 = a * a - b * b
    c4 = c2 * c2
    ct, st = math.cos(theta), math.sin(theta)
    return math.pi * a * b * (ct * ct) - (3 * math.pi * c4 / (8 * a * b)) * (st * st)


# in command-line order; harness.SCANNABLE and the CLI's --family choices
# are derived from it
FAMILIES = {f.name: f for f in (
    Family("ellipse", lambda a, b, rho: math.pi * a * b, ellipse_frame, pole="none"),
    Family("pedal", lambda a, b, rho: 0.5 * math.pi * (a * a + b * b + rho), pedal_frame),
    Family("contrapedal", lambda a, b, rho: 0.5 * math.pi * ((a - b) * (a - b) + rho),
           contrapedal_frame),
    Family("rotated", lambda a, b, rho, theta: 0.5 * math.pi * (
               a * a + b * b - 2 * a * b * (math.sin(theta) * math.sin(theta)) + rho),
           rotated_frame, params=("theta",)),
    Family("interpolated", _interpolated_area, interpolated_frame, params=("mu",)),
    Family("hybrid", lambda a, b, rho: math.pi * _quartic(a, b) / (2 * a * b), hybrid_frame,
           on_ellipse=True),
    Family("pseudo_talbot", _pseudo_talbot_area, pseudo_talbot_frame, pole="ellipse",
           on_ellipse=True),
    Family("negative_pedal", lambda a, b, rho: (
               -math.pi * ((a * a - b * b) * (a * a - b * b)) / (2 * a * b)),
           negative_pedal_frame, on_ellipse=True),
    Family("evolutoid", _evolutoid_area, None, pole="none", params=("theta",)),
)}


def closed_form_areas(family, e: Ellipse, poles: np.ndarray,
                      theta: float = 0.0, mu: float = 0.5):
    """Closed-form signed areas of the family for a (k, 2) array of poles.

    Returns (areas, holds), two (k,) arrays: the family's closed form at
    each pole, and whether it holds there.  It holds everywhere except for
    the families whose constant holds only for poles on the ellipse
    (hybrid, pseudo-Talbot, negative pedal), at poles off it.  Each area
    is bitwise closed_form_area of its pole alone.

    Every form is homogeneous of degree 2 in (a, b, pole): it is taken on
    them scaled by the power of two 2^-k that brings a into [1/2, 1), and
    scaled back by 4^k.  So an ellipse and poles scaled by 2^j give bitwise
    4^j times the areas, and a huge ellipse's products do not overflow.
    The forms are written with products, not powers (**), so the scaling
    is exact: an area is bitwise the raw form's wherever that is finite
    and no product of either form is subnormal.  A form still out of range
    (a pole so far out that it overflows, or an ellipse so flat that a
    power of b underflows to a zero divisor) gives a non-finite area, with
    no numpy warning and no ArithmeticError.
    """
    fam = Family.of(family)
    k = math.frexp(e.a)[1]
    x, y = np.ldexp(poles[:, 0], -k), np.ldexp(poles[:, 1], -k)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            area = fam.area(math.ldexp(e.a, -k), math.ldexp(e.b, -k), x * x + y * y,
                            **fam.reads(theta, mu))
        except ArithmeticError:
            area = math.nan
        areas = np.broadcast_to(np.ldexp(area, 2 * k), x.shape)
    holds = pole_on_ellipse(e, poles) if fam.on_ellipse else np.ones(x.shape, dtype=bool)
    return areas, holds


def closed_form_area(family, e: Ellipse, m=(0.0, 0.0),
                     theta: float = 0.0, mu: float = 0.5) -> float:
    """Signed area of the family member, from the closed-form constants.

    m is the pole, theta the line rotation (rotated pedal) or the tangent
    crossing angle (evolutoid), mu the pedal/contrapedal blend; a family
    that does not read theta or mu (Family.params) ignores it.  Families
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
    (area_rule, doubling_rule, curvature_centroid_samples) assumes all of
    it."""
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


# ---------------------------------------------------------------------------
# support-function integrals


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
