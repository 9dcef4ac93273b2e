"""Certification harness: sweep the pole over a locus and test area laws.

The laboratory claim behind this module: the pedal-type areas depend on the
pole only through its distance from the center (circle loci), and the
hybrid, pseudo-Talbot and negative-pedal areas do not depend on the pole at
all while it stays on the ellipse (boundary locus).  A scan certifies such
a claim numerically: it computes the signed area for every sampled pole at
grid size n, re-checks each at 2n, and reports the spread.  Poles are
sampled and integrated in chunks, one batched evaluator call and one stacked
quadrature per grid size and chunk.

Reports carry plain Python data and serialize to JSON deterministically:
same inputs, byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .areas import (
    AreaFamily,
    closed_form_area,
    settled_area,
    signed_area_quadrature,
    support_contrapedal_area,
    support_pedal_area,
)
from .curves import (
    Ellipse,
    ParamGrid,
    SampledCurve,
    as_xy,
    ellipse_point,
    ellipse_support,
    sample_curve,
)
from .errors import DomainError, GeometryError
from .pedal import (
    contrapedal_point,
    hybrid_point,
    interpolated_pedal_point,
    negative_pedal_point,
    pedal_point,
    pseudo_talbot_point,
    rotated_pedal_point,
    self_intersections,
)

TWO_PI = 2.0 * math.pi

SCANNABLE = (
    AreaFamily.ELLIPSE,
    AreaFamily.PEDAL,
    AreaFamily.CONTRAPEDAL,
    AreaFamily.ROTATED,
    AreaFamily.INTERPOLATED,
    AreaFamily.HYBRID,
    AreaFamily.PSEUDO_TALBOT,
    AreaFamily.NEGATIVE_PEDAL,
)

# poles on the ellipse make these families singular at the pole's parameter,
# so their grids start there and sit half a step off every multiple of it
OFFSET_FAMILIES = (AreaFamily.HYBRID, AreaFamily.PSEUDO_TALBOT, AreaFamily.NEGATIVE_PEDAL)

# a scan evaluates at most this many grid points at once (a chunk of k poles
# at 2n points each), so batching never grows its working set with the pole
# count; at up to ~130 bytes of temporaries per point, 2**13 points fit in
# memory the process already holds, where 2**16 raised peak RSS by ~8 MB
CHUNK_POINTS = 2 ** 13


@dataclass(frozen=True)
class LocusSpec:
    """Where the pole sweeps: a circle about the center, or the ellipse itself."""

    kind: str
    r: float = 1.0
    count: int = 64
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("circle", "boundary"):
            raise DomainError(f"locus kind must be 'circle' or 'boundary', got {self.kind!r}")
        if not (math.isfinite(self.r) and math.isfinite(self.phase)):
            raise DomainError(
                f"locus r and phase must be finite, got r={self.r}, phase={self.phase}")
        if self.kind == "circle" and not self.r > 0:
            raise DomainError(f"circle locus needs r > 0, got {self.r}")
        if self.count < 1:
            raise DomainError("locus needs at least one sample")

    def angles(self) -> np.ndarray:
        return self.phase + np.arange(self.count) * (TWO_PI / self.count)

    def poles(self, e: Ellipse) -> np.ndarray:
        s = self.angles()
        if self.kind == "circle":
            return np.stack([self.r * np.cos(s), self.r * np.sin(s)], axis=-1)
        return ellipse_point(e, s)

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "count": self.count, "phase": self.phase}
        if self.kind == "circle":
            d["r"] = self.r
        return d


def family_evaluator(e: Ellipse, family, m, theta: float = 0.0, mu: float = 0.5,
                     s: Optional[float] = None) -> Callable:
    """Point evaluator t -> (x, y) for a family with a fixed pole.

    s is the boundary parameter of the pole; pseudo-Talbot requires it
    because its pole lives on the ellipse by construction.  For a chunk of
    k poles, m is a pair of (k, 1) coordinate arrays and s a (k, 1) array;
    the evaluator then returns (k, n, 2) points for n parameters.
    """
    fam = AreaFamily.coerce(family)
    if fam is AreaFamily.ELLIPSE:
        return lambda t: ellipse_point(e, t)
    if fam is AreaFamily.PEDAL:
        return lambda t: pedal_point(e, t, m)
    if fam is AreaFamily.CONTRAPEDAL:
        return lambda t: contrapedal_point(e, t, m)
    if fam is AreaFamily.ROTATED:
        return lambda t: rotated_pedal_point(e, t, m, theta)
    if fam is AreaFamily.INTERPOLATED:
        return lambda t: interpolated_pedal_point(e, t, m, mu)
    if fam is AreaFamily.HYBRID:
        return lambda t: hybrid_point(e, t, m)
    if fam is AreaFamily.NEGATIVE_PEDAL:
        return lambda t: negative_pedal_point(e, t, m)
    if fam is AreaFamily.PSEUDO_TALBOT:
        if s is None:
            raise DomainError("pseudo-Talbot needs the boundary parameter of its pole")
        return lambda u: pseudo_talbot_point(e, s, u)
    raise DomainError(f"no point evaluator for family {family!r}")


def family_grid(family, n: int, s=0.0) -> ParamGrid:
    """Default sampling grid for a family whose pole parameter is s (a
    float, or a (k, 1) array for a chunk of poles)."""
    fam = AreaFamily.coerce(family)
    if fam in OFFSET_FAMILIES:
        return ParamGrid(count=n, start=s, offset=0.5)
    return ParamGrid(count=n)


@dataclass
class InvarianceReport:
    """Result of one scan: per-pole areas and the certified spread."""

    family: str
    a: float
    b: float
    locus: dict
    n: int
    params: dict
    poles: List[List[float]]
    areas: List[Optional[float]]
    errors: List[Optional[str]]
    mean: Optional[float]
    max_rel_dev: Optional[float]
    max_doubling_gap: float
    closed_form: Optional[float]
    max_closed_dev: Optional[float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "a": self.a,
            "b": self.b,
            "locus": self.locus,
            "n": self.n,
            "params": self.params,
            "mean": self.mean,
            "max_rel_dev": self.max_rel_dev,
            "max_doubling_gap": self.max_doubling_gap,
            "closed_form": self.closed_form,
            "max_closed_dev": self.max_closed_dev,
            "passed": self.passed,
            "poles": self.poles,
            "areas": self.areas,
            "errors": self.errors,
        }


def _pole_areas(e: Ellipse, fam: AreaFamily, m, s: float, n: int, theta: float, mu: float):
    """Areas at n and 2n points of one pole, sampled through sample_curve,
    whose errors name the node that failed."""
    ev = family_evaluator(e, fam, m, theta=theta, mu=mu, s=s)
    return tuple(signed_area_quadrature(sample_curve(ev, family_grid(fam, count, s)))
                 for count in (n, 2 * n))


def _chunk_areas(e: Ellipse, fam: AreaFamily, poles: np.ndarray, s, n: int,
                 theta: float, mu: float) -> np.ndarray:
    """Areas at n and 2n points, shape (2, k), of a chunk of k poles.

    One evaluator call and one stacked quadrature per grid size; s is 0.0 or
    a (k, 1) array of boundary parameters.  Rows whose points are not all
    finite come back NaN.
    """
    k = len(poles)
    ev = family_evaluator(e, fam, (poles[:, :1], poles[:, 1:]), theta=theta, mu=mu, s=s)
    out = np.full((2, k), np.nan)
    for row, count in enumerate((n, 2 * n)):
        t = family_grid(fam, count, s).nodes()
        # the ellipse family has no pole: its one curve stands for all k
        pts = np.broadcast_to(np.asarray(ev(t), dtype=float), (k, count, 2))
        ok = np.all(np.isfinite(pts), axis=(1, 2))
        if ok.any():
            t = np.broadcast_to(t, (k, count))
            out[row, ok] = signed_area_quadrature(SampledCurve(t[ok], pts[ok]))
    return out


def scan(e: Ellipse, family, locus: LocusSpec, n: int = 2048,
         theta: float = 0.0, mu: float = 0.5, tol: float = 1e-8) -> InvarianceReport:
    """Certify area invariance of a family while the pole sweeps the locus.

    Every pole gets a signed-area quadrature at n and at 2n samples; a pole
    whose evaluation fails or whose two quadratures are not settled() is
    marked and excluded from the spread.  The scan passes when areas exist
    for all poles, their relative spread about the mean stays within tol,
    and, where a closed form applies, they match it to tol as well.  With no
    area at all, mean and max_rel_dev are None.

    Poles go through _chunk_areas in chunks of at most CHUNK_POINTS points
    at 2n.  A pole whose chunk raised, or whose row came back non-finite, is
    re-run alone by _pole_areas, so its error reads as if it had been
    scanned by itself; every area is bitwise that of its pole alone.
    """
    fam = AreaFamily.coerce(family)
    if fam not in SCANNABLE:
        raise DomainError(f"family {fam.value!r} has no pole to scan")
    if fam is AreaFamily.PSEUDO_TALBOT and locus.kind != "boundary":
        raise DomainError("pseudo-Talbot poles live on the ellipse; use a boundary locus")

    boundary = locus.kind == "boundary"
    angles = locus.angles()
    poles = locus.poles(e)
    areas: List[Optional[float]] = []
    errors: List[Optional[str]] = []
    closed_vals: List[Optional[float]] = []
    max_gap = 0.0

    per_chunk = max(1, CHUNK_POINTS // (2 * n))
    for c0 in range(0, locus.count, per_chunk):
        chunk = slice(c0, c0 + per_chunk)
        try:
            pair = _chunk_areas(e, fam, poles[chunk], angles[chunk, None] if boundary else 0.0,
                                n, theta, mu)
        except GeometryError:
            pair = np.full((2, len(poles[chunk])), np.nan)
        for pole, s_j, a1, a2 in zip(poles[chunk], angles[chunk], *pair):
            m = (float(pole[0]), float(pole[1]))
            try:
                if not (math.isfinite(a1) and math.isfinite(a2)):
                    a1, a2 = _pole_areas(e, fam, m, float(s_j) if boundary else 0.0,
                                         n, theta, mu)
                max_gap = max(max_gap, abs(a1 - a2))
                areas.append(float(settled_area(a1, a2)))
                errors.append(None)
            except GeometryError as exc:
                areas.append(None)
                errors.append(str(exc))
            try:
                closed_vals.append(closed_form_area(fam, e, m=m, theta=theta, mu=mu))
            except DomainError:
                closed_vals.append(None)

    good = [x for x in areas if x is not None]
    mean: Optional[float] = None
    max_rel_dev: Optional[float] = None
    if good:
        mean = float(np.mean(good))
        denom = max(abs(mean), 1e-30)
        max_rel_dev = float(max(abs(x - mean) for x in good) / denom)

    closed_ref: Optional[float] = None
    max_closed_dev: Optional[float] = None
    pairs = [(x, c) for x, c in zip(areas, closed_vals) if x is not None and c is not None]
    if pairs:
        closed_ref = pairs[0][1]
        max_closed_dev = max(abs(x - c) / max(abs(c), 1e-30) for x, c in pairs)

    passed = (all(err is None for err in errors)
              and max_rel_dev is not None and max_rel_dev <= tol
              and (max_closed_dev is None or max_closed_dev <= tol))

    return InvarianceReport(
        family=fam.value, a=e.a, b=e.b, locus=locus.to_dict(), n=n,
        params={"theta": theta, "mu": mu},
        poles=[[float(p[0]), float(p[1])] for p in poles],
        areas=areas, errors=errors, mean=mean, max_rel_dev=max_rel_dev,
        max_doubling_gap=float(max_gap), closed_form=closed_ref,
        max_closed_dev=None if max_closed_dev is None else float(max_closed_dev),
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# identity suite


@dataclass
class IdentityCheck:
    """One numerical identity: |lhs - rhs| measured against a tolerance."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "residual": self.residual, "tol": self.tol, "passed": self.passed}


def _check(name: str, lhs: float, rhs: float, tol: float) -> IdentityCheck:
    res = abs(lhs - rhs)
    return IdentityCheck(name=name, lhs=float(lhs), rhs=float(rhs),
                         residual=float(res), tol=tol, passed=bool(res <= tol))


def identity_suite(e: Ellipse, m=(0.7, -0.4), n: int = 2048,
                   thetas=(0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2),
                   mus=(-0.5, 0.0, 0.25, 0.5, 1.0, 1.5),
                   tol: float = 1e-8) -> List[IdentityCheck]:
    """Area identities of the pedal family for one pole, closed and quadrature.

    Checks, in order: pedal minus contrapedal equals the ellipse area
    (closed forms, then quadrature, then the support-function route); the
    rotated-pedal deficit A_pedal - A_rot = A sin^2(theta) per theta; the
    blend law A_mu = (1-2mu)((1-mu)A_pedal - mu A_contra) + mu(1-mu)A per mu.
    """
    x0, y0 = as_xy(m)
    mm = (float(x0), float(y0))
    base = closed_form_area(AreaFamily.ELLIPSE, e)
    ap = closed_form_area(AreaFamily.PEDAL, e, m=mm)
    ac = closed_form_area(AreaFamily.CONTRAPEDAL, e, m=mm)

    def quad(family, **kw):
        ev = family_evaluator(e, family, mm, **kw)
        return signed_area_quadrature(sample_curve(ev, ParamGrid(count=n)))

    ap_q = quad(AreaFamily.PEDAL)
    ac_q = quad(AreaFamily.CONTRAPEDAL)

    checks = [
        _check("closed_pedal_minus_contrapedal", ap - ac, base, tol),
        _check("quad_pedal_minus_contrapedal", ap_q - ac_q, base, tol),
    ]

    sup = ellipse_support(e)
    checks.append(_check("support_pedal_minus_contrapedal",
                         support_pedal_area(sup, mm, n=n) - support_contrapedal_area(sup, mm, n=n),
                         base, tol))

    for theta in thetas:
        at_q = quad(AreaFamily.ROTATED, theta=theta)
        checks.append(_check(f"rotation_deficit_theta_{theta:.6g}",
                             ap_q - at_q, base * math.sin(theta) ** 2, tol))

    for mu in mus:
        am_q = quad(AreaFamily.INTERPOLATED, mu=mu)
        target = (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base
        checks.append(_check(f"blend_mu_{mu:.6g}", am_q, target, tol))

    return checks


# ---------------------------------------------------------------------------
# contrapedal crossing conjecture


@dataclass
class ConjectureReport:
    """Measured support for: contrapedal self-crossings hit (x0, 0) and (0, y0)."""

    pole: List[float]
    skipped: bool
    reason: Optional[str]
    crossing_count: int
    crossings: List[List[float]]
    dist_to_x_axis_point: Optional[float]
    dist_to_y_axis_point: Optional[float]
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "pole": self.pole,
            "skipped": self.skipped,
            "reason": self.reason,
            "crossing_count": self.crossing_count,
            "crossings": self.crossings,
            "dist_to_x_axis_point": self.dist_to_x_axis_point,
            "dist_to_y_axis_point": self.dist_to_y_axis_point,
            "tol": self.tol,
            "passed": self.passed,
        }


def conjecture_check_contrapedal(e: Ellipse, m, n: int = 2048,
                                 tol: float = 1e-4) -> ConjectureReport:
    """Check that the contrapedal of the ellipse about m self-crosses at the
    two axis projections (x0, 0) and (0, y0) of the pole.

    Poles on a symmetry axis are skipped: the crossings degenerate there.
    """
    x0, y0 = as_xy(m)
    pole = [float(x0), float(y0)]
    if abs(x0) < 1e-9 or abs(y0) < 1e-9:
        return ConjectureReport(pole=pole, skipped=True,
                                reason="pole on a symmetry axis: crossings degenerate",
                                crossing_count=0, crossings=[],
                                dist_to_x_axis_point=None, dist_to_y_axis_point=None,
                                tol=tol, passed=True)
    ev = family_evaluator(e, AreaFamily.CONTRAPEDAL, (float(x0), float(y0)))
    curve = sample_curve(ev, ParamGrid(count=n, offset=0.5))
    hits = self_intersections(curve)
    pts = [[float(c.point[0]), float(c.point[1])] for c in hits]
    if not hits:
        return ConjectureReport(pole=pole, skipped=False, reason="no self-crossings found",
                                crossing_count=0, crossings=[],
                                dist_to_x_axis_point=None, dist_to_y_axis_point=None,
                                tol=tol, passed=False)
    tx = np.array([x0, 0.0])
    ty = np.array([0.0, y0])
    arr = np.array(pts)
    dx = float(np.min(np.hypot(arr[:, 0] - tx[0], arr[:, 1] - tx[1])))
    dy = float(np.min(np.hypot(arr[:, 0] - ty[0], arr[:, 1] - ty[1])))
    return ConjectureReport(pole=pole, skipped=False, reason=None,
                            crossing_count=len(hits), crossings=pts,
                            dist_to_x_axis_point=dx, dist_to_y_axis_point=dy,
                            tol=tol, passed=bool(dx <= tol and dy <= tol))
