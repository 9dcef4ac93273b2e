"""Certification harness: sweep the pole over a locus and test area laws.

The laboratory claim behind this module: the pedal-type areas depend on the
pole only through its distance from the center (circle loci), and the
hybrid, pseudo-Talbot and negative-pedal areas do not depend on the pole at
all while it stays on the ellipse (boundary locus).  A scan certifies such
a claim numerically: it computes the signed area for every sampled pole at
grid size n, re-checks each at 2n, and reports the spread.

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
    signed_area_quadrature,
    support_contrapedal_area,
    support_pedal_area,
)
from .curves import Ellipse, ParamGrid, ellipse_point, ellipse_support, sample_curve, as_xy
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
    because its pole lives on the ellipse by construction.
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


def family_grid(family, n: int, s: float = 0.0) -> ParamGrid:
    """Default sampling grid for a family whose pole parameter is s."""
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
    mean: float
    max_rel_dev: float
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


def scan(e: Ellipse, family, locus: LocusSpec, n: int = 2048,
         theta: float = 0.0, mu: float = 0.5, tol: float = 1e-8) -> InvarianceReport:
    """Certify area invariance of a family while the pole sweeps the locus.

    Every pole gets a signed-area quadrature at n and at 2n samples; a pole
    whose evaluation fails or whose two quadratures disagree beyond
    1e-9 * max(1, |area|) is marked and excluded from the spread.  The scan
    passes when areas exist for all poles, their relative spread about the
    mean stays within tol, and, where a closed form applies, they match it
    to tol as well.
    """
    fam = AreaFamily.coerce(family)
    if fam not in SCANNABLE:
        raise DomainError(f"family {fam.value!r} has no pole to scan")
    if fam is AreaFamily.PSEUDO_TALBOT and locus.kind != "boundary":
        raise DomainError("pseudo-Talbot poles live on the ellipse; use a boundary locus")

    angles = locus.angles()
    poles = locus.poles(e)
    areas: List[Optional[float]] = []
    errors: List[Optional[str]] = []
    closed_vals: List[Optional[float]] = []
    max_gap = 0.0

    for s_j, pole in zip(angles, poles):
        m = (float(pole[0]), float(pole[1]))
        s_ref = float(s_j) if locus.kind == "boundary" else 0.0
        try:
            ev = family_evaluator(e, fam, m, theta=theta, mu=mu, s=s_ref)
            a1 = signed_area_quadrature(sample_curve(ev, family_grid(fam, n, s_ref)))
            a2 = signed_area_quadrature(sample_curve(ev, family_grid(fam, 2 * n, s_ref)))
            gap = abs(a1 - a2)
            max_gap = max(max_gap, gap)
            if gap > 1e-9 * max(1.0, abs(a2)):
                raise DomainError(f"quadrature not settled (gap {gap:.3e})")
            areas.append(a1)
            errors.append(None)
        except GeometryError as exc:
            areas.append(None)
            errors.append(str(exc))
        try:
            closed_vals.append(closed_form_area(fam, e, m=m, theta=theta, mu=mu))
        except DomainError:
            closed_vals.append(None)

    good = [x for x in areas if x is not None]
    if good:
        mean = float(np.mean(good))
        denom = max(abs(mean), 1e-30)
        max_rel_dev = max(abs(x - mean) for x in good) / denom
    else:
        mean = math.nan
        max_rel_dev = math.inf

    closed_ref: Optional[float] = None
    max_closed_dev: Optional[float] = None
    pairs = [(x, c) for x, c in zip(areas, closed_vals) if x is not None and c is not None]
    if pairs:
        closed_ref = pairs[0][1]
        max_closed_dev = max(abs(x - c) / max(abs(c), 1e-30) for x, c in pairs)

    passed = (all(err is None for err in errors)
              and max_rel_dev <= tol
              and (max_closed_dev is None or max_closed_dev <= tol))

    return InvarianceReport(
        family=fam.value, a=e.a, b=e.b, locus=locus.to_dict(), n=n,
        params={"theta": theta, "mu": mu},
        poles=[[float(p[0]), float(p[1])] for p in poles],
        areas=areas, errors=errors, mean=mean, max_rel_dev=float(max_rel_dev),
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
