"""Certification harness: sweep the pole over a locus and test area laws.

The laboratory claim behind this module: the pedal-type areas depend on the
pole only through its distance from the center (circle loci), and the
hybrid, pseudo-Talbot and negative-pedal areas do not depend on the pole at
all while it stays on the ellipse (boundary locus).  A scan certifies such
a claim numerically: it computes the signed area for every sampled pole at
grid size n, re-checks each at 2n, and reports the spread.  Poles are
sampled and integrated in chunks.  A scan has one area rule for both grid
sizes (areas.doubling_rule), whose row checks run once per scan, and each
chunk's curves go to it in one stack.  Each family's one evaluator, its
registry frame (areas.Family.frame), does the work that depends on the
parameters alone and returns the points for a pole's plain coordinates.
family_evaluator reads its one pole once, when it is built (curves.as_xy);
a scan hands the frame each chunk's (k, 1) coordinate views of its locus
poles, which LocusSpec makes finite.  Every family is sampled on
ParamGrid(n), the same row of nodes for every pole, so a scan builds its
nodes and frame once, before its first chunk, and no trig is redone for a
chunk: a frame holds three columns per coordinate, F0 + c1 F1 + c2 F2,
affine in two coordinates read from each pole, (x, y) itself for the
Steiner families and (cos s, sin s) of a pole P(s) on the ellipse for
hybrid, pseudo-Talbot and the negative pedal (the pencil of a pole off
the ellipse excepted).  The n grid is the even half of the 2n
grid, so a chunk is sampled once, at 2n, and both areas come from one
rfft per coordinate: the n-point spectrum of the even samples is a fold
of the 2n-point one.  The scan's epilogue (doubling gaps, the settled
test, closed forms, spread) works on arrays over all poles; only a pole
whose chunk failed is re-run by itself, through the same frame and rule,
and carries the error of its own points() call or rule as it is raised.
The identity suite settles each area it certifies the same way, against
its re-run at 2n, through one row and rule for all its quadratures.

Reports carry plain Python data and serialize to JSON deterministically:
same inputs, byte-identical files.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, List, Optional

import numpy as np

from .areas import (
    FAMILIES,
    Family,
    closed_form_area,
    closed_form_areas,
    doubling_rule,
    settled,
    settled_area,
    support_contrapedal_area,
    support_pedal_area,
)
from .curves import (
    QUIET,
    Ellipse,
    ParamGrid,
    as_xy,
    ellipse_point,
    ellipse_support,
    finite_rows,
    sample_curve,
    xy_on_ellipse,
)
from .errors import DomainError, GeometryError, QuadratureError
from .pedal import self_intersections
from .tolerances import AXIS_TOL

TWO_PI = 2.0 * math.pi

# the families with a pole, in registry order
SCANNABLE = tuple(name for name, f in FAMILIES.items() if f.frame is not None)

# a scan evaluates at most this many grid points at once (a chunk of k poles
# at 2n points each), so batching never grows its working set with the pole
# count; at up to ~73 bytes per point (tracemalloc peak of a 256-pole
# n=2048 scan over 2**14 points, shared frames included: on a circle 70.7
# for the pedal, contrapedal and rotated pedal and 72.7 for the
# interpolated pedal; on the boundary 72.6 for the hybrid, pseudo-Talbot
# and the negative pedal; 55 at n=256), 2**14 points fit in memory the
# process already holds: a fresh process making one battery pass peaks at
# ~38.0 MB RSS against ~37.7 MB at 2**13, and a 2**13 chunk costs the
# many_poles scans a few percent more time
CHUNK_POINTS = 2 ** 14


def _require_count(what: str, value, least: int) -> None:
    # reports carry the value as it is, so it must be a Python int, not a bool
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")


def _require_finite(what: str, *values) -> None:
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise DomainError(f"{what} must be finite, got {bad[0]}")


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and > 0, got {tol}")


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
        _require_count("locus count", self.count, 1)

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
    """Point evaluator t -> (x, y) for a family with a fixed pole m.

    It is the family's registry frame (areas.Family.frame) built at the
    ellipse parameters t and called on the pole's coordinates, the public
    way to evaluate a family with a pole; scan and identity_suite call the
    frames themselves, on their one row of nodes.  The pole is read here, once
    (curves.as_xy): a pole that is not one finite point, a chunk of poles
    included, raises DomainError, and a call of the evaluator reads it no
    more.  Hybrid and negative pedal serve a pole on the ellipse
    (curves.pole_on_ellipse) from their reduced form at its own parameter,
    finite there, and any other pole from the negative pedal's pencil, as
    in a scan.  Pseudo-Talbot has points only for a pole on the ellipse; any
    other pole raises DomainError here.  s is not read: it stays for
    callers that still pass the pole's boundary parameter.
    """
    fam = Family.of(family)
    build = fam.frame
    if build is None:
        raise DomainError(f"no point evaluator for family {family!r}")
    x, y = as_xy(m)
    if fam.ellipse_pole_only and not xy_on_ellipse(e, x, y):
        raise DomainError(f"{fam.name} needs its pole on the ellipse")
    return lambda t: build(e, t, theta, mu)(x, y)


def family_grid(family, n: int, s=0.0) -> ParamGrid:
    """Default sampling grid of a family: ParamGrid(n), one row of nodes for
    every family and pole, whose n nodes are the even nodes of its 2n grid.
    The family must exist; the pole's parameter s does not move the grid.
    The harness samples ParamGrid itself; this stays for callers."""
    Family.of(family)
    return ParamGrid(count=n)


class _Report:
    """A report dataclass whose dict is its fields in declaration order."""

    def to_dict(self) -> dict:
        # not dataclasses.asdict: its deep copy of per-pole lists costs
        # about a millisecond per scan report
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class InvarianceReport(_Report):
    """Result of one scan: per-pole areas and the certified spread."""

    family: str
    a: float
    b: float
    locus: dict
    n: int
    params: dict
    mean: Optional[float]
    max_rel_dev: Optional[float]
    max_doubling_gap: float
    closed_form: Optional[float]
    max_closed_dev: Optional[float]
    passed: bool
    poles: List[List[float]]
    areas: List[Optional[float]]
    errors: List[Optional[str]]


@contextmanager
def _row_buffer(n: int):
    """numpy's ufunc buffer cut to a row of n elements, rounded up to the
    multiple of 16 that numpy requires, for the body of the with block,
    if a row is shorter than the buffer; the size before it is restored
    on exit.  A scan's products and sums broadcast rows over a chunk's
    rows, and under a buffer longer than a row numpy copies their operands
    through it: at n = 256 (rows of 512) at about three times the cost,
    and at n = 2048 (4 rows of 4096) a row added to the chunk takes ~13 us
    against ~10 us under a buffer of one row.  A row as long as the
    buffer, or longer, keeps it (a buffer past the default gains nothing,
    and numpy refuses one past 1e7).  np.setbufsize's setting is local to
    the thread, and under numpy 2 to the context, so no other thread sees
    it."""
    if n >= np.getbufsize():
        yield
        return
    old = np.setbufsize(-(-n // 16) * 16)
    try:
        yield
    finally:
        np.setbufsize(old)


def _pole_areas(points: Callable, rule: Callable, t: np.ndarray, x, y) -> np.ndarray:
    """Areas (coarse, fine) of one pole, at its (1, 1) coordinates x and y:
    one points() call of its frame on the 2n nodes t, whose rows must be
    finite (curves.finite_rows names the first node that is not), and the
    doubling rule of t.  An error of either step is raised as it is.  The
    call runs under curves.QUIET, as sample_curve runs its evaluator."""
    with np.errstate(**QUIET):
        pts = points(x, y)
    finite_rows(t, pts[0])
    return rule(pts)[:, 0]


def _sweep(frame: Callable, poles: np.ndarray, n: int, per_chunk: int):
    """Areas at n and at 2n points of all poles, in chunks of per_chunk, as
    a (2, count) array, the coarse row then the fine one, and each pole's
    error, None or its message.

    frame(t) builds the family's frame on the 2n nodes t, once, before the
    first chunk; an error it raises, such as a Steiner frame's
    DegenerateLine on an ellipse too flat for its lines, fails the scan.
    The frame is built and the chunks run under one curves.QUIET error
    state, as sample_curve runs its evaluator: a pole, or a frame's column,
    that overflows gives non-finite points, which the pole's error names
    (curves.finite_rows), and no numpy warning.  The chunks run under one
    ufunc buffer cut to a row of 2n points, too (_row_buffer; a row as
    long as the buffer keeps it), for the rows that the frame and the rule
    broadcast over a chunk (see pedal._affine_frame).  It is entered once
    per scan, not once per chunk: every area is bitwise what the default
    buffer gives, and at n = 256 the rule is no slower (at n <= 16 it can
    be, by up to about 0.1 ms per 256-pole scan).  The frame, the one rule
    of the doubling check (areas.doubling_rule, whose row checks run once)
    and one workspace of three planes of per_chunk rows at 2n serve all
    chunks;
    neither the frame nor the rule keeps anything from one chunk to the
    next, so the short last chunk gives what its poles give alone.  A
    chunk makes one points() call at 2n on the (k, 1) coordinate views of
    its poles, with the first k rows of the workspace, into which an
    affine frame writes its points (see areas.Family), and hands that
    stack of k curves straight to the rule.  The rule takes both areas
    from one rfft per coordinate: the n-point spectrum of the even samples
    is a fold of the 2n-point one.  The workspace is allocated once per
    scan, so the chunks do not fault the same pages in again, one after
    the other.  A chunk that raised, a row
    not all finite included, is re-run one pole at a time (_pole_areas),
    through the same frame and rule: each pole gets its areas, bitwise
    those of the chunk, or its own error, and areas NaN.
    """
    t = ParamGrid(2 * n).nodes()
    rule = doubling_rule(t)
    work = np.empty((3, min(per_chunk, len(poles)), t.size))
    out = np.full((2, len(poles)), np.nan)
    errors: List[Optional[str]] = [None] * len(poles)
    with np.errstate(**QUIET), _row_buffer(t.size):
        points = frame(t)
        for c0 in range(0, len(poles), per_chunk):
            chunk = slice(c0, c0 + per_chunk)
            x, y = poles[chunk, :1], poles[chunk, 1:]
            try:
                out[:, chunk] = rule(points(x, y, work[:, :len(x)]))
            except GeometryError:
                for i in range(len(x)):
                    try:
                        out[:, c0 + i] = _pole_areas(points, rule, t, x[i:i + 1], y[i:i + 1])
                    except GeometryError as exc:
                        errors[c0 + i] = str(exc)
    return out, errors


def scan(e: Ellipse, family, locus: LocusSpec, n: int = 2048,
         theta: float = 0.0, mu: float = 0.5, tol: float = 1e-8) -> InvarianceReport:
    """Certify area invariance of a family while the pole sweeps the locus.

    Every pole gets a signed-area quadrature at n and at 2n samples; a pole
    whose evaluation fails or whose two quadratures are not settled() is
    marked and excluded from the spread.  The scan passes when areas exist
    for all poles, their spread about the mean stays within tol, and, where
    a closed form applies, they match it to tol as well.  Both deviations
    follow the doubling gate's rule: relative to the mean (the closed form)
    above unit area, absolute below it, so a family whose area is zero can
    certify.  With no area at all, mean and max_rel_dev are None.  A grid size n below 8, a
    non-finite theta or mu, or a tol that is not finite and positive raises
    DomainError, and then a family with no points off the ellipse
    (pseudo-Talbot) on a locus that leaves it: its poles are tested once,
    by areas.closed_form_areas, whose holds serves the closed-form
    comparison too.

    _sweep takes the poles in chunks of at most CHUNK_POINTS points at 2n
    and gives each chunk its areas at n and at 2n before the next, through
    the one rule of the doubling check (areas.doubling_rule), built with
    the frame; the frame gets each chunk's coordinates as they are, since
    LocusSpec's own checks make its poles finite.  The grid nests: its n
    nodes are the even nodes of the 2n grid, bit for bit, so the chunk is
    sampled once, at 2n, and its n-point areas are folded out of the
    2n-point spectrum.  A pole whose chunk raised, a row not all finite
    included, is re-run alone (_pole_areas): one points() call of the same
    frame at 2n, through the same rule.  Its error is that call's or the
    rule's, as raised, e.g. "envelope is singular near t=0.343612
    (parallel line pencil)", or names the first node of the 2n grid whose
    point is not finite (curves.finite_rows); every area is bitwise that
    of its pole alone.  The rest is array work
    over all poles: the doubling gaps, the settled() test (an unsettled
    pole takes settled_area's message), the closed forms
    (areas.closed_form_areas) and the spread, on the settled poles'
    selection.
    """
    spec = Family.of(family)
    fam = spec.name
    if spec.frame is None:
        raise DomainError(f"family {fam!r} has no pole to scan")
    poles = locus.poles(e)
    _require_count("grid size n", n, 8)
    _require_finite("theta and mu", theta, mu)
    _require_tol(tol)
    # an ellipse_pole_only family is an on_ellipse one: holds tests its poles
    closed, holds = closed_form_areas(fam, e, poles, theta=theta, mu=mu)
    if spec.ellipse_pole_only and not holds.all():
        raise DomainError(f"{fam} poles live on the ellipse; use a boundary locus")

    per_chunk = max(1, CHUNK_POINTS // (2 * n))
    (coarse, fine), errors = _sweep(lambda t: spec.frame(e, t, theta, mu), poles, n, per_chunk)

    # a pole with an error has no areas, and a NaN never settles
    gaps = np.abs(coarse - fine)
    good = settled(coarse, fine)
    have = np.isfinite(coarse)
    max_gap = float(np.maximum.reduce(gaps[have], initial=0.0))
    for j in np.flatnonzero(have & ~good):
        try:
            settled_area(coarse[j], fine[j])
        except QuadratureError as exc:
            errors[j] = str(exc)
    areas: List[Optional[float]] = [a if g else None
                                    for a, g in zip(coarse.tolist(), good.tolist())]

    # np.mean is add.reduce over the size and np.max is maximum.reduce: the same sums
    mean: Optional[float] = None
    max_rel_dev: Optional[float] = None
    kept = coarse[good]
    if kept.size:
        mean = float(np.add.reduce(kept) / kept.size)
        max_rel_dev = float(np.maximum.reduce(np.abs(kept - mean)) / max(abs(mean), 1.0))

    closed_ref: Optional[float] = None
    max_closed_dev: Optional[float] = None
    pick = good & holds
    c = closed[pick]
    if c.size:
        closed_ref = float(c[0])
        max_closed_dev = float(np.maximum.reduce(
            np.abs(coarse[pick] - c) / np.maximum(np.abs(c), 1.0)))

    passed = (bool(good.all()) and max_rel_dev is not None and max_rel_dev <= tol
              and (max_closed_dev is None or max_closed_dev <= tol))

    return InvarianceReport(
        family=fam, a=e.a, b=e.b, locus=locus.to_dict(), n=n,
        params={"theta": theta, "mu": mu},
        poles=poles.tolist(), areas=areas, errors=errors, mean=mean,
        max_rel_dev=max_rel_dev, max_doubling_gap=max_gap, closed_form=closed_ref,
        max_closed_dev=max_closed_dev, passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# identity suite


@dataclass
class IdentityCheck(_Report):
    """One numerical identity: |lhs - rhs| measured against a tolerance."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool


def _check(name: str, lhs: float, rhs: float, tol: float) -> IdentityCheck:
    res = abs(lhs - rhs)
    return IdentityCheck(name=name, lhs=float(lhs), rhs=float(rhs),
                         residual=float(res), tol=tol, passed=bool(res <= tol))


# the rotations of the rotation-deficit checks and the blends of the blend
# law that the identity suite certifies
IDENTITY_THETAS = (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2)
IDENTITY_MUS = (-0.5, 0.0, 0.25, 0.5, 1.0, 1.5)


def identity_suite(e: Ellipse, m=(0.7, -0.4), n: int = 2048,
                   tol: float = 1e-8) -> List[IdentityCheck]:
    """Area identities of the pedal family for one pole, closed and quadrature.

    Checks, in order: pedal minus contrapedal equals the ellipse area
    (closed forms, then quadrature, then the support-function route); the
    rotated-pedal deficit A_pedal - A_rot = A sin^2(theta) per theta of
    IDENTITY_THETAS; the blend law
    A_mu = (1-2mu)((1-mu)A_pedal - mu A_contra) + mu(1-mu)A per mu of
    IDENTITY_MUS.
    Every area a check reads from n points, by quadrature or by the
    support route, is settled against its re-run on 2n points
    (areas.settled_area); one that is not raises QuadratureError, whose
    message names the area, e.g. "pedal area: quadrature not settled (gap
    6.259e-01)" or "rotated pedal area at theta=0.523599: ...".  The 13
    quadratures share one row of 2n nodes and its one doubling rule
    (areas.doubling_rule): each builds its family's frame on the row and
    makes one points() call on the pole (_pole_areas), as a scan re-runs a
    pole.  A grid size n below 8, or a tol that is not finite and positive,
    raises DomainError.
    """
    _require_count("grid size n", n, 8)
    _require_tol(tol)
    x0, y0 = as_xy(m)
    mm = (float(x0), float(y0))
    t = ParamGrid(2 * n).nodes()
    rule, x, y = doubling_rule(t), np.array([[x0]]), np.array([[y0]])
    base = closed_form_area("ellipse", e)
    ap = closed_form_area("pedal", e, m=mm)
    ac = closed_form_area("contrapedal", e, m=mm)

    def settle(what, coarse, fine):
        try:
            return settled_area(coarse, fine)
        except QuadratureError as exc:
            raise QuadratureError(f"{what}: {exc}") from exc

    def quad(what, family, theta=0.0, mu=0.5):
        # built as a scan builds it (_sweep): columns that overflow give
        # non-finite points, which _pole_areas names, and no numpy warning
        with np.errstate(**QUIET):
            points = Family.of(family).frame(e, t, theta, mu)
        return settle(what, *_pole_areas(points, rule, t, x, y))

    ap_q = quad("pedal area", "pedal")
    ac_q = quad("contrapedal area", "contrapedal")

    checks = [
        _check("closed_pedal_minus_contrapedal", ap - ac, base, tol),
        _check("quad_pedal_minus_contrapedal", ap_q - ac_q, base, tol),
    ]

    sup = ellipse_support(e)
    sp, sc = (settle(what, area(sup, mm, n=n), area(sup, mm, n=2 * n))
              for what, area in (("support pedal area", support_pedal_area),
                                 ("support contrapedal area", support_contrapedal_area)))
    checks.append(_check("support_pedal_minus_contrapedal", sp - sc, base, tol))

    for theta in IDENTITY_THETAS:
        at_q = quad(f"rotated pedal area at theta={theta:.6g}", "rotated", theta=theta)
        checks.append(_check(f"rotation_deficit_theta_{theta:.6g}",
                             ap_q - at_q, base * math.sin(theta) ** 2, tol))

    for mu in IDENTITY_MUS:
        am_q = quad(f"interpolated pedal area at mu={mu:.6g}", "interpolated", mu=mu)
        target = (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base
        checks.append(_check(f"blend_mu_{mu:.6g}", am_q, target, tol))

    return checks


# ---------------------------------------------------------------------------
# contrapedal crossing conjecture


@dataclass
class ConjectureReport(_Report):
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


def conjecture_check_contrapedal(e: Ellipse, m, n: int = 2048,
                                 tol: float = 1e-4) -> ConjectureReport:
    """Check that the contrapedal of the ellipse about m self-crosses at the
    two axis projections (x0, 0) and (0, y0) of the pole.

    Poles on a symmetry axis, to AXIS_TOL times the semi-minor axis b, are
    skipped: the crossings degenerate there.
    A grid size n below 8 or a tol that is not finite and positive raises
    DomainError, for skipped poles too.
    """
    _require_count("grid size n", n, 8)
    _require_tol(tol)
    x0, y0 = as_xy(m)
    pole = [float(x0), float(y0)]
    if min(abs(x0), abs(y0)) < AXIS_TOL * e.b:
        return ConjectureReport(pole=pole, skipped=True,
                                reason="pole on a symmetry axis: crossings degenerate",
                                crossing_count=0, crossings=[],
                                dist_to_x_axis_point=None, dist_to_y_axis_point=None,
                                tol=tol, passed=True)
    ev = family_evaluator(e, "contrapedal", (float(x0), float(y0)))
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
