"""Acceptance battery: one test per certified claim of the laboratory.

Each test states its tolerance inline, so the -v listing doubles as the
certification record; the routes that c02, c09a, c09c and c10 take
outside the package come from references.py.  Random data is seeded;
every run checks the same poles.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pedallab import (
    Ellipse,
    LocusSpec,
    ParamGrid,
    Polygon,
    SupportCurve,
    area_rule,
    closed_form_area,
    conjecture_check_contrapedal,
    curvature_centroid_polygon,
    ellipse_point,
    ellipse_support,
    evolutoid_point,
    family_evaluator,
    family_grid,
    find_cusps,
    pedal_polygon,
    polygon_signed_area,
    sample_curve,
    scan,
    support_contrapedal_area,
    support_pedal_area,
)
from references import (
    Support,
    circumcenter,
    ellipse_d2h,
    evolutoid_support,
    polyline_perimeter,
    support_area,
    support_pedal_point,
)

TWO_PI = 2.0 * math.pi
E = Ellipse(2.0, 1.0)
REPO = Path(__file__).resolve().parents[1]


def quad_area(family, m, n=2048, theta=0.0, mu=0.5):
    ev = family_evaluator(E, family, m, theta=theta, mu=mu)
    curve = sample_curve(ev, family_grid(family, n))
    return area_rule(curve.params)(curve.points)


def cos3_support():
    return SupportCurve(h=lambda t: 10.0 + np.cos(3 * t),
                        dh=lambda t: -3.0 * np.sin(3 * t))


def test_c01_closed_form_matches_quadrature_for_random_poles():
    # pedal and contrapedal areas, 100 random poles in [-3, 3]^2, 1e-8 relative
    rng = np.random.default_rng(20250814)
    for _ in range(100):
        m = tuple(rng.uniform(-3.0, 3.0, 2))
        for fam in ("pedal", "contrapedal"):
            closed = closed_form_area(fam, E, m)
            quad = quad_area(fam, m)
            assert abs(quad - closed) <= 1e-8 * abs(closed), (fam, m)


def test_c02_pedal_minus_contrapedal_equals_enclosed_area():
    m = (0.7, -0.4)
    # ellipse, closed forms: residual below 1e-10
    base = math.pi * E.a * E.b
    closed_gap = closed_form_area("pedal", E, m) - closed_form_area("contrapedal", E, m)
    assert abs(closed_gap - base) < 1e-10
    # ellipse, quadrature: below 1e-8
    quad_gap = quad_area("pedal", m) - quad_area("contrapedal", m)
    assert abs(quad_gap - base) < 1e-8

    # non-ellipse convex body h = 10 + cos 3t; the identity holds for any
    # convex curve.  Hand integrals: int h^2 = 201 pi, int h'^2 = 9 pi,
    # int (m.n)^2 = int (m x n)^2 = pi rho, and the h cross terms vanish.
    s = cos3_support()
    rho = m[0] ** 2 + m[1] ** 2
    ap_closed = math.pi * (100.5 + 0.5 * rho)
    ac_closed = math.pi * (4.5 + 0.5 * rho)
    assert abs((ap_closed - ac_closed) - 96 * math.pi) < 1e-10
    sup_gap = support_pedal_area(s, m) - support_contrapedal_area(s, m)
    assert abs(sup_gap - 96 * math.pi) < 1e-8
    # and the sampled pedal curve of that body integrates to the same value
    curve = sample_curve(lambda t: support_pedal_point(s, t, m), ParamGrid(2048))
    assert abs(area_rule(curve.params)(curve.points) - ap_closed) < 1e-8


def test_c03_rotated_pedal_deficit_is_area_times_sin_squared():
    rng = np.random.default_rng(3)
    base = math.pi * E.a * E.b
    for theta in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        for _ in range(20):
            m = tuple(rng.uniform(-3.0, 3.0, 2))
            gap = quad_area("pedal", m, n=1024) - quad_area("rotated", m, n=1024,
                                                            theta=theta)
            assert abs(gap - base * math.sin(theta) ** 2) < 1e-8, (theta, m)


def test_c04_blend_identity_and_exact_quarter_at_half():
    m = (0.7, -0.4)
    base = math.pi * E.a * E.b
    ap = closed_form_area("pedal", E, m)
    ac = closed_form_area("contrapedal", E, m)
    for mu in (-0.5, 0.0, 0.25, 0.5, 1.0, 1.5):
        target = (1 - 2 * mu) * ((1 - mu) * ap - mu * ac) + mu * (1 - mu) * base
        assert abs(quad_area("interpolated", m, mu=mu) - target) < 1e-8, mu
    # at mu = 1/2 the curve is a half-scale homothet: exactly a quarter area
    assert closed_form_area("interpolated", E, m, mu=0.5) == base / 4


def test_c05_pedal_family_areas_invariant_on_concentric_circles():
    for fam, kw in (("pedal", {}), ("contrapedal", {}),
                    ("rotated", {"theta": math.pi / 5}),
                    ("interpolated", {"mu": 1.0 / 3.0})):
        for r in (0.1, 0.5, 1.0, 3.0):
            rep = scan(E, fam, LocusSpec(kind="circle", r=r, count=64),
                       n=2048, tol=1e-9, **kw)
            assert rep.passed, (fam, r, rep.max_rel_dev)
            assert rep.max_rel_dev < 1e-9, (fam, r, rep.max_rel_dev)


def test_c06_hybrid_area_constant_on_boundary_poles():
    rep = scan(E, "hybrid", LocusSpec(kind="boundary", count=64), n=2048, tol=1e-6)
    assert rep.passed
    assert rep.closed_form == pytest.approx(59 * math.pi / 4, rel=1e-12)
    assert rep.max_closed_dev < 1e-6


def test_c07_perpendicular_envelope_area_constant_on_boundary_poles():
    rep = scan(E, "pseudo_talbot", LocusSpec(kind="boundary", count=64),
               n=2048, tol=1e-6)
    assert rep.passed
    assert rep.closed_form == pytest.approx(-413 * math.pi / 64, rel=1e-12)
    assert rep.max_closed_dev < 1e-6
    # the constant is negative and the signed quadrature agrees in sign
    assert rep.closed_form < 0 and rep.mean < 0


def test_c08_negative_pedal_constant_and_three_cusps():
    rep = scan(E, "negative_pedal", LocusSpec(kind="boundary", count=64),
               n=2048, tol=1e-6)
    assert rep.passed
    assert rep.max_rel_dev < 1e-6
    assert rep.closed_form == pytest.approx(-math.pi * E.c2 ** 2 / (2 * E.a * E.b), rel=1e-12)
    # the envelope for a boundary pole is a deltoid: three cusps
    m = tuple(ellipse_point(E, 0.0))
    ev = family_evaluator(E, "negative_pedal", m)
    curve = sample_curve(ev, family_grid("negative_pedal", 2048))
    assert len(find_cusps(curve)) == 3


def test_c09a_evolutoid_support_area_identity():
    sup, d2h = ellipse_support(E), ellipse_d2h(E)
    area, evolute = support_area(sup), support_area(Support(sup.dh, d2h))
    for theta in (0.15, 0.35, 0.7, 1.2, math.pi / 2):
        got = support_area(evolutoid_support(sup, d2h, theta))
        want = area * math.cos(theta) ** 2 + evolute * math.sin(theta) ** 2
        assert abs(got - want) <= 1e-8, theta


def test_c09b_evolutoid_cusp_births_at_critical_angle():
    theta0 = math.atan2(2 * E.a * E.b, 3 * E.c2)

    def cusps(theta, n=2048):
        curve = sample_curve(lambda t: evolutoid_point(E, theta, t), ParamGrid(n))
        return find_cusps(curve)

    assert len(cusps(0.9 * theta0)) == 0
    born = cusps(theta0)
    assert len(born) == 2
    np.testing.assert_allclose(np.sort(born), [3 * math.pi / 4, 7 * math.pi / 4],
                               atol=1e-6)
    assert len(cusps(1.2 * theta0)) == 4
    assert len(cusps(math.pi / 2)) == 4


def test_c09c_evolutoid_perimeter_law_below_cusp_birth():
    theta0 = math.atan2(2 * E.a * E.b, 3 * E.c2)
    ell = sample_curve(lambda t: ellipse_point(E, t), ParamGrid(2048))
    L = polyline_perimeter(ell.points)
    for frac in (0.2, 0.5, 0.8, 0.9):
        theta = frac * theta0
        cur = sample_curve(lambda t: evolutoid_point(E, theta, t), ParamGrid(2048))
        got = polyline_perimeter(cur.points)
        want = L * math.cos(theta)
        assert abs(got - want) <= 1e-6 * want, theta


def test_c09d_evolutoid_area_quadrature_vs_printed_constant():
    # the uncorrected constant pi a b cos^2 - (3 c^2 / (8 a b)) sin^2 does not
    # reproduce the measured area; the c^4 form with the pi factor does.
    # Both values are recorded here next to the quadrature.
    theta = 0.6
    a, b, c2 = E.a, E.b, E.c2
    curve = sample_curve(lambda t: evolutoid_point(E, theta, t), ParamGrid(2048))
    quad = area_rule(curve.params)(curve.points)
    corrected = closed_form_area("evolutoid", E, theta=theta)
    printed_variant = (math.pi * a * b * math.cos(theta) ** 2
                       - (3 * c2 / (8 * a * b)) * math.sin(theta) ** 2)
    record = (f"quadrature={quad!r} corrected={corrected!r} "
              f"printed_variant={printed_variant!r}")
    assert abs(quad - corrected) <= 1e-8, record
    assert abs(quad - printed_variant) > 1e-2, record


def test_c10_polygon_suite():
    # triangles: the sin(2 angle) vertex centroid is the circumcenter
    rng = np.random.default_rng(10)
    done = 0
    while done < 50:
        v = rng.uniform(-5.0, 5.0, (3, 2))
        tri = Polygon(v)
        if abs(polygon_signed_area(tri)) < 0.5:
            continue
        c = circumcenter(*v)
        if math.hypot(v[0, 0] - c.x, v[0, 1] - c.y) > 20.0:
            continue  # slivers push the center far out and amplify rounding
        k = curvature_centroid_polygon(tri)
        assert math.hypot(k.x - c.x, k.y - c.y) < 1e-10
        done += 1

    # pedal-triangle area is constant on circles about the circumcenter and
    # equals (R^2 - d^2) / (4 R^2) times the triangle area
    tri = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
    o = circumcenter(*tri.vertices)
    r_circ = math.hypot(tri.vertices[0, 0] - o.x, tri.vertices[0, 1] - o.y)
    d = 0.7 * r_circ
    areas = np.array([
        polygon_signed_area(pedal_polygon(tri, (o.x + d * math.cos(p),
                                                o.y + d * math.sin(p))))
        for p in np.linspace(0, TWO_PI, 32, endpoint=False)])
    mean = float(np.mean(areas))
    assert np.max(np.abs(areas - mean)) <= 1e-12 * abs(mean)
    want = (r_circ ** 2 - d ** 2) / (4 * r_circ ** 2) * polygon_signed_area(tri)
    assert mean == pytest.approx(want, rel=1e-12)

    # a pole on the circumcircle collapses the feet onto one line
    tri2 = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
    assert abs(polygon_signed_area(pedal_polygon(tri2, (4.0, 3.0)))) < 1e-10

    # convex pentagon: pedal-polygon area invariant on circles about the
    # sin(2 angle) centroid
    rng = np.random.default_rng(7)
    ang = np.arange(5) * TWO_PI / 5 + rng.uniform(-0.15, 0.15, 5)
    rad = 2.0 + rng.uniform(-0.2, 0.2, 5)
    pent = Polygon(np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1))
    k = curvature_centroid_polygon(pent)
    areas = np.array([
        polygon_signed_area(pedal_polygon(pent, (k.x + 0.8 * math.cos(p),
                                                 k.y + 0.8 * math.sin(p))))
        for p in np.linspace(0, TWO_PI, 32, endpoint=False)])
    mean = float(np.mean(areas))
    assert np.max(np.abs(areas - mean)) <= 1e-9 * abs(mean)


def test_c11_pedal_area_is_stationary_at_curvature_centroid():
    h = 1e-5
    # ellipse: centroid at the center
    def g_ellipse(m):
        return quad_area("pedal", m, n=2048)

    gx = (g_ellipse((h, 0.0)) - g_ellipse((-h, 0.0))) / (2 * h)
    gy = (g_ellipse((0.0, h)) - g_ellipse((0.0, -h))) / (2 * h)
    assert math.hypot(gx, gy) < 1e-6 * (math.pi * E.a * E.b)

    # non-ellipse convex body, centroid at the origin as well
    s = cos3_support()
    gx = (support_pedal_area(s, (h, 0.0)) - support_pedal_area(s, (-h, 0.0))) / (2 * h)
    gy = (support_pedal_area(s, (0.0, h)) - support_pedal_area(s, (0.0, -h))) / (2 * h)
    assert math.hypot(gx, gy) < 1e-6 * (96 * math.pi)


def test_c12_contrapedal_crossings_hit_axis_projections():
    rng = np.random.default_rng(12)
    done = 0
    while done < 10:
        x = rng.uniform(-E.a, E.a)
        y = rng.uniform(-E.b, E.b)
        if E.implicit((x, y)) > 0.92 or abs(x) < 0.05 * E.a or abs(y) < 0.05 * E.b:
            continue
        rep = conjecture_check_contrapedal(E, (x, y), n=2048, tol=1e-4)
        assert rep.passed, (x, y)
        assert rep.dist_to_x_axis_point <= 1e-4
        assert rep.dist_to_y_axis_point <= 1e-4
        done += 1


def test_c13_report_battery_is_bit_identical_across_runs(tmp_path):
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_invariance.py"),
             "--outdir", str(out), "--quick"],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "summary.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["passed"] is True
