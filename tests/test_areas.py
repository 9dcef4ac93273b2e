import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pedallab import (
    AreaFamily,
    CollinearVertices,
    DegenerateLine,
    DomainError,
    Ellipse,
    ParamGrid,
    Polygon,
    QuadratureError,
    SampledCurve,
    SupportCurve,
    ZeroRotationIndex,
    ZeroTotalWeight,
    circumcenter,
    closed_form_area,
    curvature_centroid_polygon,
    curvature_centroid_samples,
    curvature_centroid_support,
    ellipse_point,
    ellipse_support,
    family_evaluator,
    internal_angles,
    pedal_polygon,
    perimeter_quadrature,
    polygon_signed_area,
    sample_curve,
    signed_area_quadrature,
    support_areas,
    support_contrapedal_area,
    support_pedal_area,
)

from pedallab.areas import DOUBLING_RTOL, settled, settled_area

TWO_PI = 2.0 * math.pi
E21 = Ellipse(2.0, 1.0)


def shoelace_spectral_derivative(curve):
    """The quadrature before its Parseval form: 1/2 sum(x y' - y x') h with
    derivatives by FFT, the Nyquist mode zeroed."""
    n = len(curve)
    k = 1j * np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    x, y = curve.points[:, 0], curve.points[:, 1]
    dx = np.fft.ifft(k * np.fft.fft(x)).real
    dy = np.fft.ifft(k * np.fft.fft(y)).real
    return float(0.5 * (TWO_PI / n) * np.sum(x * dy - y * dx))


# ---------------------------------------------------------------------------
# closed forms


class TestClosedForm:
    def test_frozen_constants(self):
        assert closed_form_area("ellipse", E21) == pytest.approx(2 * math.pi, abs=1e-14)
        assert closed_form_area("pedal", E21) == pytest.approx(2.5 * math.pi, abs=1e-14)
        assert closed_form_area("contrapedal", E21) == pytest.approx(0.5 * math.pi, abs=1e-14)
        m = tuple(ellipse_point(E21, 0.7))
        assert closed_form_area("hybrid", E21, m) == pytest.approx(59 * math.pi / 4, abs=1e-12)
        assert closed_form_area("pseudo_talbot", E21, m) == pytest.approx(
            -413 * math.pi / 64, abs=1e-12)
        assert closed_form_area("negative_pedal", E21, m) == pytest.approx(
            -9 * math.pi / 4, abs=1e-12)
        assert closed_form_area("evolutoid", E21, theta=math.pi / 2) == pytest.approx(
            -27 * math.pi / 16, abs=1e-13)
        e32 = Ellipse(3.0, 2.0)
        m32 = tuple(ellipse_point(e32, 0.7))
        assert closed_form_area("pseudo_talbot", e32, m32) == pytest.approx(
            -78.53436218583236, abs=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(-3, 3), y0=st.floats(-3, 3),
           a=st.floats(0.5, 4), ratio=st.floats(0.1, 1.0))
    def test_pedal_minus_contrapedal_is_enclosed_area(self, x0, y0, a, ratio):
        e = Ellipse(a, a * ratio)
        gap = (closed_form_area("pedal", e, (x0, y0))
               - closed_form_area("contrapedal", e, (x0, y0)))
        assert gap == pytest.approx(math.pi * e.a * e.b, rel=1e-12)

    def test_rotation_deficit(self):
        m = (0.7, -0.4)
        base = math.pi * E21.a * E21.b
        for theta in (0.0, math.pi / 6, math.pi / 4, 1.1, math.pi / 2):
            gap = (closed_form_area("pedal", E21, m)
                   - closed_form_area("rotated", E21, m, theta=theta))
            assert gap == pytest.approx(base * math.sin(theta) ** 2, abs=1e-12)

    def test_blend_endpoints_and_midpoint(self):
        m = (0.7, -0.4)
        assert closed_form_area("interpolated", E21, m, mu=0.0) == closed_form_area(
            "pedal", E21, m)
        assert closed_form_area("interpolated", E21, m, mu=1.0) == pytest.approx(
            closed_form_area("contrapedal", E21, m), abs=1e-14)
        assert closed_form_area("interpolated", E21, m, mu=0.5) == pytest.approx(
            math.pi * E21.a * E21.b / 4, abs=1e-14)

    def test_boundary_only_families_reject_interior_poles(self):
        for fam in ("hybrid", "pseudo_talbot", "negative_pedal"):
            with pytest.raises(DomainError):
                closed_form_area(fam, E21, (0.0, 0.0))

    def test_unknown_family_name(self):
        with pytest.raises(DomainError):
            closed_form_area("osculating", E21)
        with pytest.raises(DomainError):
            AreaFamily.coerce("osculating")
        assert AreaFamily.coerce(AreaFamily.PEDAL) is AreaFamily.PEDAL
        assert AreaFamily.coerce("pedal") is AreaFamily.PEDAL


# ---------------------------------------------------------------------------
# spectral quadrature


class TestSignedAreaQuadrature:
    def test_circle_area(self):
        r = 1.7
        curve = sample_curve(lambda t: np.stack([r * np.cos(t), r * np.sin(t)], axis=-1),
                             ParamGrid(256))
        assert signed_area_quadrature(curve) == pytest.approx(math.pi * r * r, abs=1e-12)

    def test_band_limited_curves_are_exact_at_small_grids(self):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(64))
        assert signed_area_quadrature(curve) == pytest.approx(2 * math.pi, abs=1e-13)

    def test_orientation_sign(self):
        curve = sample_curve(lambda t: np.stack([np.cos(-t), np.sin(-t)], axis=-1),
                             ParamGrid(64))
        assert signed_area_quadrature(curve) == pytest.approx(-math.pi, abs=1e-13)

    def test_pedal_matches_closed_form_to_machine_precision(self):
        m = (0.7, -0.4)
        curve = sample_curve(family_evaluator(E21, "pedal", m), ParamGrid(2048))
        assert signed_area_quadrature(curve) == pytest.approx(
            closed_form_area("pedal", E21, m), abs=1e-11)

    def test_rejects_non_uniform_grid(self):
        t = np.linspace(0, TWO_PI, 65)[:-1].copy()
        t[10] += 1e-3
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            signed_area_quadrature(SampledCurve(params=t, points=pts))

    def test_rejects_short_grids(self):
        t = np.linspace(0, TWO_PI, 5)[:-1]
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            signed_area_quadrature(SampledCurve(params=t, points=pts))

    def test_rejects_overflowing_area(self):
        curve = sample_curve(lambda t: 1e300 * ellipse_point(E21, t), ParamGrid(64))
        with pytest.raises(QuadratureError):
            signed_area_quadrature(curve)

    @pytest.mark.parametrize("n", [64, 65, 512, 2048])
    @pytest.mark.parametrize("make", [
        family_evaluator(E21, "pedal", (0.7, -0.4)),
        family_evaluator(E21, "contrapedal", (2.5, 1.0)),
        family_evaluator(E21, "hybrid", (0.3, 0.2)),
        family_evaluator(E21, "negative_pedal", (0.7, -0.4))])
    def test_parseval_form_matches_the_spectral_derivative_shoelace(self, n, make):
        curve = sample_curve(make, ParamGrid(n, start=0.3, offset=0.5))
        want = shoelace_spectral_derivative(curve)
        # both sum about n products of size |area|: a few hundred ulps apart at most
        assert abs(signed_area_quadrature(curve) - want) <= 1e-12 * max(1.0, abs(want))

    def test_stack_gives_each_curve_its_own_area_bitwise(self):
        starts = np.array([[0.0], [0.4], [1.1], [2.9], [5.0]])
        poles = np.array([[0.7, -0.4], [-1.2, 0.3], [0.1, 0.9], [2.5, -1.5], [0.0, 0.0]])
        t = starts + (np.arange(256) + 0.5) * (TWO_PI / 256)
        pts = family_evaluator(E21, "pedal", (poles[:, :1], poles[:, 1:]))(t)
        areas = signed_area_quadrature(SampledCurve(t, pts))
        assert areas.shape == (5,)
        for j, m in enumerate(poles):
            alone = sample_curve(family_evaluator(E21, "pedal", m),
                                 ParamGrid(256, start=float(starts[j, 0]), offset=0.5))
            assert areas[j] == signed_area_quadrature(alone)

    def test_stack_on_a_shared_row_equals_the_broadcast_rows_bitwise(self):
        poles = np.array([[0.7, -0.4], [-1.2, 0.3], [2.5, -1.5]])
        t = ParamGrid(256).nodes()
        pts = family_evaluator(E21, "pedal", (poles[:, :1], poles[:, 1:]))(t)
        shared = signed_area_quadrature(SampledCurve(t, pts))
        rows = signed_area_quadrature(SampledCurve(np.broadcast_to(t, (3, 256)), pts))
        assert shared.shape == (3,)
        assert np.array_equal(shared, rows)

    def test_stack_with_an_overflowing_curve_is_rejected(self):
        t = np.broadcast_to(ParamGrid(64).nodes(), (2, 64))
        pts = np.stack([ellipse_point(E21, t[0]), 1e300 * ellipse_point(E21, t[0])])
        with pytest.raises(QuadratureError, match="not finite"):
            signed_area_quadrature(SampledCurve(t, pts))

    def test_single_curve_consumers_reject_stacks(self):
        t = np.broadcast_to(ParamGrid(64).nodes(), (2, 64))
        stack = SampledCurve(t, np.stack([ellipse_point(E21, t[0])] * 2))
        with pytest.raises(DomainError):
            perimeter_quadrature(stack)
        with pytest.raises(DomainError):
            curvature_centroid_samples(stack)

    def test_rejects_partial_window(self):
        t = np.linspace(0, math.pi, 64, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            signed_area_quadrature(SampledCurve(params=t, points=pts))


class TestPerimeter:
    def test_circle(self):
        r = 0.9
        curve = sample_curve(lambda t: np.stack([r * np.cos(t), r * np.sin(t)], axis=-1),
                             ParamGrid(2048))
        assert perimeter_quadrature(curve) == pytest.approx(TWO_PI * r, rel=1e-10)

    def test_ellipse_against_dense_speed_integral(self):
        n = 1 << 17
        t = (np.arange(n) + 0.5) * (TWO_PI / n)
        ref = float(np.sum(np.hypot(E21.a * np.sin(t), E21.b * np.cos(t)))) * (TWO_PI / n)
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(2048))
        assert perimeter_quadrature(curve) == pytest.approx(ref, rel=1e-10)

    def test_small_grids_skip_extrapolation(self):
        curve = sample_curve(lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
                             ParamGrid(12))
        want = 24 * math.sin(math.pi / 12)  # raw inscribed 12-gon
        assert perimeter_quadrature(curve) == pytest.approx(want, abs=1e-13)


# ---------------------------------------------------------------------------
# support-function integrals


def cos3_support():
    return SupportCurve(h=lambda t: 10.0 + np.cos(3 * t),
                        dh=lambda t: -3.0 * np.sin(3 * t),
                        d2h=lambda t: -9.0 * np.cos(3 * t))


class TestDoublingGate:
    def test_bound(self):
        assert DOUBLING_RTOL == 1e-9
        assert settled(10.0, 10.0 + 9e-9)
        assert not settled(10.0, 10.0 + 11e-9)
        # absolute below unit area
        assert settled(1e-3, 1e-3 + 0.9e-9)
        assert not settled(1e-3, 1e-3 + 1.1e-9)
        assert not settled(math.nan, 1.0)

    def test_elementwise(self):
        got = settled(np.array([1.0, 1.0, 5.0]), np.array([1.0, 1.1, 5.0 + 1e-12]))
        assert got.tolist() == [True, False, True]

    def test_settled_area(self):
        assert settled_area(2.0, 2.0 + 1e-12) == 2.0
        with pytest.raises(QuadratureError, match=r"quadrature not settled \(gap 1\.000e-03\)"):
            settled_area(2.0, 2.001)


class TestSupportAreas:
    def test_ellipse_pair(self):
        got = support_areas(ellipse_support(E21))
        assert got.curve == pytest.approx(2 * math.pi, abs=1e-12)
        assert got.evolute == pytest.approx(-27 * math.pi / 16, abs=1e-12)

    def test_trig_polynomial_pair(self):
        got = support_areas(cos3_support())
        assert got.curve == pytest.approx(96 * math.pi, abs=1e-10)
        assert got.evolute == pytest.approx(-36 * math.pi, abs=1e-10)

    def test_doubling_check_catches_rough_data(self):
        # a lone kink in d2h leaves an O(n^-2) quadrature tail
        s = SupportCurve(h=lambda t: 2.0 + 0.0 * t,
                         dh=lambda t: 0.0 * t,
                         d2h=lambda t: np.abs(np.sin(t / 2 - 0.15)) + np.cos(t))
        with pytest.raises(QuadratureError):
            support_areas(s)

    def test_pedal_minus_contrapedal_is_curve_area(self):
        s = cos3_support()
        base = support_areas(s).curve
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.uniform(-3, 3, 2)
            gap = support_pedal_area(s, m) - support_contrapedal_area(s, m)
            assert gap == pytest.approx(base, rel=1e-11)

    def test_support_pedal_matches_rational_constant(self):
        s = ellipse_support(E21)
        for m in ((0.0, 0.0), (0.7, -0.4), (2.5, 1.0)):
            assert support_pedal_area(s, m) == pytest.approx(
                closed_form_area("pedal", E21, m), abs=1e-11)
            assert support_contrapedal_area(s, m) == pytest.approx(
                closed_form_area("contrapedal", E21, m), abs=1e-11)


# ---------------------------------------------------------------------------
# curvature centroids


class TestCentroids:
    def test_ellipse_centroid_is_center(self):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(1024))
        k = curvature_centroid_samples(curve)
        assert math.hypot(k.x, k.y) < 1e-12

    def test_translation_equivariance(self):
        shift = np.array([1.3, -0.2])
        curve = sample_curve(lambda t: ellipse_point(E21, t) + shift, ParamGrid(1024))
        k = curvature_centroid_samples(curve)
        np.testing.assert_allclose([k.x, k.y], shift, atol=1e-10)

    def test_support_centroid_of_offset_circle(self):
        # h = r + c . n is the circle of radius r about c
        s = SupportCurve(h=lambda t: 10.0 + np.cos(t),
                         dh=lambda t: -np.sin(t),
                         d2h=lambda t: -np.cos(t))
        k = curvature_centroid_support(s)
        np.testing.assert_allclose([k.x, k.y], [1.0, 0.0], atol=1e-12)

    def test_support_centroid_of_ellipse(self):
        k = curvature_centroid_support(ellipse_support(E21))
        assert math.hypot(k.x, k.y) < 1e-12

    def test_figure_eight_has_no_rotation(self):
        curve = sample_curve(
            lambda t: np.stack([np.sin(2 * t), np.sin(t)], axis=-1),
            ParamGrid(512, offset=0.5))
        with pytest.raises(ZeroRotationIndex):
            curvature_centroid_samples(curve)


# ---------------------------------------------------------------------------
# polygons


SQUARE = Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


class TestPolygons:
    def test_signed_area(self):
        assert polygon_signed_area(SQUARE) == pytest.approx(1.0)
        cw = Polygon(SQUARE.vertices[::-1])
        assert polygon_signed_area(cw) == pytest.approx(-1.0)

    def test_vertex_validation(self):
        with pytest.raises(DomainError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]]))

    def test_internal_angles(self):
        np.testing.assert_allclose(internal_angles(SQUARE), math.pi / 2, atol=1e-14)
        tri = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        assert float(np.sum(internal_angles(tri))) == pytest.approx(math.pi, abs=1e-13)

    def test_repeated_vertex_rejected(self):
        poly = Polygon(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(CollinearVertices):
            internal_angles(poly)

    @settings(max_examples=60, deadline=None)
    @given(coords=st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    # an angle near pi: sin(2 arctan2(...)) put the centroid 5.6e-7 off
    @example(coords=[0.0, 0.0, -8.0, 8.75, 9.0, -10.0])
    def test_triangle_centroid_is_circumcenter(self, coords):
        v = np.asarray(coords).reshape(3, 2)
        tri = Polygon(v)
        assume(abs(polygon_signed_area(tri)) > 0.5)
        k = curvature_centroid_polygon(tri)
        c = circumcenter(*v)
        scale = 1.0 + float(np.max(np.abs(v)))
        assert math.hypot(k.x - c.x, k.y - c.y) < 1e-8 * scale

    def test_rectangle_weights_cancel(self):
        with pytest.raises(ZeroTotalWeight):
            curvature_centroid_polygon(SQUARE)

    def test_pedal_polygon_feet(self):
        m = np.array([0.3, -0.8])
        tri = Polygon(np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]))
        feet = pedal_polygon(tri, m).vertices
        v = tri.vertices
        d = np.roll(v, -1, axis=0) - v
        on_line = (feet[:, 0] - v[:, 0]) * d[:, 1] - (feet[:, 1] - v[:, 1]) * d[:, 0]
        ortho = (feet[:, 0] - m[0]) * d[:, 0] + (feet[:, 1] - m[1]) * d[:, 1]
        np.testing.assert_allclose(on_line, 0.0, atol=1e-12)
        np.testing.assert_allclose(ortho, 0.0, atol=1e-12)

    def test_pedal_polygon_rejects_zero_side(self):
        poly = Polygon(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateLine):
            pedal_polygon(poly, (5.0, 5.0))

    def test_circumcenter(self):
        c = circumcenter((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
        assert (c.x, c.y) == (2.0, 1.5)
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = rng.uniform(-5, 5, (3, 2))
            if abs(polygon_signed_area(Polygon(p))) < 0.1:
                continue
            c = circumcenter(*p)
            r = np.hypot(p[:, 0] - c.x, p[:, 1] - c.y)
            np.testing.assert_allclose(r, r[0], rtol=1e-10)

    def test_circumcenter_rejects_collinear(self):
        with pytest.raises(CollinearVertices):
            circumcenter((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))
