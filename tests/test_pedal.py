import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pedallab import (
    DegenerateLine,
    DomainError,
    Ellipse,
    LineFamily,
    ParamGrid,
    SampledCurve,
    SingularFamily,
    SingularParameter,
    contrapedal_point,
    ellipse_point,
    ellipse_support,
    ellipse_velocity,
    envelope_point,
    evolutoid_point,
    evolutoid_support,
    find_cusps,
    hybrid_point,
    hybrid_velocity,
    interpolated_pedal_point,
    negative_pedal_family,
    negative_pedal_point,
    pedal_point,
    perpendicular_foot,
    pseudo_talbot_point,
    rotated_pedal_point,
    sample_curve,
    self_intersections,
    support_areas,
    support_contrapedal_point,
    support_pedal_point,
    support_point,
)
from pedallab.pedal import _segment_hits

TWO_PI = 2.0 * math.pi
E21 = Ellipse(2.0, 1.0)
M = (0.7, -0.4)


def rot(v, theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


# ---------------------------------------------------------------------------
# feet


class TestFeet:
    def test_foot_on_degenerate_line(self):
        with pytest.raises(DegenerateLine):
            perpendicular_foot((1.0, 1.0), np.zeros(2), np.zeros(2))

    def test_contrapedal_quarter_turn_from_center(self):
        got = contrapedal_point(E21, math.pi / 4, (0.0, 0.0))
        want = np.array([3 * math.sqrt(2) / 5, -3 * math.sqrt(2) / 10])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_pedal_rational_form(self):
        # independent rational expression of the tangent foot
        a, b = E21.a, E21.b
        x0, y0 = M
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, TWO_PI, 25):
            ct, st = math.cos(t), math.sin(t)
            den = b * b * ct * ct + a * a * st * st
            want = np.array([
                (a * a * x0 * st * st - a * b * y0 * ct * st + a * b * b * ct) / den,
                (b * b * y0 * ct * ct - a * b * x0 * ct * st + a * a * b * st) / den,
            ])
            np.testing.assert_allclose(pedal_point(E21, t, M), want, atol=1e-13)

    def test_contrapedal_rational_form(self):
        a, b = E21.a, E21.b
        c2 = E21.c2
        x0, y0 = M
        rng = np.random.default_rng(4)
        for t in rng.uniform(0, TWO_PI, 25):
            ct, st = math.cos(t), math.sin(t)
            den = b * b * ct * ct + a * a * st * st
            want = np.array([
                (b * b * x0 * ct * ct + ct * st * (a * b * y0 + a * c2 * st)) / den,
                (a * a * y0 * st * st + ct * st * (a * b * x0 - b * c2 * ct)) / den,
            ])
            np.testing.assert_allclose(contrapedal_point(E21, t, M), want, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0, TWO_PI), theta=st.floats(-3.0, 3.0),
           mx=st.floats(-3.0, 3.0), my=st.floats(-3.0, 3.0))
    def test_rotated_foot_property(self, t, theta, mx, my):
        # the foot lies on the rotated tangent line and sees m orthogonally
        q = rotated_pedal_point(E21, t, (mx, my), theta)
        p = ellipse_point(E21, t)
        d = rot(ellipse_velocity(E21, t), theta)
        on_line = (q[0] - p[0]) * d[1] - (q[1] - p[1]) * d[0]
        ortho = (q[0] - mx) * d[0] + (q[1] - my) * d[1]
        assert abs(on_line) < 1e-10
        assert abs(ortho) < 1e-10

    def test_rotated_interpolates_pedal_and_contrapedal(self):
        t = np.linspace(0, TWO_PI, 33)
        np.testing.assert_allclose(rotated_pedal_point(E21, t, M, 0.0),
                                   pedal_point(E21, t, M), atol=1e-12)
        np.testing.assert_allclose(rotated_pedal_point(E21, t, M, math.pi / 2),
                                   contrapedal_point(E21, t, M), atol=1e-12)
        np.testing.assert_allclose(interpolated_pedal_point(E21, t, M, 0.0),
                                   pedal_point(E21, t, M), atol=1e-14)
        np.testing.assert_allclose(interpolated_pedal_point(E21, t, M, 1.0),
                                   contrapedal_point(E21, t, M), atol=1e-14)

    def test_support_feet_match_ellipse_geometry(self):
        # support-form pedal/contrapedal agree with direct projection onto the
        # tangent/normal lines of the support point
        s = ellipse_support(E21)
        rng = np.random.default_rng(5)
        for t in rng.uniform(0, TWO_PI, 20):
            z = support_point(s, t)
            n = np.array([math.cos(t), math.sin(t)])
            tangent = np.array([-n[1], n[0]])
            np.testing.assert_allclose(support_pedal_point(s, t, M),
                                       perpendicular_foot(M, z, tangent), atol=1e-12)
            np.testing.assert_allclose(support_contrapedal_point(s, t, M),
                                       perpendicular_foot(M, z, n), atol=1e-12)


# ---------------------------------------------------------------------------
# envelopes


class TestEnvelopes:
    def test_negative_pedal_point_on_its_line(self):
        fam = negative_pedal_family(E21, M)
        t = np.linspace(0.1, TWO_PI, 40)
        x = envelope_point(fam, t)
        n = fam.normal(t)
        d = fam.offset(t)
        resid = n[:, 0] * x[:, 0] + n[:, 1] * x[:, 1] - d
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)

    def test_negative_pedal_tangency(self):
        # envelope point slides along the family line: velocity orthogonal to n
        fam = negative_pedal_family(E21, M)
        h = 1e-200
        for t in (0.3, 1.7, 4.4):
            v = envelope_point(fam, t + 1j * h).imag / h
            n = fam.normal(t)
            assert abs(v[0] * n[0] + v[1] * n[1]) < 1e-9

    def test_circle_center_envelope_is_the_circle(self):
        # the pencil never degenerates for a circle about its center:
        # the envelope folds back onto the circle itself
        c = Ellipse(1.5, 1.5)
        t = np.linspace(0, TWO_PI, 64)
        np.testing.assert_allclose(negative_pedal_point(c, t, (0.0, 0.0)),
                                   ellipse_point(c, t), atol=1e-12)

    def test_singular_at_pole_parameter(self):
        s = 0.7
        m = tuple(ellipse_point(E21, s))
        with pytest.raises(SingularFamily):
            negative_pedal_point(E21, s, m)

    @pytest.mark.parametrize("t", [
        0.3, 0.3 + 1e-200j, np.linspace(0.1, TWO_PI, 40),
        np.linspace(0.1, TWO_PI, 40) + 1e-200j, np.linspace(0.1, 6.0, 12).reshape(3, 4)])
    @pytest.mark.parametrize("m", [M, (3.0, 0.5), tuple(ellipse_point(E21, 0.7))])
    def test_negative_pedal_point_is_the_family_envelope_bitwise(self, t, m):
        got = negative_pedal_point(E21, t, m)
        want = envelope_point(negative_pedal_family(E21, m), t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_envelope_rejects_parallel_pencil(self):
        fam = LineFamily(normal=lambda t: np.stack([np.ones_like(t), np.zeros_like(t)], axis=-1),
                         offset=lambda t: np.asarray(t),
                         dnormal=lambda t: np.stack([np.zeros_like(t), np.zeros_like(t)], axis=-1),
                         doffset=lambda t: np.ones_like(t))
        with pytest.raises(SingularFamily):
            envelope_point(fam, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# chunks of poles


class TestPoleChunks:
    """A chunk of k poles, given as (k, 1) coordinate arrays, yields one curve
    per pole, bitwise equal to evaluating each pole alone."""

    POLES = np.array([[0.7, -0.4], [-1.2, 0.3], [0.1, 0.9], [2.5, -1.5]])

    @pytest.mark.parametrize("ev", [
        pedal_point, contrapedal_point, hybrid_point, negative_pedal_point,
        lambda e, t, m: rotated_pedal_point(e, t, m, 0.6),
        lambda e, t, m: interpolated_pedal_point(e, t, m, 1.0 / 3.0)])
    @pytest.mark.parametrize("per_pole_grid", [False, True])
    def test_rows_equal_single_poles(self, ev, per_pole_grid):
        base = (np.arange(64) + 0.5) * (TWO_PI / 64)
        starts = np.array([[0.0], [0.4], [1.1], [2.9]])
        t = starts + base if per_pole_grid else base
        got = ev(E21, t, (self.POLES[:, :1], self.POLES[:, 1:]))
        assert got.shape == (4, 64, 2)
        for j, (x, y) in enumerate(self.POLES):
            assert np.array_equal(got[j], ev(E21, t[j] if per_pole_grid else t, (x, y)))

    def test_pseudo_talbot_rows_equal_single_poles(self):
        s = np.array([[0.0], [0.4], [1.1], [2.9]])
        u = s + (np.arange(64) + 0.5) * (TWO_PI / 64)
        got = pseudo_talbot_point(E21, s, u)
        for j in range(4):
            assert np.array_equal(got[j], pseudo_talbot_point(E21, float(s[j, 0]), u[j]))

    def test_singular_pole_names_its_parameter(self):
        # one pole of the chunk sits on the tangent line at t = 0.9
        t = np.linspace(0.0, 1.8, 9)
        m_bad = ellipse_point(E21, 0.9) + 0.5 * ellipse_velocity(E21, 0.9)
        poles = np.array([[0.1, 0.2], m_bad])
        with pytest.raises(SingularParameter) as info:
            hybrid_point(E21, t, (poles[:, :1], poles[:, 1:]))
        assert info.value.t == pytest.approx(0.9)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((3, 2, 1)),
                                     np.full((2, 2, 1), np.nan)])
    def test_rejects_malformed_chunks(self, bad):
        with pytest.raises(DomainError):
            pedal_point(E21, 0.3, bad)


# ---------------------------------------------------------------------------
# hybrid


def hybrid_oracle(e, t, m):
    """Intersection of the perpendicular to the tangent through m with the
    perpendicular to (m - P) through P, solved as two raw lines."""
    p = ellipse_point(e, t)
    v = ellipse_velocity(e, t)
    m = np.asarray(m, float)
    d1 = np.array([-v[1], v[0]])
    w = m - p
    d2 = np.array([-w[1], w[0]])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    r = p - m
    u = (r[0] * d2[1] - r[1] * d2[0]) / den
    return m + u * d1


class TestHybrid:
    def test_matches_two_line_construction(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            m = rng.uniform(-1.5, 1.5, 2) * np.array([1.0, 0.6])
            if E21.implicit(m) > 0.95:
                continue
            t = rng.uniform(0, TWO_PI)
            got = hybrid_point(E21, t, m)
            worst = max(worst, float(np.max(np.abs(got - hybrid_oracle(E21, t, m)))))
        assert worst < 1e-12

    def test_pole_on_boundary(self):
        s = 0.7
        m = tuple(ellipse_point(E21, s))
        got = hybrid_point(E21, 1.9, m)
        np.testing.assert_allclose(got, hybrid_oracle(E21, 1.9, m), atol=1e-11)

    def test_singular_on_tangent_line(self):
        s = 0.7
        m = tuple(ellipse_point(E21, s))
        with pytest.raises(SingularParameter):
            hybrid_point(E21, s, m)

    def test_velocity_matches_complex_step(self):
        h = 1e-200
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.uniform(-0.8, 0.8, 2) * np.array([1.0, 0.5])
            t = rng.uniform(0, TWO_PI)
            cs = hybrid_point(E21, t + 1j * h, m).imag / h
            np.testing.assert_allclose(hybrid_velocity(E21, t, m), cs, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# pseudo-Talbot


class TestPseudoTalbot:
    def test_is_negative_pedal_of_hybrid(self):
        # the running parameter is reversed relative to the raw angle, so the
        # envelope of the hybrid's perpendicular pencil is evaluated at -u
        for e in (E21, Ellipse(3.0, 2.0)):
            m = ellipse_point(e, 0.7)

            def H(t):
                return hybrid_point(e, t, m)

            def V(t):
                return hybrid_velocity(e, t, m)

            fam = LineFamily(
                normal=lambda t: H(t) - m,
                offset=lambda t: ((H(t) - m) * H(t)).sum(axis=-1),
                dnormal=V,
                doffset=lambda t: (V(t) * (2 * H(t) - m)).sum(axis=-1),
            )
            rng = np.random.default_rng(9)
            worst = 0.0
            for _ in range(40):
                u = rng.uniform(0, TWO_PI)
                if abs(math.remainder(u + 0.7, TWO_PI)) < 0.2:
                    continue  # hybrid pencil is singular where -u hits the pole
                got = pseudo_talbot_point(e, 0.7, u)
                ref = envelope_point(fam, -u)
                worst = max(worst, float(np.max(np.abs(got - ref))))
            assert worst < 1e-10

    def test_axis_reflection_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s, u = rng.uniform(0, TWO_PI, 2)
            p = pseudo_talbot_point(E21, s, u)
            q = pseudo_talbot_point(E21, -s, -u)
            np.testing.assert_allclose(q, [p[0], -p[1]], atol=1e-12)

    def test_frozen_points(self):
        np.testing.assert_allclose(pseudo_talbot_point(E21, 0.7, 1.1),
                                   [-0.9327821188390966, -2.1050097766271143], atol=1e-12)
        np.testing.assert_allclose(pseudo_talbot_point(E21, 0.3, 2.5),
                                   [0.6069271532577322, -4.694731636361474], atol=1e-12)


# ---------------------------------------------------------------------------
# evolutoids


class TestEvolutoid:
    def test_limits(self):
        t = np.linspace(0, TWO_PI, 50)
        np.testing.assert_allclose(evolutoid_point(E21, 0.0, t),
                                   ellipse_point(E21, t), atol=1e-14)
        c2 = E21.c2
        evolute = np.stack([(c2 / E21.a) * np.cos(t) ** 3,
                            -(c2 / E21.b) * np.sin(t) ** 3], axis=-1)
        np.testing.assert_allclose(evolutoid_point(E21, math.pi / 2, t), evolute, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.05, 1.5), t=st.floats(0.0, TWO_PI))
    def test_point_on_crossing_line(self, theta, t):
        # the evolutoid point sits on the line through P(t) whose direction is
        # the tangent rotated by theta, and moves along it (envelope)
        x = evolutoid_point(E21, theta, t)
        p = ellipse_point(E21, t)
        d = rot(ellipse_velocity(E21, t), theta)
        assert abs((x[0] - p[0]) * d[1] - (x[1] - p[1]) * d[0]) < 1e-9
        h = 1e-200
        v = evolutoid_point(E21, theta, t + 1j * h).imag / h
        assert abs(v[0] * d[1] - v[1] * d[0]) < 1e-8

    def test_support_form_matches_parametric_form(self):
        # the point with outward normal angle phi(tau) + theta on the support
        # curve is the parametric evolutoid point at tau
        tau = np.linspace(0, TWO_PI, 37)
        phi = np.arctan2(E21.a * np.sin(tau), E21.b * np.cos(tau))
        for theta in (0.3, 0.7):
            sup = evolutoid_support(ellipse_support(E21), theta)
            np.testing.assert_allclose(support_point(sup, phi + theta),
                                       evolutoid_point(E21, theta, tau), atol=1e-12)

    def test_support_form_area_identity(self):
        sup = ellipse_support(E21)
        base = support_areas(sup)
        for theta in (0.2, 0.7, 1.1):
            got = support_areas(evolutoid_support(sup, theta)).curve
            want = base.curve * math.cos(theta) ** 2 + base.evolute * math.sin(theta) ** 2
            assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# cusp finder


class TestFindCusps:
    def test_smooth_curves_have_none(self):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(512))
        assert len(find_cusps(curve)) == 0

    def test_astroid_like_evolute(self):
        ev = lambda t: evolutoid_point(E21, math.pi / 2, t)
        cusps = find_cusps(sample_curve(ev, ParamGrid(2048)))
        assert len(cusps) == 4
        want = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        got = np.sort(cusps % TWO_PI)
        for w in want:
            circ = np.min(np.minimum(np.abs(got - w), TWO_PI - np.abs(got - w)))
            assert circ < 1e-8

    def test_without_evaluator_counts_at_grid_level(self):
        t = ParamGrid(2048).nodes()
        pts = evolutoid_point(E21, math.pi / 2, t)
        curve = SampledCurve(params=t, points=pts, evaluator=None)
        cusps = find_cusps(curve, tol=1e-2)
        assert len(cusps) == 4

    def test_requires_enough_samples(self):
        t = np.linspace(0, TWO_PI, 5)[:-1]
        with pytest.raises(DomainError):
            find_cusps(SampledCurve(params=t, points=np.stack([np.cos(t), np.sin(t)], axis=-1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(64))
        curve.points[5, 1] = bad
        with pytest.raises(DomainError):
            find_cusps(curve)


# ---------------------------------------------------------------------------
# self intersections


def fig8(t):
    t = np.asarray(t)
    return np.stack([np.sin(2 * t), np.sin(t)], axis=-1)


def brute_force_crossings(curve, block):
    """Raw hits of every non-adjacent segment pair, in block-scan order:
    sorted by (i // block, j // block, i, j) for the pair i < j."""
    pts, t = curve.points, curve.params
    n = len(pts)
    d = np.roll(pts, -1, axis=0) - pts
    ii, jj = np.triu_indices(n, 2)
    keep = ~((ii == 0) & (jj == n - 1))
    ii, jj = ii[keep], jj[keep]
    ok, s, u = _segment_hits(pts[ii], d[ii], pts[jj], d[jj])
    hits = sorted(zip(ii[ok], jj[ok], s[ok], u[ok]),
                  key=lambda h: (h[0] // block, h[1] // block, h[0], h[1]))
    step = t[1] - t[0]
    return [(pts[i] + si * d[i], float(t[i] + si * step), float(t[j] + ui * step))
            for i, j, si, ui in hits]


def zigzag(n, seed):
    """Closed zigzag between x = -1 and x = 1: every segment's x-extent
    overlaps every other's."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    x = np.where(k % 2, 1.0, -1.0) + 0.1 * rng.standard_normal(n)
    y = k + 0.3 * rng.standard_normal(n)
    return SampledCurve(params=ParamGrid(n).nodes(), points=np.stack([x, y], axis=-1))


def _figure_eight_case(data):
    return sample_curve(fig8, ParamGrid(data.draw(st.integers(8, 400), label="n"), offset=0.5))


def _contrapedal_case(data):
    # interior poles off the symmetry axes, inside and outside the astroid
    m = (data.draw(st.floats(-1.9, 1.9), label="x"), data.draw(st.floats(-0.95, 0.95), label="y"))
    assume(min(abs(m[0]), abs(m[1])) > 0.05 and E21.implicit(m) < 0.95)
    n = data.draw(st.integers(8, 400), label="n")
    return sample_curve(lambda t: contrapedal_point(E21, t, m), ParamGrid(n, offset=0.5))


def _ellipse_case(data):
    n = data.draw(st.integers(8, 400), label="n")
    return sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(n))


def _zigzag_case(data):
    n = data.draw(st.integers(8, 128), label="n")
    return zigzag(n, data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))


def _staircase_case(data):
    # each figure-eight step split into a vertical and a horizontal segment
    n = data.draw(st.integers(8, 200), label="n")
    p = fig8(ParamGrid(n, offset=0.5).nodes())
    corner = np.stack([p[:, 0], np.roll(p[:, 1], -1)], axis=-1)
    pts = np.stack([p, corner], axis=1).reshape(-1, 2)
    return SampledCurve(params=ParamGrid(2 * n, offset=0.5).nodes(), points=pts)


def _tied_extents_case(data):
    # x snapped to a coarse lattice: many segments share an x-extent end
    n = data.draw(st.integers(8, 400), label="n")
    q = data.draw(st.sampled_from([4, 8, 16, 32]), label="lattice")
    p = fig8(ParamGrid(n, offset=0.5).nodes())
    p[:, 0] = np.round(p[:, 0] * q) / q
    return SampledCurve(params=ParamGrid(n, offset=0.5).nodes(), points=p)


CURVE_CASES = {
    "figure_eight": _figure_eight_case,
    "contrapedal": _contrapedal_case,
    "ellipse": _ellipse_case,
    "zigzag": _zigzag_case,
    "staircase": _staircase_case,
    "tied_extents": _tied_extents_case,
}


class TestSelfIntersections:
    def test_figure_eight_single_crossing(self):
        curve = sample_curve(fig8, ParamGrid(512, offset=0.5))
        hits = self_intersections(curve)
        assert len(hits) == 1
        np.testing.assert_allclose(hits[0].point, [0.0, 0.0], atol=1e-10)

    def test_convex_curve_has_no_crossings(self):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(512))
        assert self_intersections(curve) == []

    def test_contrapedal_crossings_on_axis_points(self):
        m = (0.7, -0.4)
        curve = sample_curve(lambda t: contrapedal_point(E21, t, m), ParamGrid(1024, offset=0.5))
        hits = self_intersections(curve)
        assert len(hits) >= 2
        pts = np.array([h.point for h in hits])
        dx = np.min(np.hypot(pts[:, 0] - m[0], pts[:, 1]))
        dy = np.min(np.hypot(pts[:, 0], pts[:, 1] - m[1]))
        assert dx < 1e-8 and dy < 1e-8

    def test_blockwise_matches_small_block(self):
        curve = sample_curve(fig8, ParamGrid(300, offset=0.5))
        a = self_intersections(curve, refine=False, block=64)
        b = self_intersections(curve, refine=False, block=4096)
        assert len(a) == len(b) == 1
        np.testing.assert_allclose(a[0].point, b[0].point, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        curve = sample_curve(fig8, ParamGrid(64, offset=0.5))
        curve.points[7, 0] = bad
        with pytest.raises(DomainError):
            self_intersections(curve)

    @pytest.mark.parametrize("block", [0, -4])
    def test_rejects_empty_block(self, block):
        with pytest.raises(DomainError):
            self_intersections(sample_curve(fig8, ParamGrid(64, offset=0.5)), block=block)

    def test_contrapedal_raw_hits_inside_and_outside_astroid(self):
        # 4 normals pass through a pole inside the astroid, 2 outside it
        for m, count in (((0.7, -0.4), 8), ((1.5, 0.6), 3)):
            curve = sample_curve(lambda t: contrapedal_point(E21, t, m),
                                 ParamGrid(2048, offset=0.5))
            assert len(self_intersections(curve, refine=False)) == count

    @pytest.mark.parametrize("case", sorted(CURVE_CASES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_bitwise(self, case, data):
        curve = CURVE_CASES[case](data)
        block = data.draw(st.integers(1, 600), label="block")
        got = self_intersections(curve, refine=False, block=block)
        want = brute_force_crossings(curve, block)
        assert len(got) == len(want)
        for c, (point, t1, t2) in zip(got, want):
            assert np.array_equal(c.point, point) and c.t1 == t1 and c.t2 == t2

    def test_memory_stays_bounded_when_all_extents_overlap(self):
        curve = zigzag(1024, seed=0)  # every x-extent overlaps: ~520k candidate pairs
        tracemalloc.start()
        try:
            self_intersections(curve, block=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
