import math
import tracemalloc
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pedallab import (
    DegenerateLine,
    DomainError,
    Ellipse,
    GeometryError,
    ParamGrid,
    SampledCurve,
    SingularFamily,
    ellipse_point,
    ellipse_support,
    ellipse_velocity,
    evolutoid_point,
    evolutoid_support,
    family_evaluator,
    find_cusps,
    sample_curve,
    self_intersections,
    support_areas,
    support_contrapedal_point,
    support_pedal_point,
    support_point,
)
import pedallab.pedal as pedal_module
from pedallab.areas import FAMILIES, Family
from pedallab.curves import as_xy, pole_on_ellipse
from pedallab.pedal import (
    Crossing,
    _envelope_solve,
    _feet,
    _segment_hits,
    _spectral_bounds,
    contrapedal_frame,
    hybrid_frame,
    interpolated_frame,
    negative_pedal_frame,
    negative_pedal_rational_frame,
    pedal_frame,
    pseudo_talbot_frame,
    rotated_frame,
)

TWO_PI = 2.0 * math.pi
E21 = Ellipse(2.0, 1.0)
M = (0.7, -0.4)
# the registry families with a pole, whose frames take a chunk's workspace
POLE_FAMILIES = [name for name, fam in FAMILIES.items()
                 if fam.frame is not None and name != "ellipse"]


def rot(v, theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def point(fam, t, m, e=E21, **kw):
    """The points of a family at t for the pole m, through family_evaluator."""
    return family_evaluator(e, fam, m, **kw)(t)


def frame_points(fam, t, xs, ys, e=E21, theta=0.0, mu=0.5):
    """The points of a family at t for poles at the plain coordinates
    (xs, ys), through its registry frame, as harness.scan calls it."""
    return Family.of(fam).frame(e, t, theta, mu)(xs, ys)


# ---------------------------------------------------------------------------
# feet


class TestFeet:
    def test_foot_on_degenerate_line(self):
        with pytest.raises(DegenerateLine, match=r"^line direction vanishes near t=0\.5$"):
            _feet(0.5, np.zeros(2), np.zeros(2))

    def test_contrapedal_quarter_turn_from_center(self):
        got = point("contrapedal", math.pi / 4, (0.0, 0.0))
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
            np.testing.assert_allclose(point("pedal", t, M), want, atol=1e-13)

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
            np.testing.assert_allclose(point("contrapedal", t, M), want, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0, TWO_PI), theta=st.floats(-3.0, 3.0),
           mx=st.floats(-3.0, 3.0), my=st.floats(-3.0, 3.0))
    def test_rotated_foot_property(self, t, theta, mx, my):
        # the foot lies on the rotated tangent line and sees m orthogonally
        q = point("rotated", t, (mx, my), theta=theta)
        p = ellipse_point(E21, t)
        d = rot(ellipse_velocity(E21, t), theta)
        on_line = (q[0] - p[0]) * d[1] - (q[1] - p[1]) * d[0]
        ortho = (q[0] - mx) * d[0] + (q[1] - my) * d[1]
        assert abs(on_line) < 1e-10
        assert abs(ortho) < 1e-10

    def test_rotated_interpolates_pedal_and_contrapedal(self):
        t = np.linspace(0, TWO_PI, 33)
        np.testing.assert_allclose(point("rotated", t, M, theta=0.0),
                                   point("pedal", t, M), atol=1e-12)
        np.testing.assert_allclose(point("rotated", t, M, theta=math.pi / 2),
                                   point("contrapedal", t, M), atol=1e-12)
        np.testing.assert_allclose(point("interpolated", t, M, mu=0.0),
                                   point("pedal", t, M), atol=1e-14)
        np.testing.assert_allclose(point("interpolated", t, M, mu=1.0),
                                   point("contrapedal", t, M), atol=1e-14)

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


@dataclass
class LineFamily:
    """Reference: a one-parameter family of lines n(t) . X = d(t) with its
    t-derivatives; the envelope point at t solves the line together with
    its derivative line."""

    normal: Callable
    offset: Callable
    dnormal: Callable
    doffset: Callable


def envelope_point(fam: LineFamily, t):
    """Characteristic point of the family at t; SingularFamily where the line
    and its derivative line are parallel."""
    t = np.asarray(t)
    n = np.asarray(fam.normal(t))
    dn = np.asarray(fam.dnormal(t))
    return _envelope_solve(t, n[..., 0], n[..., 1], dn[..., 0], dn[..., 1],
                           fam.offset(t), fam.doffset(t))


def negative_pedal_family(e: Ellipse, m) -> LineFamily:
    """Reference: the lines through P(t) perpendicular to P(t) - m."""
    mx, my = as_xy(m)

    def normal(t):
        p = ellipse_point(e, t)
        return np.stack([p[..., 0] - mx, p[..., 1] - my], axis=-1)

    def offset(t):
        p = ellipse_point(e, t)
        return (p[..., 0] - mx) * p[..., 0] + (p[..., 1] - my) * p[..., 1]

    def dnormal(t):
        return ellipse_velocity(e, t)

    def doffset(t):
        p = ellipse_point(e, t)
        v = ellipse_velocity(e, t)
        return v[..., 0] * (2 * p[..., 0] - mx) + v[..., 1] * (2 * p[..., 1] - my)

    return LineFamily(normal=normal, offset=offset, dnormal=dnormal, doffset=doffset)


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
        np.testing.assert_allclose(point("negative_pedal", t, (0.0, 0.0), e=c),
                                   ellipse_point(c, t), atol=1e-12)

    def test_singular_at_pole_parameter(self):
        # the pencil itself; family_evaluator serves this pole from the
        # reduced frame, finite at t = s
        s = 0.7
        m = tuple(ellipse_point(E21, s))
        with pytest.raises(SingularFamily):
            negative_pedal_rational_frame(E21, s)(*m)

    @pytest.mark.parametrize("t", [
        0.3, 0.3 + 1e-200j, np.linspace(0.1, TWO_PI, 40),
        np.linspace(0.1, TWO_PI, 40) + 1e-200j, np.linspace(0.1, 6.0, 12).reshape(3, 4)])
    @pytest.mark.parametrize("m", [M, (3.0, 0.5), tuple(ellipse_point(E21, 0.7))])
    def test_negative_pedal_point_is_the_family_envelope_bitwise(self, t, m):
        got = negative_pedal_rational_frame(E21, t)(*m)
        want = envelope_point(negative_pedal_family(E21, m), t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        if not pole_on_ellipse(E21, m):
            # a pole off the ellipse is served by the pencil
            assert np.array_equal(point("negative_pedal", t, m), got)

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
    """A chunk of k poles, given to a registry frame as (k, 1) coordinate
    arrays as harness.scan gives it, yields one curve per pole, bitwise
    equal to evaluating each pole alone through family_evaluator."""

    POLES = np.array([[0.7, -0.4], [-1.2, 0.3], [0.1, 0.9], [2.5, -1.5]])

    @pytest.mark.parametrize("fam, kw", [
        ("pedal", {}), ("contrapedal", {}), ("hybrid", {}), ("negative_pedal", {}),
        ("rotated", dict(theta=0.6)), ("interpolated", dict(mu=1.0 / 3.0))])
    @pytest.mark.parametrize("per_pole_grid", [False, True])
    def test_rows_equal_single_poles(self, fam, kw, per_pole_grid):
        base = (np.arange(64) + 0.5) * (TWO_PI / 64)
        starts = np.array([[0.0], [0.4], [1.1], [2.9]])
        t = starts + base if per_pole_grid else base
        got = frame_points(fam, t, self.POLES[:, :1], self.POLES[:, 1:], **kw)
        assert got.shape == (4, 64, 2)
        for j, (x, y) in enumerate(self.POLES):
            assert np.array_equal(got[j], point(fam, t[j] if per_pole_grid else t, (x, y), **kw))

    def test_pseudo_talbot_rows_equal_single_poles(self):
        s = np.array([[0.0], [0.4], [1.1], [2.9]])
        u = s + (np.arange(64) + 0.5) * (TWO_PI / 64)
        poles = ellipse_point(E21, s[:, 0])
        got = frame_points("pseudo_talbot", u, poles[:, :1], poles[:, 1:])
        for j in range(4):
            assert np.array_equal(got[j], point("pseudo_talbot", u[j], tuple(poles[j])))

    def test_singular_pole_names_its_parameter(self):
        # one pole of the chunk sits on the tangent line at t = 0.9, where
        # the pencil that the hybrid reflects is singular
        t = np.linspace(0.0, 1.8, 9)
        m_bad = ellipse_point(E21, 0.9) + 0.5 * ellipse_velocity(E21, 0.9)
        poles = np.array([[0.1, 0.2], m_bad])
        with pytest.raises(SingularFamily) as info:
            frame_points("hybrid", t, poles[:, :1], poles[:, 1:])
        assert info.value.t == pytest.approx(0.9)

    @staticmethod
    def workload_poles(fam, k):
        """k poles for the registry family fam, signed zeros among them: on
        the ellipse for the boundary families, anywhere for the others."""
        rng = np.random.default_rng(k)
        if FAMILIES[fam].on_ellipse:
            poles = ellipse_point(E21, rng.uniform(0.0, TWO_PI, max(k, 3)))
            poles[:3] = [[E21.a, 0.0], [-0.0, E21.b], [0.0, -E21.b]]
        else:
            poles = rng.normal(size=(max(k, 3), 2))
            poles[:3] = [[0.0, 0.0], [-0.0, 0.5], [0.3, -0.0]]
        return poles[:k]

    @pytest.mark.parametrize("fam", POLE_FAMILIES)
    @pytest.mark.parametrize("k, size", [(k, size) for k in (1, 4, 32)
                                         for size in (16, 18, 512, 4096)])
    def test_workspace_points_are_the_plain_points_bitwise(self, fam, k, size):
        # the scan's path: a real (3, k, n) workspace, one frame for chunks
        # of k rows and then of fewer, in the workspace's first rows; every
        # point bitwise that of points(x, y) and of its pole alone, signed
        # zeros included, and numpy's buffer size as it was
        t = ParamGrid(size).nodes()
        frame = FAMILIES[fam].frame(E21, t, 0.6, 1.0 / 3.0)
        poles = self.workload_poles(fam, k)
        work = np.full((3, k, size), np.nan)
        bufsize = np.getbufsize()
        for rows in (k, max(1, k // 4), k):
            x, y = poles[:rows, :1], poles[:rows, 1:]
            got = frame(x, y, work[:, :rows])
            assert np.getbufsize() == bufsize
            assert np.shares_memory(got, work)
            want = frame(x, y)
            assert got.shape == want.shape == (rows, size, 2)
            assert got.tobytes() == want.tobytes()
            for j in range(rows):
                alone = frame(float(poles[j, 0]), float(poles[j, 1]))
                assert got[j].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("fam", POLE_FAMILIES)
    @pytest.mark.parametrize("k, size", [(1, 16), (4, 512), (32, 512), (4, 4096)])
    def test_complex_step_rows_equal_single_poles_bitwise(self, fam, k, size):
        # a frame on complex parameters, as a complex step builds it, gives
        # each pole of a chunk bitwise the points of the pole alone
        t = ParamGrid(size).nodes() + 2.0 ** -64 * 1j
        frame = FAMILIES[fam].frame(E21, t, 0.6, 1.0 / 3.0)
        poles = self.workload_poles(fam, k)
        got = frame(poles[:, :1], poles[:, 1:])
        assert got.dtype == complex and got.shape == (k, size, 2)
        for j in range(k):
            alone = frame(float(poles[j, 0]), float(poles[j, 1]))
            assert got[j].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((3, 2, 1)),
                                     np.full((2, 2, 1), np.nan),
                                     (POLES[:, :1], POLES[:, 1:])])
    def test_family_evaluator_refuses_chunks(self, bad):
        # family_evaluator takes one pole; a chunk, well formed or not, is
        # refused when the evaluator is built
        with pytest.raises(DomainError, match="expected a 2d point"):
            family_evaluator(E21, "pedal", bad)


# ---------------------------------------------------------------------------
# foot frames


def perpendicular_foot(m, p, d):
    """Foot of the perpendicular from m onto the line p + u d.

    Broadcasts over leading axes of p and d; m is a pole (x, y), or a chunk
    of poles whose (k, 1) coordinates broadcast against those axes.
    """
    x0, y0 = m
    p = np.asarray(p)
    d = np.asarray(d)
    dd = d[..., 0] ** 2 + d[..., 1] ** 2
    if np.min(np.abs(dd)) < 1e-24:
        raise DegenerateLine("line direction vanishes")
    u = ((x0 - p[..., 0]) * d[..., 0] + (y0 - p[..., 1]) * d[..., 1]) / dd
    return p + u[..., None] * d


def textbook_steiner(e, t, m, kind, theta=0.6, mu=1.0 / 3.0):
    """The Steiner points as the textbook draws them: each foot dropped from
    m onto its line (perpendicular_foot), the interpolated family as the
    blend (1 - mu) pedal + mu contrapedal of two feet."""
    p, v = ellipse_point(e, t), ellipse_velocity(e, t)
    normal = np.stack([-v[..., 1], v[..., 0]], axis=-1)
    if kind == "pedal":
        return perpendicular_foot(m, p, v)
    if kind == "contrapedal":
        return perpendicular_foot(m, p, normal)
    if kind == "rotated":
        ct, st = math.cos(theta), math.sin(theta)
        d = np.stack([ct * v[..., 0] - st * v[..., 1],
                      st * v[..., 0] + ct * v[..., 1]], axis=-1)
        return perpendicular_foot(m, p, d)
    return (1.0 - mu) * perpendicular_foot(m, p, v) + mu * perpendicular_foot(m, p, normal)


def steiner_reference(e, t, m, kind, theta=0.6, mu=1.0 / 3.0):
    """The Steiner points written out in one piece, with P(t) and P'(t)
    evaluated on every call: F0 + x F1 + y F2 per coordinate for the pole
    (x, y), with the foot columns F0 = p - ((p . d) / (d . d)) d,
    F1 = (dx / (d . d)) d and F2 = (dy / (d . d)) d, the x of F2 taken as
    the y of F1, and the interpolated blend as
    (1 - 2 mu) pedal + mu (P(t) + m).  m is a pole (x, y), or a chunk of
    poles as (k, 1) coordinate arrays."""
    x, y = m
    p, d = ellipse_point(e, t), ellipse_velocity(e, t)
    if kind == "contrapedal":
        d = np.stack([-d[..., 1], d[..., 0]], axis=-1)
    elif kind == "rotated":
        ct, st = math.cos(theta), math.sin(theta)
        d = np.stack([ct * d[..., 0] - st * d[..., 1],
                      st * d[..., 0] + ct * d[..., 1]], axis=-1)
    px, py, dx, dy = p[..., 0], p[..., 1], d[..., 0], d[..., 1]
    dd = dx ** 2 + dy ** 2
    w = (px * dx + py * dy) / dd
    fx = [px - w * dx, dx / dd * dx, dx / dd * dy]
    fy = [py - w * dy, dx / dd * dy, dy / dd * dy]
    if kind == "interpolated":
        k = 1.0 - 2.0 * mu
        fx = [k * fx[0] + mu * px, k * fx[1] + mu, k * fx[2]]
        fy = [k * fy[0] + mu * py, k * fy[1], k * fy[2] + mu]
    return np.stack([fx[0] + x * fx[1] + y * fx[2], fy[0] + x * fy[1] + y * fy[2]], axis=-1)


# family -> frame builder, at steiner_reference's theta and mu
STEINER = {
    "pedal": pedal_frame,
    "contrapedal": contrapedal_frame,
    "rotated": lambda e, t: rotated_frame(e, t, 0.6),
    "interpolated": lambda e, t: interpolated_frame(e, t, 1.0 / 3.0),
}


def steiner_point(kind, t, m):
    """A Steiner family's points at steiner_reference's theta and mu: for one
    pole through family_evaluator, for a chunk of poles through the
    registry frame on their coordinates, as harness.scan calls it."""
    if np.ndim(m[0]):
        return frame_points(kind, t, *m, theta=0.6, mu=1.0 / 3.0)
    return point(kind, t, m, theta=0.6, mu=1.0 / 3.0)


class TestFootFrames:
    """The Steiner evaluators are a pole-free frame plus the feet from the
    pole; a frame built once serves any number of poles."""

    CHUNK = (np.array([[0.7], [-1.2], [2.5]]), np.array([[-0.4], [0.3], [-1.5]]))

    @pytest.mark.parametrize("kind", sorted(STEINER))
    @pytest.mark.parametrize("t", [
        0.3, 0.3 + 1e-200j, np.linspace(0.1, TWO_PI, 40),
        np.linspace(0.1, TWO_PI, 40) + 1e-200j, np.linspace(0.1, 6.0, 12).reshape(3, 4)])
    @pytest.mark.parametrize("m", [M, (3.0, 0.5), CHUNK])
    def test_points_equal_the_formulas_in_one_piece_bitwise(self, kind, t, m):
        got = steiner_point(kind, t, m)
        want = steiner_reference(E21, t, m, kind)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", sorted(STEINER))
    def test_one_frame_serves_every_pole(self, kind):
        t = (np.arange(64) + 0.5) * (TWO_PI / 64)
        fr = STEINER[kind](E21, t)
        for x, y in zip(*self.CHUNK):
            assert np.array_equal(fr(float(x[0]), float(y[0])),
                                  steiner_point(kind, t, (float(x[0]), float(y[0]))))
        assert np.array_equal(fr(*self.CHUNK), steiner_point(kind, t, self.CHUNK))

    @pytest.mark.parametrize("kind", sorted(STEINER))
    def test_points_are_the_textbook_feet(self, kind):
        # the affine columns against the feet dropped one by one: within
        # 8 eps of |P(t)| + |m| for poles from 0.01 to 30 off the centre
        t = ParamGrid(2048).nodes()
        rng = np.random.default_rng(17)
        r, ang = np.geomspace(0.01, 30.0, 100), rng.uniform(0.0, TWO_PI, 100)
        m = ((r * np.cos(ang))[:, None], (r * np.sin(ang))[:, None])
        for e in ELLIPSES + [Ellipse(5.0, 2.0)]:
            got = STEINER[kind](e, t)(*m)
            want = textbook_steiner(e, t, m, kind)
            err = np.hypot(*np.moveaxis(got - want, -1, 0))
            scale = np.hypot(*np.moveaxis(ellipse_point(e, t), -1, 0)) + r[:, None]
            assert np.all(err <= 8 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("kind", sorted(STEINER))
    @pytest.mark.parametrize("m", [(1e308, 0.0), (1.2e308, 1.2e308), (-1.2e308, 1.2e308),
                                   (0.0, -1.7e308)])
    def test_points_of_a_huge_pole_are_finite(self, kind, m):
        # a foot is F0 + x F1 + y F2 with F0 = O(|P(t)|) and F1, F2 of
        # entries at most 1 in size, so only a pole near the largest float
        # can overflow it
        assert np.all(np.isfinite(steiner_point(kind, ParamGrid(256).nodes(), m)))

    @pytest.mark.parametrize("kind", sorted(STEINER))
    def test_vanishing_direction_raises(self, monkeypatch, kind):
        t = np.linspace(0.0, 1.0, 8)
        point_velocity = pedal_module.ellipse_point_velocity

        def vanishing(e, t):
            p, v = point_velocity(e, t)
            v[3] = 0.0
            return p, v

        monkeypatch.setattr(pedal_module, "ellipse_point_velocity", vanishing)
        with pytest.raises(DegenerateLine, match=f"near t={t[3]:.6g}$"):
            STEINER[kind](E21, t)


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
            got = point("hybrid", t, m)
            worst = max(worst, float(np.max(np.abs(got - hybrid_oracle(E21, t, m)))))
        assert worst < 1e-12

    def test_matches_two_line_construction_outside(self):
        # a pole outside the ellipse takes 2P(t) minus the pencil's points;
        # t stays away from the tangents through m, where both are singular
        rng = np.random.default_rng(8)
        worst, cases = 0.0, 0
        while cases < 300:
            m = rng.uniform(-4.0, 4.0, 2)
            t = rng.uniform(0, TWO_PI)
            w, v = m - ellipse_point(E21, t), ellipse_velocity(E21, t)
            sine = abs(w[0] * v[1] - w[1] * v[0]) / (np.hypot(*w) * np.hypot(*v))
            if E21.implicit(m) < 1.05 or sine < 0.05:
                continue
            want = hybrid_oracle(E21, t, m)
            err = np.hypot(*(point("hybrid", t, m) - want)) / max(1.0, np.hypot(*want))
            worst, cases = max(worst, float(err)), cases + 1
        assert worst < 1e-12

    def test_pole_on_boundary(self):
        s = 0.7
        m = tuple(ellipse_point(E21, s))
        got = point("hybrid", 1.9, m)
        np.testing.assert_allclose(got, hybrid_oracle(E21, 1.9, m), atol=1e-11)

    def test_singular_on_tangent_line(self):
        # a pole off the ellipse on the tangent line at P(s) takes the
        # pencil, singular at t = s; family_evaluator serves a pole on the
        # ellipse from the reduced frame, finite at t = s
        s = 0.7
        m = tuple(ellipse_point(E21, s) + 0.5 * ellipse_velocity(E21, s))
        with pytest.raises(SingularFamily) as info:
            hybrid_frame(E21, s)(*m)
        assert info.value.t == pytest.approx(s)


# ---------------------------------------------------------------------------
# pseudo-Talbot


class TestPseudoTalbot:
    def test_is_negative_pedal_of_hybrid(self):
        # the running parameter is reversed relative to the raw angle, so the
        # envelope of the hybrid's perpendicular pencil is evaluated at -u
        for e in (E21, Ellipse(3.0, 2.0)):
            m = ellipse_point(e, 0.7)

            def H(t):
                return point("hybrid", t, m, e=e)

            def V(t):
                return point("hybrid", np.asarray(t) + 1e-200j, m, e=e).imag / 1e-200

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
                got = point("pseudo_talbot", u, m, e=e)
                ref = envelope_point(fam, -u)
                worst = max(worst, float(np.max(np.abs(got - ref))))
            assert worst < 1e-10

    def test_axis_reflection_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s, u = rng.uniform(0, TWO_PI, 2)
            p = point("pseudo_talbot", u, boundary_pole(E21, s))
            q = point("pseudo_talbot", -u, boundary_pole(E21, -s))
            np.testing.assert_allclose(q, [p[0], -p[1]], atol=1e-12)

    def test_frozen_points(self):
        np.testing.assert_allclose(point("pseudo_talbot", 1.1, boundary_pole(E21, 0.7)),
                                   [-0.9327821188390966, -2.1050097766271143], atol=1e-12)
        np.testing.assert_allclose(point("pseudo_talbot", 2.5, boundary_pole(E21, 0.3)),
                                   [0.6069271532577322, -4.694731636361474], atol=1e-12)


# ---------------------------------------------------------------------------
# frames of the boundary families


def hybrid_reference(e, t, m):
    """The hybrid point written out at the absolute parameter t, with the
    harmonics of t evaluated directly."""
    a, b = e.a, e.b
    x0, y0 = as_xy(m)
    c2 = e.c2
    t = np.asarray(t)
    ct, st = np.cos(t), np.sin(t)
    c2t, s2t = np.cos(2 * t), np.sin(2 * t)
    c3t, s3t = np.cos(3 * t), np.sin(3 * t)
    den = 4.0 * (a * y0 * st + b * x0 * ct - a * b)
    nx = (-b * (3 * a * a + b * b + 4 * y0 * y0) * ct + 4 * a * b * x0 * c2t
          - b * c2 * c3t + 4 * a * x0 * y0 * st + 4 * b * b * y0 * s2t)
    ny = (-a * (a * a + 3 * b * b + 4 * x0 * x0) * st + 4 * a * a * x0 * s2t
          - a * c2 * s3t + 4 * b * x0 * y0 * ct - 4 * a * b * y0 * c2t)
    return np.stack([nx / den, ny / den], axis=-1)


def pseudo_talbot_reference(e, s, u):
    """The pseudo-Talbot point written out in one piece, (cos s, sin s)
    inside each coordinate's sum."""
    a, b = e.a, e.b
    a2, b2 = a * a, b * b
    a4, b4 = a2 * a2, b2 * b2
    c4 = e.c2 * e.c2
    cs, ss = np.cos(s), np.sin(s)
    t = -np.asarray(u)
    ct, st = np.cos(t), np.sin(t)
    ct2 = ct * ct
    kx = 2 * ct2 * ct2 - 3 * ct2
    ky = 2 * ct2 * ct2 - ct2
    x = (-((kx + 1) * a4 - 2 * (kx + 1) * a2 * b2 + kx * b4) * cs
         - 2 * c4 * st ** 3 * ct * ss
         + ct * (a2 + b2) * (-a2 * st ** 2 - b2 * ct2 + 2 * b2)) / (a * b2)
    y = (-2 * c4 * st * ct ** 3 * cs
         - ((ky - 1) * a4 - 2 * ky * a2 * b2 + ky * b4) * ss
         + st * (a2 + b2) * ((a2 - b2) * ct2 + a2)) / (a2 * b)
    return np.stack([x, y], axis=-1)


def reduced_reference(fam, e, t, s):
    """The reduced hybrid or negative pedal of the pole P(s) as trig sums in
    t and 2t + s, written out apart from the frames' columns."""
    al, be = (e.a ** 2 + e.b ** 2) / (2 * e.a), (e.a ** 2 + e.b ** 2) / (2 * e.b)
    ga, de = e.c2 / (2 * e.a), e.c2 / (2 * e.b)
    t = np.asarray(t)
    if fam == "hybrid":
        x = al * np.cos(s) + 2 * al * np.cos(t) - ga * np.cos(2 * t + s)
        y = be * np.sin(s) + 2 * be * np.sin(t) - de * np.sin(2 * t + s)
    else:
        x = -al * np.cos(s) + 2 * ga * np.cos(t) + ga * np.cos(2 * t + s)
        y = -be * np.sin(s) - 2 * de * np.sin(t) + de * np.sin(2 * t + s)
    return np.stack([x, y], axis=-1)


# the rational forms at the absolute parameter t, the reference of the
# reduced frames away from t = s
RATIONAL = {
    "hybrid": hybrid_reference,
    "negative_pedal": lambda e, t, m: envelope_point(negative_pedal_family(e, m), t),
}
FRAMES = {"hybrid": hybrid_frame, "negative_pedal": negative_pedal_frame,
          "pseudo_talbot": pseudo_talbot_frame}
ELLIPSES = [E21, Ellipse(3.0, 2.0), Ellipse(3.0, 1.0), Ellipse(1.5, 1.0)]


def boundary_pole(e, s):
    return tuple(float(v) for v in ellipse_point(e, s))


class TestBoundaryFrames:
    """For a pole at P(s), hybrid and negative pedal are trigonometric
    polynomials of degree 2 in t: the reduced frames agree with the rational
    forms away from t = s and stay finite at t = s."""

    @settings(max_examples=80, deadline=None)
    @given(fam=st.sampled_from(list(RATIONAL)), e=st.sampled_from(ELLIPSES),
           s=st.floats(-TWO_PI, TWO_PI), tau=st.floats(0.1, TWO_PI - 0.1))
    def test_reduced_frame_matches_the_rational_form(self, fam, e, s, tau):
        # tau = t - s stays 0.1 away from the removable singularity of the
        # rational form, whose cancellation costs digits like 1 / tau^2
        t = s + np.array([tau, TWO_PI - tau, tau - TWO_PI])
        m = boundary_pole(e, s)
        got = FRAMES[fam](e, t)(*m)
        want = RATIONAL[fam](e, t, m)
        scale = np.max(np.abs(FRAMES[fam](e, ParamGrid(64).nodes())(*m)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(e=st.sampled_from(ELLIPSES), s=st.floats(-TWO_PI, TWO_PI),
           u=st.floats(0.0, TWO_PI))
    def test_pseudo_talbot_frame_matches_its_formula(self, e, s, u):
        got = pseudo_talbot_frame(e, u)(*boundary_pole(e, s))
        want = pseudo_talbot_reference(e, s, u)
        assert np.max(np.abs(got - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("e, ulps", [(E21, 0), (Ellipse(3.0, 1.0), 4),
                                         (Ellipse(1.5, 1.0), 4), (Ellipse(5.0, 2.0), 4)])
    def test_pseudo_talbot_reads_the_angle_of_its_pole(self, monkeypatch, e, ulps):
        # the frame reads (cos s, sin s) of P(s) as (x/a, y/b): bitwise cos s
        # and sin s at a=2, b=1; elsewhere within an ulp of them, which moves
        # a point by at most 1.4 ulps of its curve's largest coordinate
        columns = []
        affine = pedal_module._affine_frame
        monkeypatch.setattr(pedal_module, "_affine_frame",
                            lambda fx, fy, *scale: columns.append((fx, fy)) or affine(fx, fy, *scale))
        frame = pseudo_talbot_frame(e, ParamGrid(256).nodes())
        (fx, fy), = columns
        s = np.random.default_rng(5).uniform(-TWO_PI, TWO_PI, (400, 1))
        poles = ellipse_point(e, s[:, 0])
        got = frame(poles[:, :1], poles[:, 1:])
        cs, ss = np.cos(s), np.sin(s)
        want = np.stack([fx[0] + cs * fx[1] + ss * fx[2], fy[0] + cs * fy[1] + ss * fy[2]],
                        axis=-1)
        scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - want) <= ulps * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("fam", list(RATIONAL))
    @pytest.mark.parametrize("s", [0.0, 0.7, -2.4])
    def test_finite_at_the_pole_parameter(self, fam, s):
        m = boundary_pole(E21, s)
        t = np.array([s - 0.5, s, s + 0.5])
        got = FRAMES[fam](E21, t)(*m)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, reduced_reference(fam, E21, t, s), rtol=0, atol=1e-14)
        # a 0-d parameter gives one point
        assert np.array_equal(FRAMES[fam](E21, s)(*m), got[1])
        # the rational frame keeps the pencil's singularity and names t = s
        rational = {"hybrid": pedal_module._hybrid_rational,
                    "negative_pedal": negative_pedal_rational_frame}[fam]
        with pytest.raises(SingularFamily) as info:
            rational(E21, t)(*m)
        assert info.value.t == pytest.approx(s, abs=1e-15)

    @pytest.mark.parametrize("fam", list(RATIONAL))
    @pytest.mark.parametrize("e", ELLIPSES)
    def test_no_modes_above_two(self, fam, e):
        s = 0.7
        p = FRAMES[fam](e, ParamGrid(256).nodes())(*boundary_pole(e, s))
        modes = np.abs(np.fft.rfft(p, axis=0)) / 256
        assert np.max(modes[3:]) < 1e-14 * np.max(np.abs(p))
        assert np.min(np.max(modes[1:3], axis=1)) > 1e-3

    @settings(max_examples=40, deadline=None)
    @given(fam=st.sampled_from(list(FRAMES)), s=st.floats(-TWO_PI, TWO_PI),
           tau=st.floats(-math.pi, math.pi))
    def test_complex_step_derivative_matches_central_difference(self, fam, s, tau):
        # t = s included: the reduced frames are smooth there
        m = boundary_pole(E21, s)
        h, dt = 1e-200, 1e-6
        t = s + tau
        frame = FRAMES[fam]
        for arg in (t, np.array([t, t + 1.0])):
            z = frame(E21, arg + 1j * h)(*m)
            assert z.dtype.kind == "c"
            got = z.imag / h
            want = (frame(E21, arg + dt)(*m) - frame(E21, arg - dt)(*m)) / (2 * dt)
            scale = 1.0 + np.max(np.abs(frame(E21, arg)(*m))) + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-6 * scale

    @pytest.mark.parametrize("fam", list(RATIONAL))
    @pytest.mark.parametrize("s", [0.7, math.pi, -math.pi / 2])
    def test_a_pole_on_the_ellipse_gives_its_own_parameter(self, fam, s):
        # the argument s is not read: the pole alone routes to the reduced
        # frame at its own parameter, whatever s it comes with
        m = boundary_pole(E21, s)
        t = np.array([s - 0.5, s, s + 0.5])
        want = reduced_reference(fam, E21, t, s)
        for given_s in (None, 0.0, s):
            got = point(fam, t, m) if given_s is None else point(fam, t, m, s=given_s)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fam", list(RATIONAL))
    def test_mixed_chunk_rows_equal_single_poles(self, fam):
        # only the pole on the ellipse, P(0), takes the reduced frame
        poles = np.array([[0.3, 0.2], [2.0, 0.0], [-0.5, -0.6]])
        t = ParamGrid(64).nodes()
        got = FRAMES[fam](E21, t)(poles[:, :1], poles[:, 1:])
        assert got.shape == (3, 64, 2)
        for j, m in enumerate(poles):
            assert np.array_equal(got[j], point(fam, t, tuple(m)))
        np.testing.assert_allclose(got[1], reduced_reference(fam, E21, t, 0.0),
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# evolutoids


def evolutoid_reference(e, theta, t):
    """The evolutoid point term by term, its scalar coefficients unfolded:
    the envelope of the lines through P(t) at angle theta to the tangent."""
    a, b, c2 = e.a, e.b, e.c2
    cth, sth = math.cos(theta), math.sin(theta)
    ct, st = np.cos(t), np.sin(t)
    x = (a * cth * cth * ct + c2 * sth * sth * ct ** 3 / a
         - st * sth * cth * (b * b * ct * ct + a * a * st * st) / b)
    y = (a * sth * cth * ct
         - c2 * sth * ct * ct * (b * ct * cth - a * sth * st) / (a * b)
         + st * (b * b * cth * cth - c2 * sth * sth) / b)
    return np.stack([x, y], axis=-1)


class TestEvolutoid:
    @pytest.mark.parametrize("ratio", [1.25, 2.0, 1 + math.sqrt(2), 5.0])
    def test_agrees_with_the_reference_formula(self, ratio):
        # the two forms round differently; both stay within a few units in
        # the last place of the curve's extent (24 at a/b = 5)
        e = Ellipse(ratio, 1.0)
        t = np.linspace(0.0, TWO_PI, 4001)
        for theta in np.linspace(0.0, math.pi / 2, 33):
            want = evolutoid_reference(e, theta, t)
            extent = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(evolutoid_point(e, theta, t), want,
                                       rtol=0, atol=1e-15 * extent)

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

    @pytest.mark.parametrize("theta", [0.3, 1.1, math.pi / 2])
    @pytest.mark.parametrize("step", [0.0, 1e-200])
    def test_a_parameter_alone_or_among_others_bitwise(self, theta, step):
        # a scalar, a 0-d array, a size-1 array and an element of a large
        # array give the same point, complex steps included
        t = np.random.default_rng(11).uniform(-TWO_PI, TWO_PI, 1000) + 1j * step
        t = t if step else t.real
        many = evolutoid_point(E21, theta, t)
        for j, x in enumerate(t):
            for alone in (x, x.item(), np.asarray(x), t[j:j + 1]):
                assert np.array_equal(evolutoid_point(E21, theta, alone).reshape(2), many[j])

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

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 1 + math.sqrt(2), 5.0])
    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_cusps_at_their_exact_parameters(self, ratio, n, offset):
        # the evolute's cusps lie at k pi/2; the deltoid of the pole P(s)
        # has x' ~ sin t + sin(2t + s) and y' ~ cos t - cos(2t + s), both
        # zero at t = -s/3 + 2 pi k/3, whatever the ellipse
        e = Ellipse(ratio, 1.0)
        curve = sample_curve(lambda t: evolutoid_point(e, math.pi / 2, t),
                             ParamGrid(n, offset=offset))
        assert_same_cusps(find_cusps(curve), np.arange(4) * math.pi / 2, 1e-12)
        for s in (0.0, 1.0, 3.4):
            m = tuple(float(v) for v in ellipse_point(e, s))
            curve = sample_curve(family_evaluator(e, "negative_pedal", m),
                                 ParamGrid(n, start=s, offset=offset))
            assert_same_cusps(find_cusps(curve), -s / 3 + np.arange(3) * TWO_PI / 3, 1e-12)

    @pytest.mark.parametrize("size", [1e160, 1e300, 1e306, 1e307])
    def test_a_huge_curve_keeps_its_cusps(self, size):
        # the squared velocity derivative of this evolute overflows, and
        # from 1e307 on the spectral bound M3 does: it reads inf, and every
        # candidate is refined
        curve = sample_curve(lambda t: size * evolutoid_point(E21, math.pi / 2, t),
                             ParamGrid(256, offset=0.5))
        assert_same_cusps(find_cusps(curve), np.arange(4) * math.pi / 2, 1e-12)

    @pytest.mark.parametrize("size", [1e-120, 1e-160, 1e-250])
    def test_a_tiny_curve_keeps_its_cusps(self, size):
        # the complex step's imaginary part, size times the step, must not
        # underflow: with a step of 1e-200 the velocity read 0 from here on
        curve = sample_curve(lambda t: size * evolutoid_point(E21, math.pi / 2, t),
                             ParamGrid(256, offset=0.5))
        assert_same_cusps(find_cusps(curve), np.arange(4) * math.pi / 2, 1e-12)

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

    @pytest.mark.parametrize("ratio", [1.25, 2.0, 1 + math.sqrt(2), 5.0])
    @pytest.mark.parametrize("n", [256, 2048])
    @settings(max_examples=8, deadline=None)
    @given(fam=st.sampled_from(["pedal", "contrapedal", "rotated", "interpolated",
                                "negative_pedal"]),
           u=st.floats(0.06, 1.4), w=st.floats(0.06, 1.4), s=st.floats(0.0, TWO_PI),
           theta=st.floats(0.2, 1.4), mu=st.floats(0.1, 0.9))
    def test_a_mirrored_pole_mirrors_the_cusps(self, ratio, n, fam, u, w, s, theta, mu):
        # the pole mirrored in the x axis, in the y axis or turned a half
        # turn gives the mirrored curve at -t, pi - t or t + pi, and on a
        # grid with offset 1/2 these are the same nodes, so its cusps are
        # at the mapped parameters.  A single mirror turns the rotated
        # pedal's theta into -theta.  Poles (x/a, y/b) = (u, w) at least
        # 0.06 off the axes; the negative pedal takes the boundary pole P(s)
        e = Ellipse(ratio, 1.0)
        if fam == "negative_pedal":
            assume(min(abs(math.cos(s)), abs(math.sin(s))) >= 0.06)
            u, w = math.cos(s), math.sin(s)
        grid = ParamGrid(n, offset=0.5)

        def cusps(sx, sy):
            mirrors = sx * sy < 0
            ev = family_evaluator(e, fam, (sx * e.a * u, sy * e.b * w),
                                  theta=-theta if mirrors else theta, mu=mu)
            return find_cusps(sample_curve(ev, grid))

        got = cusps(1, 1)
        for (sx, sy), mapped in (((1, -1), -got), ((-1, 1), math.pi - got),
                                 ((-1, -1), got + math.pi)):
            assert_same_cusps(cusps(sx, sy), mapped, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        # with tol <= 0 no speed is slow enough, and the evolute's 4 cusps
        # would go unfound
        curve = sample_curve(evolutoid_ev(math.pi / 2), ParamGrid(2048))
        with pytest.raises(DomainError) as got:
            find_cusps(curve, tol=tol)
        assert str(got.value) == f"tol must be finite and > 0, got {tol}"


def interpolant_derivative_max(points, r, pad=16):
    """max |X^(r)| of the samples' trigonometric interpolant X (the Nyquist
    mode split evenly between the frequencies +-n/2), on a pad times finer
    grid, by spectral derivatives of the zero-padded spectrum."""
    n = len(points)
    f = np.fft.rfft(points, axis=0)
    f[-1] /= 2
    k = np.arange(len(f))[:, None]
    d = np.fft.irfft((1j * k) ** r * f, n=pad * n, axis=0) * pad
    return float(np.max(np.hypot(d[:, 0], d[:, 1])))


SPECTRAL_CASES = {
    "evolute": lambda t: evolutoid_point(E21, math.pi / 2, t),
    "deltoid": family_evaluator(E21, "negative_pedal", tuple(float(v) for v in ellipse_point(E21, 1.0))),
    "contrapedal": family_evaluator(E21, "contrapedal", M),
}


class TestSpectralBounds:
    @pytest.mark.parametrize("case", sorted(SPECTRAL_CASES))
    @pytest.mark.parametrize("n", [64, 256, 2048])
    def test_bounds_the_derivatives_of_the_interpolant(self, case, n):
        pts = sample_curve(SPECTRAL_CASES[case], ParamGrid(n, offset=0.5)).points
        for r, bound in enumerate(_spectral_bounds(pts), 1):
            assert bound >= interpolant_derivative_max(pts, r)

    def test_a_bound_past_the_float_range_reads_inf(self):
        # the samples are divided by their largest magnitude before the
        # rfft, so the bounds scale with the curve, to the roundoff of the
        # high modes that k^3 weights, until they overflow
        pts = sample_curve(SPECTRAL_CASES["contrapedal"], ParamGrid(512, offset=0.5)).points
        base = _spectral_bounds(pts)
        for size in (1e-300, 1e300, 1e306, 1e307, 1e308):
            got = _spectral_bounds(size * pts)
            assert got == pytest.approx([size * b for b in base], rel=1e-9)
        assert math.isinf(_spectral_bounds(1e307 * pts)[2])
        assert _spectral_bounds(np.zeros((64, 2))) == (0.0, 0.0, 0.0)


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
    return sample_curve(family_evaluator(E21, "contrapedal", m), ParamGrid(n, offset=0.5))


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
        curve = sample_curve(family_evaluator(E21, "contrapedal", m), ParamGrid(1024, offset=0.5))
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
            curve = sample_curve(family_evaluator(E21, "contrapedal", m),
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

    @pytest.mark.parametrize("m, count", [((0.7, -0.4), 8), ((1.5, 0.6), 3)])
    def test_matches_brute_force_bitwise_at_workload_size(self, m, count):
        # the sampled cases above stop at n = 400; the conjecture check runs
        # at n = 1024 and more, where chunks end inside a position's run
        curve = sample_curve(family_evaluator(E21, "contrapedal", m), ParamGrid(1024, offset=0.5))
        for block in (1, 64, 512):
            got = self_intersections(curve, refine=False, block=block)
            want = brute_force_crossings(curve, block)
            assert len(got) == len(want) == count
            for c, (point, t1, t2) in zip(got, want):
                assert np.array_equal(c.point, point) and c.t1 == t1 and c.t2 == t2

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("size", [1e-250, 1e-200, 1e-160, 1e154, 1e155, 1e200, 1e300, 1e306,
                                      2.0 ** -830, 2.0 ** 1017])
    def test_a_scaled_curve_keeps_its_crossings(self, size, refine):
        # Newton steps and chord tests both work on values scaled by a power
        # of two, so a curve scaled by size keeps its 8 crossings, at size
        # times the points of the curve as it is, with no RuntimeWarning
        # (an error in this suite); parameters match mod 2 pi, in either
        # order.  Near 1e-300 the complex step's imaginary part goes
        # subnormal (_CS_STEP).  A power of two scales every sample, bound
        # and product exactly, so its crossings are bitwise the same
        ev = family_evaluator(E21, "contrapedal", M)
        want, got = (self_intersections(sample_curve(lambda t, s=s: s * ev(t),
                                                     ParamGrid(512, offset=0.5)), refine=refine)
                     for s in (1.0, size))
        assert len(got) == len(want) == 8

        def same_params(c, d):
            dt = np.subtract.outer([c.t1, c.t2], [d.t1, d.t2]) % TWO_PI
            close = np.minimum(dt, TWO_PI - dt) <= 1e-12
            return (close[0, 0] and close[1, 1]) or (close[0, 1] and close[1, 0])

        extent = max(float(np.max(np.abs(d.point))) for d in want)
        for c in got:
            match = [d for d in want if same_params(c, d)]
            assert len(match) == 1
            assert np.max(np.abs(c.point / size - match[0].point)) <= 1e-12 * extent
        if math.frexp(size)[0] == 0.5:
            assert [(c.t1, c.t2) for c in got] == [(d.t1, d.t2) for d in want]
            assert all(np.array_equal(c.point, size * d.point) for c, d in zip(got, want))

    def test_a_curve_whose_bounds_overflow_is_refused(self):
        # at 1e307 the tube h^2 M2 / 8 and the residual scale overflow: an
        # infinite tube would make every pair a candidate box
        ev = family_evaluator(E21, "contrapedal", M)
        curve = sample_curve(lambda t: 1e307 * ev(t), ParamGrid(512, offset=0.5))
        stub = curve.evaluator = Counting(curve.evaluator)
        with pytest.raises(DomainError) as got:
            self_intersections(curve)
        assert str(got.value) == ("self-intersection scan: overflow in the tube, "
                                  "the residual scale; scale the curve down")
        assert stub.calls == []

    def test_memory_stays_bounded_when_all_extents_overlap(self):
        curve = zigzag(1024, seed=0)  # every x-extent overlaps: ~520k candidate pairs
        tracemalloc.start()
        try:
            self_intersections(curve, block=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# batched refinement against the one-by-one references
#
# The references below refine each candidate alone, one scalar evaluator
# call per probe.  self_intersections must make the probes of the crossing
# reference, return the same bits and raise for the same parameter.  The
# cusp reference is an independent refinement: a golden section on
# complex-step speeds (central differences where the complex step fails)
# for every grid candidate.  find_cusps, by Gauss-Newton steps on the
# velocity, must find the same cusps, to 1e-9, or to 1e-7 at the
# cusp-birth angle, where the velocity vanishes to second order and the
# two refinements stop at different points of its flat zero.

# the program's complex step (pedal._CS_STEP), so the velocities compare bitwise
_CS_STEP = 2.0 ** -64


def reference_velocity_of(evaluator: Callable, t: float) -> np.ndarray:
    """Derivative of a point evaluator: complex step when the evaluator
    supports it, otherwise central differences."""
    try:
        p = np.asarray(evaluator(t + 1j * _CS_STEP))
        if not np.iscomplexobj(p):
            raise TypeError("evaluator discarded the imaginary part")
        return np.asarray(p.imag, dtype=float).reshape(2) / _CS_STEP
    except Exception:
        dt = 1e-7
        lo = np.asarray(evaluator(t - dt), dtype=float).reshape(2)
        hi = np.asarray(evaluator(t + dt), dtype=float).reshape(2)
        return (hi - lo) / (2 * dt)


def reference_speed_of(evaluator: Callable, t: float) -> float:
    v = reference_velocity_of(evaluator, t)
    return float(math.hypot(v[0], v[1]))


def reference_golden_min(f: Callable, lo: float, hi: float, xtol: float = 1e-10) -> float:
    """Golden-section minimizer; assumes a single interior minimum."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def reference_find_cusps(curve: SampledCurve, tol: float = 1e-5) -> np.ndarray:
    """find_cusps with every candidate refined alone."""
    n = len(curve)
    t = curve.params
    pts = curve.points
    step = t[1] - t[0]
    diff = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    speed = np.hypot(diff[:, 0], diff[:, 1]) / (2 * step)
    ref = float(np.median(speed))

    prev = np.roll(speed, 1)
    nxt = np.roll(speed, -1)
    candidates = np.nonzero((speed < prev) & (speed <= nxt))[0]

    ev = curve.evaluator
    found = []
    for k in candidates:
        lo, hi = t[k] - step, t[k] + step
        if ev is not None:
            tr = reference_golden_min(lambda x: reference_speed_of(ev, x), lo, hi)
            s_min = reference_speed_of(ev, tr)
        else:
            tr = float(t[k])
            s_min = float(speed[k])
        if s_min >= tol * ref:
            continue
        if s_min >= 1e-13 * ref:
            if ev is not None:
                va = reference_velocity_of(ev, tr - 1e-4)
                vb = reference_velocity_of(ev, tr + 1e-4)
            else:
                va = (pts[k] - pts[k - 1]) / step
                vb = (pts[(k + 1) % n] - pts[k]) / step
            if float(va @ vb) >= 0.0:
                continue
        found.append(tr % TWO_PI)

    if not found:
        return np.empty(0)
    found.sort()
    merged = [found[0]]
    for x in found[1:]:
        if x - merged[-1] > 1e-7:
            merged.append(x)
    if len(merged) > 1 and (merged[0] + TWO_PI) - merged[-1] <= 1e-7:
        merged.pop()
    return np.asarray(merged)


def reference_polish_crossing(ev: Callable, c: Crossing, width: float) -> Crossing:
    """Shrink the two parameter windows around a crossing by re-intersection."""
    t1, t2 = c.t1, c.t2
    best = c
    for _ in range(3):
        g1 = np.linspace(t1 - width, t1 + width, 9)
        g2 = np.linspace(t2 - width, t2 + width, 9)
        p1 = np.asarray(ev(g1), dtype=float)
        p2 = np.asarray(ev(g2), dtype=float)
        a1, d1 = p1[:-1], np.diff(p1, axis=0)
        a2, d2 = p2[:-1], np.diff(p2, axis=0)
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        ok, s, u = _segment_hits(a1[ii], d1[ii], a2[jj], d2[jj])
        if not np.any(ok):
            break
        i, j = next(zip(*np.nonzero(ok)))
        si, ui = s[i, j], u[i, j]
        t1 = float(g1[i] + si * (g1[i + 1] - g1[i]))
        t2 = float(g2[j] + ui * (g2[j + 1] - g2[j]))
        best = Crossing(point=a1[i] + si * d1[i], t1=t1, t2=t2)
        width /= 6.0
    return best


def reference_crossings(curve: SampledCurve):
    step = float(curve.params[1] - curve.params[0])
    return [reference_polish_crossing(curve.evaluator, c, step)
            for c in self_intersections(curve, refine=False)]


THETA0 = math.atan2(2 * E21.a * E21.b, 3 * E21.c2)  # evolutoid cusp birth


def evolutoid_ev(theta):
    return lambda t: evolutoid_point(E21, theta, t)


def negative_pedal_curve(s):
    """The negative pedal of the pole P(s) from its rational frame, whose
    pencil is singular at t = s, sampled half a step off it: an evaluator
    that raises at one parameter.  No public path builds it; the fallback
    tests below wrap it."""
    m = tuple(float(v) for v in ellipse_point(E21, s))
    return sample_curve(lambda t: negative_pedal_rational_frame(E21, t)(*m),
                        ParamGrid(2048, start=s, offset=0.5))


def deltoid_curve(s):
    """The negative pedal of the pole P(s) as the registry serves it, from
    its reduced frame, finite at t = s, sampled half a step off s."""
    m = tuple(float(v) for v in ellipse_point(E21, s))
    return sample_curve(family_evaluator(E21, "negative_pedal", m),
                        ParamGrid(2048, start=s, offset=0.5))


class StubError(GeometryError):
    """The error a Counting stub raises, naming the parameter it failed at."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class Counting:
    """An evaluator that counts its calls and records their parameters."""

    def __init__(self, ev, raise_at=(), complex_only=False, error=StubError):
        self.ev, self.raise_at, self.complex_only, self.error = ev, raise_at, complex_only, error
        self.calls = []
        self.raised = []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        if not self.complex_only or np.iscomplexobj(t):
            for x in self.raise_at:
                if np.any(np.real(t) == x):
                    self.raised.append(np.size(t))
                    raise self.error(f"stub fails at t={x!r}", t=x)
        return self.ev(t)


# case: (curve, number of cusps)
CUSP_CASES = {
    "evolutoid_0.9_theta0": (lambda: sample_curve(evolutoid_ev(0.9 * THETA0), ParamGrid(2048)), 0),
    "evolutoid_theta0": (lambda: sample_curve(evolutoid_ev(THETA0), ParamGrid(2048)), 2),
    "evolutoid_1.2_theta0": (lambda: sample_curve(evolutoid_ev(1.2 * THETA0), ParamGrid(2048)), 4),
    "evolute": (lambda: sample_curve(evolutoid_ev(math.pi / 2), ParamGrid(2048)), 4),
    # the imaginary part is dropped, so every velocity is a central difference
    "evolute_real_only": (lambda: sample_curve(
        lambda t: evolutoid_point(E21, math.pi / 2, np.real(t)), ParamGrid(2048)), 4),
    "negative_pedal_s0": (lambda: deltoid_curve(0.0), 3),
    "negative_pedal_s1.0": (lambda: deltoid_curve(1.0), 3),
    "negative_pedal_s3.4": (lambda: deltoid_curve(3.4), 3),
}


def assert_same_cusps(got, want, atol):
    """got and want hold the same number of cusps, each of got within atol
    of one of want, mod 2*pi."""
    assert len(got) == len(want)
    d = np.abs(np.subtract.outer(got, want)) % TWO_PI
    assert np.all(np.min(np.minimum(d, TWO_PI - d), axis=1, initial=np.inf) <= atol)


class TestLockstepCusps:
    @pytest.mark.parametrize("case", sorted(CUSP_CASES))
    def test_agrees_with_the_one_by_one_reference(self, case):
        make, count = CUSP_CASES[case]
        curve = make()
        got = find_cusps(curve)
        assert_same_cusps(got, reference_find_cusps(curve),
                          1e-7 if case == "evolutoid_theta0" else 1e-9)
        assert len(got) == count

    @pytest.mark.parametrize("case, budget", [("evolute", 5), ("evolutoid_1.2_theta0", 5),
                                              ("negative_pedal_s1.0", 5),
                                              ("evolutoid_theta0", 14)])
    def test_refines_in_a_few_calls(self, case, budget):
        # Gauss-Newton converges quadratically at a simple cusp; the golden
        # section took 14 calls on each of these curves.  At the cusp-birth
        # angle the capped steps stop it.
        make, count = CUSP_CASES[case]
        curve = make()
        ev = curve.evaluator = Counting(curve.evaluator)
        assert len(find_cusps(curve)) == count
        assert len(ev.calls) <= budget

    @pytest.mark.parametrize("ratio", [2.0, 1 + math.sqrt(2), 5.0])
    @pytest.mark.parametrize("n", [256, 2048])
    def test_a_bound_rules_out_every_candidate_below_the_cusp_birth_angle(self, ratio, n):
        # the bound from the spectrum, (h/2) M2 + (h^2/6) M3, drops every
        # candidate of these evolutoids, at n = 256 as at n = 2048
        e = Ellipse(ratio, 1.0)
        theta0 = math.atan2(2 * e.a * e.b, 3 * e.c2)
        curve = sample_curve(lambda t: evolutoid_point(e, 0.9 * theta0, t), ParamGrid(n))
        alone = curve.evaluator = Counting(curve.evaluator)
        assert len(reference_find_cusps(curve)) == 0
        # the reference refines the grid's candidates and rejects them all
        assert alone.calls
        ev = curve.evaluator = Counting(alone.ev)
        assert len(find_cusps(curve)) == 0
        assert ev.calls == []

    @pytest.mark.parametrize("ratio", [1.5, 1 + math.sqrt(2), 5.0])
    @pytest.mark.parametrize("n", [64, 256])
    def test_agrees_with_the_reference_that_keeps_every_candidate(self, ratio, n):
        # the reference refines every candidate, so a bound that dropped a
        # true cusp would show here
        e = Ellipse(ratio, 1.0)
        theta0 = math.atan2(2 * e.a * e.b, 3 * e.c2)
        curves = [sample_curve(lambda t, th=th: evolutoid_point(e, th, t), ParamGrid(n))
                  for th in [f * theta0 for f in (0.2, 0.9, 1.0, 1.2)] + [math.pi / 2]]
        for s in (0.0, 1.0, 3.4):
            m = tuple(float(v) for v in ellipse_point(e, s))
            curves.append(sample_curve(family_evaluator(e, "negative_pedal", m),
                                       ParamGrid(n, start=s, offset=0.5)))
        got = [find_cusps(curve) for curve in curves]
        for i, (curve, cusps) in enumerate(zip(curves, got)):
            # curves[2] is at the cusp-birth angle
            assert_same_cusps(cusps, reference_find_cusps(curve), 1e-7 if i == 2 else 1e-9)
        # the evolute and the deltoids keep their cusps
        assert [len(c) for c in got[4:]] == [4, 3, 3, 3]


class TestLockstepErrors:
    """A failed complex step falls back to central differences for its
    probe alone; a GeometryError of a batched call propagates."""

    def test_complex_step_failure_falls_back_for_that_probe_alone(self):
        curve = negative_pedal_curve(3.4)
        clean = Counting(curve.evaluator)
        curve.evaluator = clean
        find_cusps(curve)
        # the second Gauss-Newton call holds the probes t and t + h of each
        # of the 3 candidates; fail the complex step at the second one's t
        middle = clean.calls[1]
        bad = float(np.real(middle[2]))
        stub = Counting(clean.ev, raise_at=[bad], complex_only=True, error=TypeError)
        curve.evaluator = stub
        got = find_cusps(curve)
        # the batched call raised once, then each probe was tried alone
        # and only the bad one failed
        assert stub.raised == [np.size(middle), 1]
        # its central differences: one call on bad -+ dt
        assert any(np.size(t) == 2 and np.real(t[0]) < bad < np.real(t[1]) for t in stub.calls)
        curve.evaluator = clean.ev
        assert_same_cusps(got, reference_find_cusps(curve), 1e-9)
        assert len(got) == 3

    def test_batched_velocity_falls_back_to_central_differences_for_one_probe(self):
        ev = negative_pedal_curve(1.0).evaluator
        x = [0.5, 2.5, 4.5]
        stub = Counting(ev, raise_at=[x[1]], complex_only=True, error=TypeError)
        got = pedal_module._velocity_of(stub, np.array(x))
        assert stub.raised[0] == 3
        want = [reference_velocity_of(stub, t) for t in x]
        assert np.array_equal(got, want)
        # only the failing probe took central differences
        assert not np.array_equal(want[1], reference_velocity_of(ev, x[1]))
        assert np.array_equal(want[0], reference_velocity_of(ev, x[0]))

    def test_a_batched_error_propagates_from_both_detectors(self):
        # the evaluator drops the imaginary part, so each velocity takes
        # central differences in one call of its own, after the complex step
        curve = CUSP_CASES["evolute_real_only"][0]()
        clean = Counting(curve.evaluator)
        curve.evaluator = clean
        assert len(find_cusps(curve)) == 4
        # calls[1] holds the central-difference probes of the first
        # Gauss-Newton call, t -+ dt and t + h -+ dt for all 4 candidates:
        # one raising probe fails the whole call once.  t - dt of the second
        # candidate, as t + dt is also its probe t + h
        bad = float(clean.calls[1][4])
        stub = curve.evaluator = Counting(clean.ev, raise_at=[bad])
        with pytest.raises(StubError) as got:
            find_cusps(curve)
        assert got.value.t == bad
        assert stub.raised == [4 * 2 * 2] and len(stub.calls) == 2

        ev = family_evaluator(E21, "contrapedal", (0.7, -0.4))
        curve = sample_curve(ev, ParamGrid(2048, offset=0.5))
        clean = curve.evaluator = Counting(ev)
        assert len(self_intersections(curve)) == 8
        # three Newton steps, each one complex-step call on (t1, t2) of the
        # 18 candidate boxes, then of the 16 still moving, and the closing
        # call on both parameters of the 12 roots inside their boxes, 8 of
        # them at roundoff
        assert [np.size(t) for t in clean.calls] == [36, 32, 32, 24]
        # fail the second step at t2 of the fourth box: its batched call
        # raises, each parameter is tried alone, and the bad one's central
        # differences, on t - dt, t and t + dt, raise again
        bad = float(np.real(clean.calls[1][2 * 3 + 1]))
        stub = curve.evaluator = Counting(ev, raise_at=[bad])
        with pytest.raises(StubError) as got:
            self_intersections(curve)
        assert got.value.t == bad
        assert stub.raised == [32, 1, 3] and len(stub.calls) == 1 + 1 + 7 + 1 + 1


CROSSING_CASES = {
    "contrapedal_inside_astroid": lambda: sample_curve(
        family_evaluator(E21, "contrapedal", (0.7, -0.4)), ParamGrid(2048, offset=0.5)),
    "contrapedal_outside_astroid": lambda: sample_curve(
        family_evaluator(E21, "contrapedal", (1.5, 0.6)), ParamGrid(2048, offset=0.5)),
    "figure_eight": lambda: sample_curve(fig8, ParamGrid(512, offset=0.5)),
}


def crossing_scale(curve: SampledCurve, c: Crossing, size: float) -> float:
    """The roundoff scale of P(t1) - P(t2) at a crossing: the curve's
    extent plus size, that of the terms its points are summed from (an
    ellipse's semi-major axis), plus |t| |P'(t)| at each parameter, which
    rounding t to a double moves P by."""
    ev = curve.evaluator
    return (float(np.max(np.abs(curve.points))) + size
            + sum(abs(t) * float(np.hypot(*reference_velocity_of(ev, t))) for t in (c.t1, c.t2)))


def crossing_residual(ev: Callable, c: Crossing) -> float:
    p = np.asarray(ev(np.array([c.t1, c.t2])), dtype=float)
    return float(np.hypot(*(p[0] - p[1])))


class TestLockstepCrossings:
    @pytest.mark.parametrize("case, count", [("contrapedal_inside_astroid", 8),
                                             ("contrapedal_outside_astroid", 3),
                                             ("figure_eight", 1)])
    def test_agrees_with_the_one_by_one_reference(self, case, count):
        curve = CROSSING_CASES[case]()
        got, want = self_intersections(curve), reference_crossings(curve)
        assert len(got) == len(want) == count
        for c, w in zip(got, want):
            assert abs(c.t1 - w.t1) <= 1e-12 and abs(c.t2 - w.t2) <= 1e-12
            assert np.max(np.abs(c.point - w.point)) <= 1e-12

    def test_polish_makes_one_call_per_round_for_all_crossings(self):
        curve = CROSSING_CASES["contrapedal_inside_astroid"]()
        ev = curve.evaluator = Counting(curve.evaluator)
        assert len(self_intersections(curve)) == 8
        # one-by-one: 18 candidate boxes x 3 Newton steps = 54 calls, and
        # one call per crossing makes 8 at least
        assert len(ev.calls) <= 5

    @pytest.mark.parametrize("ratio", [1.25, 2.0, 1 + math.sqrt(2), 5.0])
    @settings(max_examples=12, deadline=None)
    @given(fu=st.floats(0.0, 1.0), fw=st.floats(0.0, 1.0),
           signs=st.sampled_from([(1, 1), (-1, 1), (-1, -1), (1, -1)]))
    # a / b = 5, (x/a, y/b) = (-+0.4245, -0.06): a sweep hit there lies about
    # a step from two crossings that meet at a small angle
    @example(fu=0.40625, fw=0.0, signs=(-1, -1))
    @example(fu=0.40625, fw=0.0, signs=(1, -1))
    # a crossing at t = 0: the sweep's hit reads (0.0019, pi), the box pair
    # that holds it (pi, 2 pi)
    @example(fu=1.0, fw=0.0, signs=(1, -1))
    def test_polish_keeps_count_and_window_and_reaches_roundoff(self, ratio, fu, fw, signs):
        # interior poles (x/a, y/b) = (u, w), u^2 + w^2 <= 0.92, drawn so,
        # kept off the astroid (the evolute) by 2e-3 relative: where a pair
        # of crossings is born, the polyline may cross where the curve does
        # not, up to 1e-3 off it at a / b = 5.  They are at least 0.06 off
        # the symmetry axes, beyond the CLI's 0.05: see the next test
        u = 0.06 + fu * (math.sqrt(0.92 - 0.06 ** 2) - 0.06)
        w = 0.06 + fw * (math.sqrt(max(0.92 - u * u, 0.06 ** 2)) - 0.06)
        u, w = signs[0] * u, signs[1] * w
        e = Ellipse(ratio, 1.0)
        astroid = (abs(e.a * e.a * u) ** (2 / 3) + abs(e.b * e.b * w) ** (2 / 3)) / e.c2 ** (2 / 3)
        assume(abs(astroid - 1) > 2e-3)
        ev = family_evaluator(e, "contrapedal", (e.a * u, e.b * w))
        curve = sample_curve(ev, ParamGrid(2048, offset=0.5))
        step = float(curve.params[1] - curve.params[0])
        raw, hits = self_intersections(curve, refine=False), self_intersections(curve)
        assert len(hits) == len(raw)

        def near(s, t):
            d = abs(s - t) % TWO_PI
            return min(d, TWO_PI - d) <= step

        for c in hits:
            # each crossing comes from its own box, not from a raw hit, so
            # it is paired with none: some raw hit lies within a step, mod
            # 2 pi and in either order
            assert any(near(c.t1, r.t1) and near(c.t2, r.t2) or near(c.t1, r.t2) and near(c.t2, r.t1)
                       for r in raw)
            assert crossing_residual(ev, c) <= 8 * np.finfo(float).eps * crossing_scale(curve, c, e.a)

    def test_a_pole_at_the_axis_margin_of_a_flat_ellipse_reaches_roundoff(self):
        # a / b = 5, (x/a, y/b) = (0.66, 0.05): the branches near t = pi and
        # t = 2 pi meet at (x0, 0) at a small angle, and the sweep reports
        # their chords crossing about a step away, where Newton steps from
        # the sweep's hit stalled.  Poles with |y/b| up to about 0.052,
        # |x/a| in [0.63, 0.67] did so
        e = Ellipse(5.0, 1.0)
        x0 = e.a * 0.66
        ev = family_evaluator(e, "contrapedal", (x0, e.b * 0.05))
        curve = sample_curve(ev, ParamGrid(2048, offset=0.5))
        hits = self_intersections(curve)
        assert len(hits) == 8
        for c in hits:
            assert crossing_residual(ev, c) <= 8 * np.finfo(float).eps * crossing_scale(curve, c, e.a)
        assert min(math.hypot(c.point[0] - x0, c.point[1]) for c in hits) <= 1e-12 * e.a

    @pytest.mark.parametrize("n", [50, 64, 300, 512])
    def test_a_crossing_on_a_node_is_reported_once(self, n):
        # the figure-eight crosses itself at t = 0 and t = pi, both nodes of
        # the grid: the boxes [t_i, t_i + h) of the two parameters hold it,
        # and the boxes that end there do not.  At n = 50 the node computed
        # for pi is pi + 4.4e-16, and both boxes next to it hold a copy
        curve = sample_curve(fig8, ParamGrid(n, offset=0))
        hits = self_intersections(curve)
        assert len(hits) == 1
        np.testing.assert_allclose(hits[0].point, [0.0, 0.0], atol=1e-15)
        assert (hits[0].t1, hits[0].t2) == pytest.approx((0.0, math.pi), abs=1e-15)

    @pytest.mark.parametrize("ratio", [1.25, 2.0, 1 + math.sqrt(2), 5.0])
    @settings(max_examples=10, deadline=None)
    @given(fu=st.floats(0.0, 1.0), fw=st.floats(0.0, 1.0), sx=st.sampled_from([1, -1]))
    @example(fu=0.40625, fw=0.0, sx=-1)
    def test_the_pole_mirrored_in_the_x_axis_mirrors_the_crossings(self, ratio, fu, fw, sx):
        # mirroring the pole in the x axis mirrors the curve and runs it the
        # other way: its crossings are the mirrored points, as many.  Poles
        # (x/a, y/b) = (u, w) inside 0.92, 0.05 off the axes, the CLI's
        # margin.  The example is a / b = 5, pole (-2.1226, -0.06): the
        # crossing at (x0, 0) used to be lost there, and not at its mirror
        u = sx * (0.05 + fu * (math.sqrt(0.92 - 0.05 ** 2) - 0.05))
        w = 0.05 + fw * (math.sqrt(0.92 - u * u) - 0.05)
        e = Ellipse(ratio, 1.0)
        below, above = (self_intersections(sample_curve(
            family_evaluator(e, "contrapedal", (e.a * u, e.b * y)), ParamGrid(2048, offset=0.5)))
            for y in (-w, w))
        assert len(below) == len(above)
        rest = [np.array([c.point[0], -c.point[1]]) for c in above]
        for c in below:
            d = [float(np.max(np.abs(c.point - p))) for p in rest]
            assert min(d) <= 1e-12 * e.a
            rest.pop(int(np.argmin(d)))

    @pytest.mark.parametrize("ratio", [2.0, 5.0])
    def test_crossings_near_the_astroid_reach_roundoff(self, ratio):
        # 12 poles 1e-6 to 6e-5 (relative) inside or outside the astroid
        # (a x)^(2/3) + (b y)^(2/3) = c^(4/3), where pairs of crossings are
        # born and the polyline's chords cross where the curve may not.  A
        # count there is not certain, but every crossing reported is one
        e = Ellipse(ratio, 1.0)
        on = [p for p in np.linspace(0.01, math.pi / 2 - 0.01, 400)
              if (e.c2 * math.cos(p) ** 3 / e.a ** 2) ** 2 + (e.c2 * math.sin(p) ** 3 / e.b ** 2) ** 2 <= 0.9
              and e.c2 * math.sin(p) ** 3 > 0.05 * e.b ** 2 and e.c2 * math.cos(p) ** 3 > 0.05 * e.a ** 2]
        for k, d in enumerate(np.geomspace(1e-6, 6e-5, 12)):
            p = on[(k * 131) % len(on)]
            r = (1 + (d if k % 2 else -d)) ** 1.5
            sx, sy = [(1, -1), (-1, 1), (1, 1)][k % 3]
            m = (sx * r * e.c2 * math.cos(p) ** 3 / e.a, sy * r * e.c2 * math.sin(p) ** 3 / e.b)
            ev = family_evaluator(e, "contrapedal", m)
            curve = sample_curve(ev, ParamGrid(2048, offset=0.5))
            hits = self_intersections(curve)
            assert hits
            for c in hits:
                assert crossing_residual(ev, c) <= 8 * np.finfo(float).eps * crossing_scale(curve, c, e.a)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case, count, size", [("figure_eight", 1, 1.0),
                                                   ("contrapedal_inside_astroid", 8, E21.a)])
    def test_an_evaluator_without_complex_step_takes_central_differences(self, case, count, size):
        # the imaginary part is dropped: each Newton step is a complex-step
        # call that comes back real, then one central-difference call on
        # t - dt, t and t + dt; the closing call is real
        curve = CROSSING_CASES[case]()
        plain = curve.evaluator
        stub = curve.evaluator = Counting(lambda t: plain(np.real(t)))
        hits = self_intersections(curve)
        assert len(hits) == count
        steps = len(stub.calls) // 2
        assert [np.iscomplexobj(t) for t in stub.calls] == [True, False] * steps + [False]
        assert all(np.size(cd) == 3 * np.size(cs) for cs, cd in zip(stub.calls[::2], stub.calls[1::2]))
        for c in hits:
            assert crossing_residual(plain, c) <= 8 * np.finfo(float).eps * crossing_scale(curve, c, size)
