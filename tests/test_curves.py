import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedallab import (
    DomainError,
    Ellipse,
    EvaluationError,
    ParamGrid,
    Point2,
    SampledCurve,
    SupportCurve,
    ellipse_point,
    ellipse_support,
    ellipse_velocity,
    sample_curve,
    support_point,
)
from pedallab.curves import pole_on_ellipse, xy_on_ellipse

TWO_PI = 2.0 * math.pi


class TestPoint2:
    def test_coerces_to_float(self):
        p = Point2(np.float64(1.5), 2)
        assert type(p.x) is float and type(p.y) is float

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            Point2(*bad)


class TestEllipse:
    def test_axis_order_enforced(self):
        with pytest.raises(DomainError):
            Ellipse(1.0, 2.0)
        with pytest.raises(DomainError):
            Ellipse(1.0, 0.0)
        with pytest.raises(DomainError):
            Ellipse(math.nan, 1.0)

    def test_scale_constants(self):
        e = Ellipse(2.0, 1.0)
        assert e.c2 == 3.0

    def test_circle_allowed(self):
        e = Ellipse(1.5, 1.5)
        assert e.c2 == 0.0

    def test_implicit_on_boundary(self):
        e = Ellipse(2.0, 1.0)
        assert e.implicit((2.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
        assert e.implicit((0.0, 0.0)) == 0.0

    def test_implicit_takes_a_point_or_rows_of_points(self):
        # a chunk of poles as a pair of (k, 1) arrays is no point: refused,
        # as are malformed and non-finite points
        e = Ellipse(2.0, 1.0)
        chunk = (np.array([[2.0], [0.0]]), np.array([[0.0], [1.0]]))
        for bad in (chunk, (1.0, 2.0, 3.0), (math.nan, 0.0)):
            with pytest.raises(DomainError):
                e.implicit(bad)
            with pytest.raises(DomainError):
                pole_on_ellipse(e, bad)

    def test_coordinates_give_each_point_its_value_alone_bitwise(self):
        # the one expression of the implicit value, on plain coordinates:
        # a chunk's (k, 1) columns, as the boundary frames route them, give
        # each pole bitwise its value alone, and so the same on-ellipse answer
        e = Ellipse(3.0, 1.7)
        poles = np.concatenate([ellipse_point(e, np.linspace(-4.0, 4.0, 33)),
                                np.random.default_rng(3).uniform(-4.0, 4.0, (33, 2))])
        got = e.implicit_xy(poles[:, :1], poles[:, 1:])
        assert got.shape == (66, 1)
        assert got[:, 0].tolist() == [e.implicit(m) for m in poles]
        on = xy_on_ellipse(e, poles[:, :1], poles[:, 1:])[:, 0]
        assert on.tolist() == [bool(pole_on_ellipse(e, m)) for m in poles]
        assert on[:33].all() and not on[33:].any()


class TestEllipseEvaluators:
    def test_cardinal_points(self):
        e = Ellipse(2.0, 1.0)
        np.testing.assert_allclose(ellipse_point(e, 0.0), [2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ellipse_point(e, math.pi / 2), [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(ellipse_velocity(e, 0.0), [0.0, 1.0], atol=1e-15)

    def test_vectorized_shapes(self):
        e = Ellipse(2.0, 1.0)
        t = np.linspace(0, TWO_PI, 17)
        assert ellipse_point(e, t).shape == (17, 2)
        assert ellipse_velocity(e, t).shape == (17, 2)

    def test_complex_step_matches_velocity(self):
        # complex-safe evaluation carries exact derivatives in the imaginary part
        e = Ellipse(2.0, 1.0)
        h = 1e-200
        t = 1.234
        v = ellipse_point(e, t + 1j * h).imag / h
        np.testing.assert_allclose(v, ellipse_velocity(e, t), rtol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.5, 5.0), ratio=st.floats(0.1, 1.0), t=st.floats(-10.0, 10.0))
    def test_point_satisfies_implicit_equation(self, a, ratio, t):
        e = Ellipse(a, a * ratio)
        p = ellipse_point(e, t)
        assert abs(e.implicit(p) - 1.0) < 1e-12


class TestParamGrid:
    def test_count_floor(self):
        with pytest.raises(DomainError):
            ParamGrid(count=7)

    def test_offset_range(self):
        with pytest.raises(DomainError):
            ParamGrid(count=16, offset=1.0)
        with pytest.raises(DomainError):
            ParamGrid(count=16, offset=-0.1)

    @pytest.mark.parametrize("count", [8.5, 64.0, "64", None])
    def test_count_must_be_an_integer(self, count):
        # a fractional count gave nodes that do not cover one period
        with pytest.raises(DomainError):
            ParamGrid(count=count)

    def test_numpy_integer_count(self):
        assert ParamGrid(count=np.int64(16)).nodes().shape == (16,)

    def test_grid_nests_in_its_double_bitwise(self):
        # a scan reads its n-point areas from the even samples of the 2n grid
        for n in [*range(8, 513), 2048, 2 ** 19 + 1]:
            assert np.array_equal(ParamGrid(n).nodes(), ParamGrid(2 * n).nodes()[::2]), n

    def test_nodes_uniform_and_shifted(self):
        g = ParamGrid(count=16, start=0.5, offset=0.25)
        t = g.nodes()
        assert t.shape == (16,)
        np.testing.assert_allclose(np.diff(t), g.step, rtol=1e-12)
        assert t[0] == pytest.approx(0.5 + 0.25 * TWO_PI / 16)


class TestSampledCurve:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            SampledCurve(params=np.arange(4.0), points=np.zeros((5, 2)))

    def test_params_must_increase(self):
        with pytest.raises(DomainError):
            SampledCurve(params=np.array([0.0, 2.0, 1.0]), points=np.zeros((3, 2)))


class TestSampleCurve:
    def test_attaches_evaluator(self):
        e = Ellipse(2.0, 1.0)
        ev = lambda t: ellipse_point(e, t)
        curve = sample_curve(ev, ParamGrid(32))
        assert curve.evaluator is ev
        assert len(curve) == 32

    def test_failure_names_offending_node(self):
        g = ParamGrid(16)
        bad_node = g.nodes()[5]

        def patchy(t):
            t = np.asarray(t, dtype=float)
            out = np.stack([np.cos(t), np.sin(t)], axis=-1)
            return np.where(np.isclose(t, bad_node)[..., None], np.nan, out)

        with pytest.raises(EvaluationError) as exc:
            sample_curve(patchy, g)
        assert exc.value.node == pytest.approx(bad_node)

    def test_a_vectorized_non_finite_node_is_named_after_one_call(self):
        g = ParamGrid(16)
        bad = float(g.nodes()[5])
        calls = []

        def overflowing(t):
            calls.append(np.shape(t))
            return np.where((t >= bad)[..., None], np.inf, ellipse_point(Ellipse(2.0, 1.0), t))

        with pytest.raises(EvaluationError) as exc:
            sample_curve(overflowing, g)
        assert calls == [(16,)]
        assert exc.value.node == bad
        assert str(exc.value) == f"curve evaluation failed at t={bad!r}: non-finite point"

    def test_the_node_by_node_replay_names_the_first_bad_node(self):
        # a non-finite node before the node that raises comes first
        def replayed(t):
            if np.ndim(t):
                raise ValueError("no arrays")
            if t == 0.0:
                return (math.nan, 0.0)
            if t > 1.0:
                raise ValueError("too far")
            return ellipse_point(Ellipse(2.0, 1.0), t)

        with pytest.raises(EvaluationError) as exc:
            sample_curve(replayed, ParamGrid(16))
        assert str(exc.value) == "curve evaluation failed at t=0.0: non-finite point"

    def test_failure_message_prints_the_node_as_a_plain_float(self):
        def pole_at_zero(t):
            if np.any(np.asarray(t) == 0.0):
                raise ValueError("singular at 0")
            return ellipse_point(Ellipse(2.0, 1.0), t)

        with pytest.raises(EvaluationError) as exc:
            sample_curve(pole_at_zero, ParamGrid(16))
        assert str(exc.value) == "curve evaluation failed at t=0.0: singular at 0"


class TestSupportCurve:
    def test_rejects_non_periodic(self):
        with pytest.raises(DomainError):
            SupportCurve(h=lambda t: np.asarray(t) * 0.1 + 1.0,
                         dh=lambda t: 0.1 + 0 * np.asarray(t),
                         d2h=lambda t: 0 * np.asarray(t))

    def test_circle_support(self):
        s = SupportCurve(h=lambda t: 2.0 + 0 * np.asarray(t),
                         dh=lambda t: 0 * np.asarray(t),
                         d2h=lambda t: 0 * np.asarray(t))
        assert s.is_convex()
        p = support_point(s, np.array([0.0, math.pi / 2]))
        np.testing.assert_allclose(p, [[2.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_ellipse_support_point_on_ellipse(self):
        e = Ellipse(2.0, 1.0)
        s = ellipse_support(e)
        t = np.linspace(0, TWO_PI, 64)
        pts = support_point(s, t)
        vals = (pts[:, 0] / e.a) ** 2 + (pts[:, 1] / e.b) ** 2
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_ellipse_support_derivative_consistency(self):
        # radius of curvature of the ellipse in support form: h + h'' = a^2 b^2 / h^3
        e = Ellipse(2.0, 1.0)
        s = ellipse_support(e)
        t = np.linspace(0.1, TWO_PI, 200)
        h = s.h(t)
        lhs = h + s.d2h(t)
        np.testing.assert_allclose(lhs, (e.a * e.b) ** 2 / h ** 3, rtol=1e-12)
        # and dh is the actual derivative of h
        dt = 1e-6
        fd = (s.h(t + dt) - s.h(t - dt)) / (2 * dt)
        np.testing.assert_allclose(s.dh(t), fd, atol=1e-8)

    def test_ellipse_support_convex(self):
        assert ellipse_support(Ellipse(3.0, 2.0)).is_convex()
