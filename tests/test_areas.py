import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pedallab import (
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
    area_rule,
    closed_form_area,
    closed_form_areas,
    curvature_centroid_polygon,
    curvature_centroid_samples,
    curvature_centroid_support,
    doubling_rule,
    ellipse_point,
    ellipse_support,
    family_evaluator,
    pedal_polygon,
    polygon_signed_area,
    sample_curve,
    support_contrapedal_area,
    support_pedal_area,
)

from pedallab.areas import DOUBLING_RTOL, FAMILIES, Family, settled, settled_area
from pedallab.harness import SCANNABLE, LocusSpec, scan
from pedallab.pedal import evolutoid_point
from pedallab.tolerances import TURNING_TOL
from references import circumcenter, internal_angles, support_area

TWO_PI = 2.0 * math.pi
E21 = Ellipse(2.0, 1.0)


def spectral_derivative(v):
    """Derivative of a periodic sample sequence by FFT, the Nyquist mode zeroed."""
    n = len(v)
    k = 1j * np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(k * np.fft.fft(v)).real


def total_curvature(curve):
    """Total signed curvature of a sampled curve: the sum of
    (x' y'' - y' x'') / (x'^2 + y'^2) dt over its nodes."""
    x, y = curve.points[:, 0], curve.points[:, 1]
    dx, dy = spectral_derivative(x), spectral_derivative(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dx * spectral_derivative(dy) - dy * spectral_derivative(dx)) / (dx * dx + dy * dy)
    return float(np.sum(w)) * (TWO_PI / len(curve))


def shoelace_spectral_derivative(curve):
    """The quadrature before its Parseval form: 1/2 sum(x y' - y x') h with
    derivatives by FFT, the Nyquist mode zeroed."""
    x, y = curve.points[:, 0], curve.points[:, 1]
    dx, dy = spectral_derivative(x), spectral_derivative(y)
    return float(0.5 * (TWO_PI / len(curve)) * np.sum(x * dy - y * dx))


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
        with pytest.raises(DomainError, match=r"^unknown curve family: 'osculating'$"):
            Family.of("osculating")
        with pytest.raises(DomainError, match=r"^unknown curve family: \['pedal'\]$"):
            Family.of(["pedal"])
        assert Family.of("pedal") is FAMILIES["pedal"]


class TestClosedFormArrays:
    """closed_form_areas over an array of poles is closed_form_area of each
    pole alone, bitwise; off-ellipse poles do not hold for the families
    whose constant needs the pole on the ellipse."""

    @settings(max_examples=60, deadline=None)
    @given(fam=st.sampled_from(list(SCANNABLE)),
           a=st.floats(1.0, 3.0), ratio=st.floats(0.2, 1.0),
           on=st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=0, max_size=6),
           off=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                        min_size=0, max_size=6),
           theta=st.floats(-math.pi, math.pi), mu=st.floats(-1.0, 2.0))
    def test_arrays_are_each_pole_alone_bitwise(self, fam, a, ratio, on, off, theta, mu):
        e = Ellipse(a, a * ratio)
        assume(all(abs(e.implicit(m) - 1.0) > 1e-6 for m in off))
        poles = np.array([*ellipse_point(e, np.array(on)).reshape(-1, 2), *off]).reshape(-1, 2)
        assume(len(poles))
        areas, holds = closed_form_areas(fam, e, poles, theta=theta, mu=mu)
        assert areas.shape == holds.shape == (len(poles),)
        # the on-ellipse test reads the implicit value of each pole as if alone
        assert e.implicit(poles).tolist() == [e.implicit(m) for m in poles]
        for j, m in enumerate(poles):
            try:
                want = closed_form_area(fam, e, m, theta=theta, mu=mu)
            except DomainError:
                want = None
            assert (float(areas[j]) if holds[j] else None) == want
        # every pole on the ellipse holds; off it, only where no ellipse is needed
        assert holds[:len(on)].all()
        assert holds[len(on):].tolist() == [not FAMILIES[fam].on_ellipse] * len(off)

    # poles (u a, w a), each coordinate zero or at least 1e-6 a, so that no
    # product of the raw or the scaled form is subnormal
    @settings(max_examples=200, deadline=None)
    @given(fam=st.sampled_from(list(FAMILIES)), a=st.floats(2.0 ** -100, 2.0 ** 100),
           ratio=st.floats(1e-3, 1.0),
           u=st.floats(-3.0, 3.0).filter(lambda v: v == 0 or abs(v) >= 1e-6),
           w=st.floats(-3.0, 3.0).filter(lambda v: v == 0 or abs(v) >= 1e-6),
           theta=st.floats(0.0, math.pi / 2), mu=st.floats(-0.5, 1.5))
    # a power (**) rounded these differently at the scaled values
    @example(fam="negative_pedal", a=2220.0, ratio=0.056, u=-2.81, w=-1.95, theta=0.43, mu=0.29)
    @example(fam="pseudo_talbot", a=19600000.0, ratio=0.209, u=0.65, w=2.06, theta=1.06, mu=0.84)
    def test_the_scaled_form_is_the_raw_form_bitwise(self, fam, a, ratio, u, w, theta, mu):
        # the forms are products, so their power-of-two scaling is exact
        e = Ellipse(a, a * ratio)
        x, y = u * a, w * a
        try:
            raw = FAMILIES[fam].area(e.a, e.b, x * x + y * y, theta, mu)
        except ArithmeticError:
            raw = math.nan
        assume(math.isfinite(raw))
        areas, _ = closed_form_areas(fam, e, np.array([[x, y]]), theta=theta, mu=mu)
        assert float(areas[0]) == raw


# ---------------------------------------------------------------------------
# spectral quadrature


class TestSignedAreaQuadrature:
    def test_circle_area(self):
        r = 1.7
        curve = sample_curve(lambda t: np.stack([r * np.cos(t), r * np.sin(t)], axis=-1),
                             ParamGrid(256))
        assert area_rule(curve.params)(curve.points) == pytest.approx(math.pi * r * r, abs=1e-12)

    def test_band_limited_curves_are_exact_at_small_grids(self):
        curve = sample_curve(lambda t: ellipse_point(E21, t), ParamGrid(64))
        assert area_rule(curve.params)(curve.points) == pytest.approx(2 * math.pi, abs=1e-13)

    def test_orientation_sign(self):
        curve = sample_curve(lambda t: np.stack([np.cos(-t), np.sin(-t)], axis=-1),
                             ParamGrid(64))
        assert area_rule(curve.params)(curve.points) == pytest.approx(-math.pi, abs=1e-13)

    def test_pedal_matches_closed_form_to_machine_precision(self):
        m = (0.7, -0.4)
        curve = sample_curve(family_evaluator(E21, "pedal", m), ParamGrid(2048))
        assert area_rule(curve.params)(curve.points) == pytest.approx(
            closed_form_area("pedal", E21, m), abs=1e-11)

    def test_rejects_non_uniform_grid(self):
        t = np.linspace(0, TWO_PI, 65)[:-1].copy()
        t[10] += 1e-3
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            area_rule(t)(pts)

    def test_rejects_short_grids(self):
        t = np.linspace(0, TWO_PI, 5)[:-1]
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            area_rule(t)(pts)

    def test_rejects_overflowing_area(self):
        curve = sample_curve(lambda t: 1e300 * ellipse_point(E21, t), ParamGrid(64))
        with pytest.raises(QuadratureError):
            area_rule(curve.params)(curve.points)

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
        assert abs(area_rule(curve.params)(curve.points) - want) <= 1e-12 * max(1.0, abs(want))

    def test_stack_on_a_shared_row_equals_each_curve_alone_bitwise(self):
        poles = np.array([[0.7, -0.4], [-1.2, 0.3], [2.5, -1.5]])
        t = ParamGrid(256).nodes()
        # the chunk as harness.scan gives it: the registry frame on the
        # poles' (k, 1) coordinates
        pts = FAMILIES["pedal"].frame(E21, t, 0.0, 0.5)(poles[:, :1], poles[:, 1:])
        shared = area_rule(t)(pts)
        assert shared.shape == (3,)
        for j, m in enumerate(poles):
            alone = sample_curve(family_evaluator(E21, "pedal", m), ParamGrid(256))
            assert shared[j] == area_rule(alone.params)(alone.points)

    def test_overflowing_curve_is_rejected(self):
        t = ParamGrid(64).nodes()
        with pytest.raises(QuadratureError, match="not finite"):
            area_rule(t)(1e300 * ellipse_point(E21, t))

    def test_rejects_partial_window(self):
        t = np.linspace(0, math.pi, 64, endpoint=False)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        with pytest.raises(QuadratureError):
            area_rule(t)(pts)


def two_rfft_area(t, points):
    """The Parseval area in its two-rfft form, one call per coordinate, as
    the quadrature took it before area_rule: the reference of TestAreaRule."""
    n = t.shape[-1]
    fx = np.fft.rfft(points[..., 0], axis=-1)
    fy = np.fft.rfft(points[..., 1], axis=-1)
    k = np.arange(fx.shape[-1], dtype=float)
    if n % 2 == 0:
        k[-1] = 0.0
    cross = fx.real * fy.imag - fx.imag * fy.real
    return (-4.0 * math.pi / (n * n)) * np.sum(k * cross, axis=-1)


class TestAreaRule:
    """area_rule(t)(points) is the two-rfft area bitwise, for one curve and
    for stacks, whatever the memory layout of the points."""

    @pytest.mark.parametrize("n", [8, 9, 64, 65, 2048])
    @pytest.mark.parametrize("k", [None, 1, 2, 3, 7, 16])
    @pytest.mark.parametrize("fam", ["pedal", "interpolated", "hybrid", "negative_pedal"])
    def test_rule_is_the_two_rfft_area_bitwise(self, n, k, fam):
        rng = np.random.default_rng(1000 * n + (k or 0))
        # poles well inside the ellipse, where no family here is singular
        poles = rng.uniform(-0.5, 0.5, (k or 1, 2))
        if k is None:
            ev = family_evaluator(E21, fam, tuple(poles[0]), mu=1 / 3)
        else:
            # a chunk goes to the registry frame as harness.scan gives it
            ev = lambda t: FAMILIES[fam].frame(E21, t, 0.0, 1 / 3)(poles[:, :1], poles[:, 1:])
        t2 = ParamGrid(2 * n, offset=0.5).nodes()
        t = t2[::2]
        pts = ev(t)
        for layout in (pts, np.ascontiguousarray(pts), ev(t2)[..., ::2, :]):
            got = area_rule(t)(layout)
            want = two_rfft_area(t, np.ascontiguousarray(layout))
            assert np.shape(got) == (() if k is None else (k,))
            assert np.array_equal(got, want)
        for j, curve in enumerate([pts] if k is None else pts):
            assert area_rule(t)(curve) == np.reshape(got, -1)[j]

    def test_stack_on_one_shared_row(self):
        t = ParamGrid(8).nodes()
        assert np.array_equal(area_rule(t)(np.zeros((3, 8, 2))), np.zeros(3))
        # points off the row's length, and a row that is not one row
        for pts in (np.zeros((3, 9, 2)), np.zeros((3, 8, 3)), np.zeros(8)):
            with pytest.raises(DomainError):
                area_rule(t)(pts)
        with pytest.raises(DomainError):
            area_rule(np.broadcast_to(t, (3, 8)))
        # a SampledCurve holds one curve
        with pytest.raises(DomainError):
            SampledCurve(t, np.zeros((3, 8, 2)))

    @pytest.mark.parametrize("params, error", [
        (np.linspace(0, TWO_PI, 5)[:-1], QuadratureError),
        (np.linspace(0, math.pi, 64, endpoint=False), QuadratureError),
        (np.concatenate([np.linspace(0, 3, 32, endpoint=False),
                         np.linspace(3.2, TWO_PI, 32, endpoint=False)]), QuadratureError),
        (np.linspace(0, TWO_PI, 64, endpoint=False)[::-1], DomainError)])
    def test_row_is_checked_when_the_rule_is_built(self, params, error):
        with pytest.raises(error):
            area_rule(params)

    def test_rule_rejects_a_non_finite_area(self):
        t = ParamGrid(64).nodes()
        rule = area_rule(t)
        pts = np.stack([ellipse_point(E21, t), 1e300 * ellipse_point(E21, t)])
        with pytest.raises(QuadratureError, match="not finite"):
            rule(pts)


def doubling_pole(fam):
    """A pole for each family: the Steiner families' pole inside the
    ellipse, the boundary families' P(0.9) on it."""
    if FAMILIES[fam].on_ellipse:
        return tuple(float(v) for v in ellipse_point(E21, 0.9))
    return (0.7, -0.4)


class TestDoublingRule:
    """doubling_rule(t2)(points) gives the areas on the n even samples and
    on all 2n samples from one rfft per coordinate: the fine area bitwise
    area_rule's, the coarse one area_rule's on the even samples to a few
    ulps."""

    @pytest.mark.parametrize("n", [8, 9, 64, 2048])
    @pytest.mark.parametrize("fam", list(FAMILIES))
    def test_fold_matches_the_two_rules(self, n, fam):
        if FAMILIES[fam].frame is None:
            return  # the evolutoid has no frame
        t2 = ParamGrid(2 * n).nodes()
        pts = np.asarray(FAMILIES[fam].frame(E21, t2, 0.6, 1 / 3)(*doubling_pole(fam)))
        coarse, fine = doubling_rule(t2)(pts)
        want = area_rule(t2[::2])(pts[::2])
        assert abs(coarse - want) <= 8 * np.spacing(max(1.0, abs(want)))
        assert fine == area_rule(t2)(pts)

    @pytest.mark.parametrize("n", [9, 64])
    @pytest.mark.parametrize("fam", list(SCANNABLE))
    def test_stack_equals_each_curve_alone_bitwise(self, n, fam):
        t2 = ParamGrid(2 * n).nodes()
        frame = FAMILIES[fam].frame(E21, t2, 0.6, 1 / 3)
        if FAMILIES[fam].on_ellipse:
            poles = ellipse_point(E21, np.array([0.2, 0.9, 2.5, 4.0]))
        else:
            poles = np.array([[0.7, -0.4], [-1.2, 0.3], [2.5, -1.5], [0.0, 0.1]])
        rule = doubling_rule(t2)
        # the chunk as harness.scan gives it
        got = rule(frame(poles[:, :1], poles[:, 1:]))
        assert got.shape == (2, len(poles))
        for j, (x, y) in enumerate(poles.tolist()):
            assert np.array_equal(got[:, j], rule(frame(x, y)))

    @pytest.mark.parametrize("k, n", [(32, 256), (4, 2048)])
    @pytest.mark.parametrize("fam", list(SCANNABLE))
    def test_stack_at_the_scan_chunk_shapes_equals_each_curve_alone_bitwise(self, k, n, fam):
        # the chunk shapes of a scan at n = 256 and n = 2048; one rule takes
        # a full chunk, a shorter one and a single curve, in any order
        t2 = ParamGrid(2 * n).nodes()
        frame = FAMILIES[fam].frame(E21, t2, 0.6, 1 / 3)
        s = np.random.default_rng(k).uniform(0.0, 2 * math.pi, k)
        if FAMILIES[fam].on_ellipse:
            poles = ellipse_point(E21, s)
        else:
            poles = np.stack([1.3 * np.cos(s), 1.3 * np.sin(s)], axis=-1)
        rule = doubling_rule(t2)
        alone = [rule(frame(x, y)) for x, y in poles.tolist()]
        for rows in (k, 1, k, max(1, k // 4)):
            got = rule(frame(poles[:rows, :1], poles[:rows, 1:]))
            assert got.shape == (2, rows)
            for j in range(rows):
                assert got[:, j].tobytes() == alone[j].tobytes()

    @pytest.mark.parametrize("params, error", [
        (ParamGrid(17).nodes(), QuadratureError),  # odd
        (ParamGrid(14).nodes(), QuadratureError),  # shorter than 16
        (np.linspace(0, math.pi, 64, endpoint=False), QuadratureError),
        (ParamGrid(16).nodes()[::-1], DomainError)])
    def test_row_is_checked_when_the_rule_is_built(self, params, error):
        with pytest.raises(error):
            doubling_rule(params)

    def test_points_off_the_row_raise(self):
        rule = doubling_rule(ParamGrid(16).nodes())
        assert np.array_equal(rule(np.zeros((3, 16, 2))), np.zeros((2, 3)))
        for pts in (np.zeros((3, 8, 2)), np.zeros((16, 3)), np.zeros(16)):
            with pytest.raises(DomainError):
                rule(pts)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("node", [0, 1, 7, 30, 31])
    def test_a_non_finite_sample_raises(self, bad, node):
        t2 = ParamGrid(32).nodes()
        pts = np.stack([ellipse_point(E21, t2)] * 3)
        pts[1, node, node % 2] = bad
        with pytest.raises(QuadratureError, match="not finite"):
            doubling_rule(t2)(pts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_pencil_keeps_its_errors(self):
        # every pole's points overflow; each error names the pole's first
        # non-finite node of the 2n grid, node 1 for pole 0
        rep = scan(E21, "negative_pedal", LocusSpec("circle", r=1e200, count=3), n=64)
        assert rep.areas == [None] * 3
        assert rep.errors == [
            "curve evaluation failed at t=0.04908738521234052: non-finite point",
            "curve evaluation failed at t=0.0: non-finite point",
            "curve evaluation failed at t=0.0: non-finite point"]


# ---------------------------------------------------------------------------
# support-function integrals


def cos3_support():
    return SupportCurve(h=lambda t: 10.0 + np.cos(3 * t),
                        dh=lambda t: -3.0 * np.sin(3 * t))


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
    def test_pedal_minus_contrapedal_is_curve_area(self):
        s = cos3_support()
        base = support_area(s)
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.uniform(-3, 3, 2)
            gap = support_pedal_area(s, m) - support_contrapedal_area(s, m)
            assert gap == pytest.approx(base, rel=1e-11)

    @pytest.mark.parametrize("n, message", [
        (0, "grid count must be >= 8, got 0"),
        (-5, "grid count must be >= 8, got -5"),
        (7, "grid count must be >= 8, got 7"),
        (2.5, "grid count must be an int, got 2.5"),
        (True, "grid count must be >= 8, got True"),
    ])
    @pytest.mark.parametrize("integral", [
        lambda s, n: curvature_centroid_support(s, n=n),
        lambda s, n: support_pedal_area(s, (0.7, -0.4), n=n),
        lambda s, n: support_contrapedal_area(s, (0.7, -0.4), n=n),
    ], ids=["centroid", "pedal", "contrapedal"])
    def test_the_support_route_refuses_a_bad_grid_size(self, integral, n, message):
        # the support route samples ParamGrid(n, offset=0.5), whose checks
        # stand between such an n and a division by zero or an empty sum
        with pytest.raises(DomainError) as got:
            integral(ellipse_support(E21), n)
        assert str(got.value) == message

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
                         dh=lambda t: -np.sin(t))
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

    def test_turning_tol_separates_cusps_on_nodes_from_resolved_grids(self):
        # a resolved total is a multiple of pi: 2 pi for the ellipse and the
        # evolute, pi for the deltoid; a cusp on a node misses by 0.13 or
        # more (the evolutoid at its cusp-birth angle: 4.80, 6.41, 6.50)
        theta0 = math.atan2(2 * E21.a * E21.b, 3 * E21.c2)
        evolutoid = lambda theta: lambda t: evolutoid_point(E21, theta, t)
        deltoid = family_evaluator(E21, "negative_pedal", (2.0, 0.0))
        on_nodes = [sample_curve(f, ParamGrid(n)) for f, n in [
            (evolutoid(theta0), 64), (evolutoid(theta0), 512), (evolutoid(theta0), 2048),
            (evolutoid(math.pi / 2), 2048), (deltoid, 512)]]
        resolved = [sample_curve(f, ParamGrid(n, offset=0.5)) for f, n in [
            (lambda t: ellipse_point(E21, t), 64), (evolutoid(math.pi / 2), 2048),
            (deltoid, 512)]]
        misses = [abs(math.remainder(total_curvature(c), math.pi)) for c in on_nodes]
        assert min(misses) > 100 * TURNING_TOL
        assert [round(total_curvature(c) / math.pi) for c in resolved] == [2, 2, 1]
        assert max(abs(math.remainder(total_curvature(c), math.pi)) for c in resolved) < 1e-9
        for c in on_nodes:
            with pytest.raises(QuadratureError, match="not a multiple of pi"):
                curvature_centroid_samples(c)
        got = [curvature_centroid_samples(c) for c in resolved]
        np.testing.assert_allclose([[k.x, k.y] for k in got],
                                   [[0.0, 0.0], [0.0, 0.0], [-2 / 3, 0.0]], atol=1e-9)

    def test_half_period_window_is_refused(self):
        # every quadrature assumes its window is one period
        t = np.arange(64) * (math.pi / 64)
        curve = SampledCurve(t, ellipse_point(E21, t))
        for quadrature in (curvature_centroid_samples,
                           lambda c: area_rule(c.params)(c.points)):
            with pytest.raises(QuadratureError, match="one full period"):
                quadrature(curve)


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

    def test_repeated_vertex_rejected(self):
        poly = Polygon(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(CollinearVertices):
            curvature_centroid_polygon(poly)

    @settings(max_examples=60, deadline=None)
    @given(coords=st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    # an angle near pi: sin(2 arctan2(...)) put the centroid 5.6e-7 off
    @example(coords=[0.0, 0.0, -8.0, 8.75, 9.0, -10.0])
    # flat, with its circumcenter 1119 away: the weights cancel in their sum
    @example(coords=[6.549036309082432, -7.974369361907581, -8.983273618329516,
                     7.826704675802322, -3.100736409412363, 1.7685848627021645])
    def test_triangle_centroid_is_circumcenter(self, coords):
        v = np.asarray(coords).reshape(3, 2)
        tri = Polygon(v)
        assume(abs(polygon_signed_area(tri)) > 0.5)
        k = curvature_centroid_polygon(tri)
        c = circumcenter(*v)
        # the weighted mean loses digits as its weights cancel: its error is
        # eps * cond times the size of the vertices and the centroid
        w = np.sin(2 * internal_angles(v))
        cond = float(np.sum(np.abs(w))) / abs(float(np.sum(w)))
        scale = float(np.max(np.abs(v))) + math.hypot(c.x, c.y)
        assert math.hypot(k.x - c.x, k.y - c.y) <= 64 * np.finfo(float).eps * cond * scale

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
