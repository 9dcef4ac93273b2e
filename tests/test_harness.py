import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pedallab import (
    DomainError,
    Ellipse,
    EvaluationError,
    GeometryError,
    QuadratureError,
    LocusSpec,
    ParamGrid,
    area_rule,
    closed_form_area,
    conjecture_check_contrapedal,
    family_evaluator,
    family_grid,
    identity_suite,
    sample_curve,
    scan,
)
from pedallab import areas, curves, ellipse_point, harness, pedal
from pedallab.areas import FAMILIES, Family, doubling_rule, settled_area
from pedallab.curves import pole_on_ellipse
from pedallab.harness import SCANNABLE

E21 = Ellipse(2.0, 1.0)


class TestLocusSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            LocusSpec(kind="spiral")
        with pytest.raises(DomainError):
            LocusSpec(kind="circle", r=0.0)
        with pytest.raises(DomainError):
            LocusSpec(kind="circle", count=0)

    @pytest.mark.parametrize("kind", ["circle", "boundary"])
    @pytest.mark.parametrize("bad", [dict(r=math.inf), dict(r=math.nan),
                                     dict(phase=math.nan), dict(phase=-math.inf)])
    def test_rejects_non_finite_radius_and_phase(self, kind, bad):
        with pytest.raises(DomainError):
            LocusSpec(kind=kind, **bad)

    @pytest.mark.parametrize("count", [True, 2.5, "4", None, np.int64(4)])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(DomainError):
            LocusSpec(kind="circle", count=count)

    def test_circle_poles(self):
        poles = LocusSpec(kind="circle", r=2.5, count=16, phase=0.1).poles(E21)
        assert poles.shape == (16, 2)
        np.testing.assert_allclose(np.hypot(poles[:, 0], poles[:, 1]), 2.5, rtol=1e-12)

    def test_boundary_poles(self):
        poles = LocusSpec(kind="boundary", count=8).poles(E21)
        np.testing.assert_allclose([E21.implicit(p) for p in poles], 1.0, atol=1e-12)

    def test_to_dict_drops_radius_for_boundary(self):
        assert "r" not in LocusSpec(kind="boundary").to_dict()
        assert LocusSpec(kind="circle", r=2.0).to_dict()["r"] == 2.0


class TestFamilyPlumbing:
    def test_pseudo_talbot_needs_boundary_parameter(self):
        with pytest.raises(DomainError):
            family_evaluator(E21, "pseudo_talbot", (0.3, 0.2))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            family_evaluator(E21, "osculating", (0.0, 0.0))

    def test_evolutoid_has_no_point_evaluator(self):
        with pytest.raises(DomainError):
            family_evaluator(E21, "evolutoid", (0.0, 0.0))

    @pytest.mark.parametrize("fam", SCANNABLE)
    def test_evaluator_is_the_registry_frame_on_the_pole_bitwise(self, fam):
        # an interior pole, off every tangent line: hybrid and negative pedal
        # are regular on the whole grid; pseudo-Talbot needs a pole on the
        # ellipse
        spec, t = Family.of(fam), ParamGrid(64, offset=0.5).nodes()
        m = tuple(ellipse_point(E21, 0.7).tolist()) if spec.pole == "ellipse" else (0.3, 0.2)
        want = spec.frame(E21, t, **spec.reads(0.6, 1 / 3))(*m)
        got = family_evaluator(E21, fam, m, theta=0.6, mu=1 / 3)(t)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # s, still accepted, is not read
        got = family_evaluator(E21, fam, m, theta=0.6, mu=1 / 3, s=2.0)(t)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [(0.3, 0.2), (2.0, 0.1), (0.0, 0.0)])
    def test_pseudo_talbot_refuses_a_pole_off_the_ellipse(self, m):
        # with or without a boundary parameter
        for kw in ({}, {"s": 0.7}):
            with pytest.raises(DomainError, match="on the ellipse"):
                family_evaluator(E21, "pseudo_talbot", m, **kw)

    @pytest.mark.parametrize("fam", SCANNABLE)
    @pytest.mark.parametrize("m", [(math.nan, 0.0), (0.3, -math.inf), (0.3, 0.2, 0.1),
                                   np.zeros((2, 2)), "ab", ((0.3, 0.2), 0.1)])
    def test_the_one_read_refuses_a_bad_pole(self, fam, m):
        # the pole is read when the evaluator is built, not when it is called
        with pytest.raises(DomainError):
            family_evaluator(E21, fam, m)

    def test_boundary_families_get_the_nesting_grid(self):
        # hybrid runs in t on ParamGrid(n), finite at t = s, whatever the pole
        for s in (0.0, 0.7):
            g = family_grid("hybrid", 512, s=s)
            assert (g.start, g.offset, g.count) == (0.0, 0.0, 512)
        assert family_grid("pedal", 512).offset == 0.0


class TestPoleReads:
    """A pole is a point at the API, read once by curves.as_xy when its
    evaluator is built; the frames work on its plain coordinates."""

    @staticmethod
    def count_reads(monkeypatch):
        """Patch as_xy in every module that reads a pole; the returned list
        gathers the pole of every read."""
        reads, read = [], curves.as_xy
        for module in (curves, areas, harness):
            monkeypatch.setattr(module, "as_xy", lambda m: reads.append(m) or read(m))
        return reads

    # both routes of hybrid and negative pedal: the reduced frame for a pole
    # on the ellipse, the rational one for any other; pseudo-Talbot has
    # points only for a pole on the ellipse
    @pytest.mark.parametrize("fam, m", [
        (fam, m) for fam in SCANNABLE
        for m in [(0.3, 0.2), tuple(ellipse_point(E21, 0.7).tolist())]
        if not (Family.of(fam).pole == "ellipse" and m == (0.3, 0.2))])
    def test_an_evaluator_call_reads_no_pole(self, monkeypatch, fam, m):
        reads = self.count_reads(monkeypatch)
        ev = family_evaluator(E21, fam, m, theta=0.6, mu=1 / 3)
        assert reads == [m]
        reads.clear()
        t = ParamGrid(64, offset=0.5).nodes()
        for arg in (0.3, 0.3 + 1e-200j, t, t + 1e-200j):
            assert np.all(np.isfinite(ev(arg)))
        assert reads == []

    def test_pedal_has_no_pole_reader(self):
        assert not any(hasattr(pedal, name) for name in ("as_xy", "pole_xy", "pole_on_ellipse"))
        assert not hasattr(curves, "pole_xy")


class TestFamilyRegistry:
    """Each family is declared once, in areas.FAMILIES; what the harness and
    the CLI know of it is derived from its entry."""

    def test_scannable_families_are_those_with_a_pole(self):
        assert list(SCANNABLE) == [n for n in FAMILIES if n != "evolutoid"]

    def test_on_ellipse_families(self):
        on = [n for n, f in FAMILIES.items() if f.on_ellipse]
        assert on == ["hybrid", "pseudo_talbot", "negative_pedal"]
        assert [n for n, f in FAMILIES.items() if f.pole == "ellipse"] == ["pseudo_talbot"]

    def test_what_each_family_reads(self):
        # the pole ("none", "ellipse" or "any") and the parameters of each
        # family, which its frame and closed form take by name
        assert {n: f.pole for n, f in FAMILIES.items() if f.pole != "any"} == {
            "ellipse": "none", "pseudo_talbot": "ellipse", "evolutoid": "none"}
        assert {n: f.params for n, f in FAMILIES.items() if f.params} == {
            "rotated": ("theta",), "interpolated": ("mu",), "evolutoid": ("theta",)}
        assert FAMILIES["rotated"].reads(0.6, 1 / 3) == {"theta": 0.6}
        assert FAMILIES["interpolated"].reads(0.6, 1 / 3) == {"mu": 1 / 3}
        assert FAMILIES["pedal"].reads(0.6, 1 / 3) == {}

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_every_family_gets_the_nesting_grid(self, name):
        g = family_grid(name, 64, s=0.7)
        assert (g.count, g.start, g.offset) == (64, 0.0, 0.0)

    @pytest.mark.parametrize("fam", SCANNABLE)
    def test_quadrature_matches_closed_form(self, fam):
        on_ellipse = Family.of(fam).on_ellipse
        s = 0.7 if on_ellipse else 0.0
        m = tuple(float(v) for v in ellipse_point(E21, s)) if on_ellipse else (0.7, -0.4)
        ev = family_evaluator(E21, fam, m, theta=0.6, mu=1 / 3)
        curve = sample_curve(ev, family_grid(fam, 1024))
        area = area_rule(curve.params)(curve.points)
        assert area == pytest.approx(closed_form_area(fam, E21, m, theta=0.6, mu=1 / 3),
                                     rel=1e-12)


class TestScan:
    def test_pedal_circle_certifies(self):
        locus = LocusSpec(kind="circle", r=1.3, count=12)
        rep = scan(E21, "pedal", locus, n=1024)
        assert rep.passed
        assert rep.errors == [None] * 12
        assert rep.max_rel_dev < 1e-11
        want = closed_form_area("pedal", E21, (1.3, 0.0))
        assert rep.mean == pytest.approx(want, rel=1e-12)
        assert rep.closed_form == pytest.approx(want, rel=1e-12)
        assert rep.max_closed_dev < 1e-11

    def test_hybrid_boundary_certifies(self):
        rep = scan(E21, "hybrid", LocusSpec(kind="boundary", count=8), n=1024)
        assert rep.passed
        assert rep.closed_form == pytest.approx(59 * math.pi / 4, rel=1e-12)
        assert rep.max_closed_dev < 1e-10

    def test_negative_pedal_boundary_certifies(self):
        rep = scan(E21, "negative_pedal", LocusSpec(kind="boundary", count=8), n=1024)
        assert rep.passed
        assert rep.closed_form == pytest.approx(-9 * math.pi / 4, rel=1e-12)

    @pytest.mark.parametrize("fam, area", [
        # -pi (a^2 - b^2)^2 / (2ab) agrees with -pi (a + b)^2 / 4 only at a = 2b
        ("negative_pedal", lambda a, b: -math.pi * (a * a - b * b) ** 2 / (2 * a * b)),
        # the hybrid shares the negative pedal's columns, reflected in P(t):
        # a wrong shared column shows in both closed forms
        ("hybrid", lambda a, b: math.pi * (3 * a ** 4 + 2 * a * a * b * b + 3 * b ** 4)
         / (2 * a * b))])
    @pytest.mark.parametrize("a, b", [(3.0, 1.0), (1.5, 1.0), (5.0, 2.0),
                                      (1 + math.sqrt(2), 1.0), (1.25, 1.0)])
    def test_boundary_closed_form_off_a_equal_2b(self, fam, area, a, b):
        rep = scan(Ellipse(a, b), fam, LocusSpec(kind="boundary", count=16), n=512)
        assert rep.passed
        assert rep.closed_form == pytest.approx(area(a, b), rel=1e-15)
        assert rep.max_closed_dev <= 1e-15

    def test_hybrid_boundary_scan_is_accurate_to_roundoff(self):
        # the reduced frame has no singularity left to lose digits to
        rep = scan(E21, "hybrid", LocusSpec(kind="boundary", count=64), n=2048)
        assert rep.passed
        assert rep.max_rel_dev <= 1e-15 and rep.max_closed_dev <= 1e-15
        assert rep.max_doubling_gap <= 1e-14

    def test_zero_area_family_certifies(self):
        # at a = (1 + sqrt 2) b the pseudo-Talbot factor a^2 - 2ab - b^2
        # vanishes, so the true area is 0; below unit area the spread and the
        # closed-form deviation are absolute, as in the doubling gate
        e = Ellipse(1 + math.sqrt(2), 1.0)
        rep = scan(e, "pseudo_talbot", LocusSpec("boundary", count=16), n=512, tol=1e-6)
        assert rep.passed
        assert abs(rep.mean) < 1e-13 and abs(rep.closed_form) < 1e-13
        assert rep.max_rel_dev < 1e-12 and rep.max_closed_dev < 1e-12

    def test_pseudo_talbot_rejects_circle_locus(self):
        with pytest.raises(DomainError):
            scan(E21, "pseudo_talbot", LocusSpec(kind="circle", r=1.0, count=4))
        # r = a puts the first pole, (2, 0), on the ellipse, and only it
        with pytest.raises(DomainError, match="boundary locus"):
            scan(E21, "pseudo_talbot", LocusSpec(kind="circle", r=2.0, count=4))

    def test_a_boundary_scan_tests_its_poles_against_the_ellipse_once(self, monkeypatch):
        # one test serves the pseudo-Talbot locus check and the closed
        # form's holds
        calls = []

        def counting(e, m):
            calls.append(len(m))
            return pole_on_ellipse(e, m)

        monkeypatch.setattr(areas, "pole_on_ellipse", counting)
        assert scan(E21, "pseudo_talbot", LocusSpec("boundary", count=16), n=64).passed
        assert calls == [16]

    def test_a_pseudo_talbot_scan_checks_its_arguments_before_its_poles(self):
        # the poles are tested by the closed form, which reads theta
        off = LocusSpec(kind="circle", r=1.0, count=4)
        with pytest.raises(DomainError, match="grid size n"):
            scan(E21, "pseudo_talbot", off, n=4)
        with pytest.raises(DomainError, match="theta and mu"):
            scan(E21, "pseudo_talbot", off, theta=math.inf)

    def test_evolutoid_has_no_pole(self):
        with pytest.raises(DomainError):
            scan(E21, "evolutoid", LocusSpec(kind="circle", r=1.0, count=4))

    def test_hybrid_off_boundary_poles_fail_loudly(self):
        rep = scan(E21, "hybrid", LocusSpec(kind="circle", r=3.0, count=6), n=512)
        assert not rep.passed
        assert all(a is None for a in rep.areas)
        assert all(err for err in rep.errors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_area_is_a_per_pole_error(self):
        rep = scan(E21, "pedal", LocusSpec(kind="circle", r=1e300, count=2), n=64)
        assert not rep.passed
        assert rep.areas == [None, None]
        assert all("not finite" in err for err in rep.errors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fam", ["hybrid", "negative_pedal"])
    def test_non_finite_samples_are_a_per_pole_error(self, fam):
        # the pencil squares the pole's coordinates, which overflow: its
        # points are not finite, and its lines are not called parallel
        rep = scan(E21, fam, LocusSpec(kind="circle", r=1e200, count=3), n=64)
        assert rep.areas == [None] * 3
        assert all("non-finite point" in err for err in rep.errors)

    def test_all_failed_scan_is_strict_json(self):
        rep = scan(E21, "hybrid", LocusSpec("circle", r=3.0, count=6), n=512)
        assert rep.mean is None and rep.max_rel_dev is None
        assert rep.passed is False
        d = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert d["mean"] is None and d["max_rel_dev"] is None and d["passed"] is False

    def test_pedal_boundary_locus_is_not_invariant(self):
        # pedal area varies with rho, and the boundary is not a circle
        rep = scan(E21, "pedal", LocusSpec(kind="boundary", count=8), n=512)
        assert not rep.passed
        assert rep.max_rel_dev > 1e-2
        assert rep.errors == [None] * 8

    def test_report_serializes_deterministically(self):
        locus = LocusSpec(kind="circle", r=0.5, count=4)
        d1 = scan(E21, "contrapedal", locus, n=512).to_dict()
        d2 = scan(E21, "contrapedal", locus, n=512).to_dict()
        assert json.dumps(d1) == json.dumps(d2)
        assert list(d1)[:6] == ["family", "a", "b", "locus", "n", "params"]


class TestScanEdge:
    """Bad scan and identity-suite arguments raise DomainError before any
    pole is sampled."""

    LOCUS = LocusSpec("circle", r=0.5, count=4)

    @pytest.mark.parametrize("bad", [
        dict(n=4), dict(n=2.5), dict(n=True), dict(n="64"), dict(n=np.int64(64)),
        dict(theta=math.nan), dict(theta=math.inf), dict(mu=-math.inf), dict(mu=math.nan),
        dict(tol=math.nan), dict(tol=math.inf), dict(tol=0.0), dict(tol=-1e-8)])
    def test_scan_rejects(self, bad):
        with pytest.raises(DomainError):
            scan(E21, "rotated", self.LOCUS, **{"n": 64, **bad})

    @pytest.mark.parametrize("bad", [
        dict(n=4), dict(n=2.5), dict(tol=math.nan), dict(tol=0.0)])
    def test_identity_suite_rejects(self, bad):
        with pytest.raises(DomainError):
            identity_suite(E21, **{"n": 64, **bad})


def scaled_scan(family, k):
    """The scan of a family on the 2:1 ellipse, with the circle of radius
    1.3 for a Steiner family and the boundary otherwise, all scaled by
    2^k: 16 poles, n = 256, theta = 0.6 and mu = 1/3."""
    e = Ellipse(math.ldexp(2.0, k), math.ldexp(1.0, k))
    kind = "boundary" if Family.of(family).on_ellipse else "circle"
    locus = LocusSpec(kind, r=math.ldexp(1.3, k), count=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return scan(e, family, locus, n=256, theta=0.6, mu=1.0 / 3.0)


POLE_SCANS = [f for f in SCANNABLE if FAMILIES[f].pole != "none"]


class TestScaleOracle:
    """Every area law is homogeneous of degree 2, and a power of two scales
    exactly: a scan of the ellipse and locus scaled by 2^k gives bitwise
    4^k times the areas and the closed form, and the same verdict."""

    @pytest.mark.parametrize("family, k", [(f, k) for f in POLE_SCANS for k in (-60, -40, 40, 200)]
                             + [("hybrid", 400), ("negative_pedal", 400)])
    def test_a_scaled_scan_scales_by_four_to_the_k(self, family, k):
        base, got = scaled_scan(family, 0), scaled_scan(family, k)
        assert got.areas == [math.ldexp(a, 2 * k) for a in base.areas]
        assert got.closed_form == math.ldexp(base.closed_form, 2 * k)
        assert got.passed == base.passed
        assert got.errors == base.errors

    def test_a_pseudo_talbot_frame_past_the_range_fails_typed(self):
        # its columns overflow at a = 2^401: every pole fails on non-finite
        # points (a GeometryError, caught by the scan), with no RuntimeWarning
        rep = scaled_scan("pseudo_talbot", 400)
        assert not rep.passed
        assert rep.areas == [None] * 16
        assert rep.errors == ["curve evaluation failed at t=0.0: non-finite point"] * 16


def assert_same_areas(got, want, scale):
    """Equal to roundoff, 1e-13 of the scan's scale, with None for None."""
    assert [a is None for a in got] == [a is None for a in want]
    assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got, want) if g is not None)


class TestSymmetryOracle:
    """The ellipse is symmetric in both axes.  The pole mirrored in the x
    axis, in the y axis or turned a half turn gives the mirrored curve,
    with the same signed area, and a single mirror turns the rotated
    pedal's theta into -theta.  Pole j of a locus with phase phi sits at
    the angle (circle) or parameter (boundary) phi + 2 pi j / count: the x
    mirror sends it to pole -j of the locus with phase -phi, the y mirror
    to pole -j of phase pi - phi, the half turn to pole j of phase
    phi + pi.  A phase shifted by one pole spacing puts pole j + 1 at j."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(POLE_SCANS), ratio=st.floats(1.0, 5.0),
           reflection=st.sampled_from(["x", "y", "half turn"]), n=st.sampled_from([128, 256, 512]),
           count=st.sampled_from([7, 16]), r=st.floats(0.05, 4.0),
           phase=st.floats(0.0, 2 * math.pi), theta=st.floats(-1.5, 1.5))
    def test_mirrored_and_shifted_loci_permute_the_areas(self, family, ratio, reflection, n,
                                                         count, r, phase, theta):
        e = Ellipse(ratio, 1.0)
        kind = "boundary" if Family.of(family).on_ellipse else "circle"

        def scan_at(phase, theta):
            locus = LocusSpec(kind, r=r, count=count, phase=phase)
            return scan(e, family, locus, n=n, theta=theta, mu=1 / 3)

        base = scan_at(phase, theta)
        scale = max([1.0] + [abs(a) for a in base.areas if a is not None])
        mirrored_phase, index_sign, theta_sign = {
            "x": (-phase, -1, -1), "y": (math.pi - phase, -1, -1),
            "half turn": (phase + math.pi, 1, 1)}[reflection]
        mirrored = scan_at(mirrored_phase, theta_sign * theta)
        assert_same_areas(mirrored.areas, [base.areas[index_sign * j % count]
                                           for j in range(count)], scale)
        shifted = scan_at(phase + 2 * math.pi / count, theta)
        assert_same_areas(shifted.areas, base.areas[1:] + base.areas[:1], scale)
        assert shifted.errors == base.errors[1:] + base.errors[:1]


def count_trig_points(monkeypatch):
    """Patch ellipse_point_velocity, the one trig evaluation of a Steiner
    frame, where the frames call it; the returned list gathers the number
    of parameters of every call."""
    sizes = []

    def counted(e, t, fn=pedal.ellipse_point_velocity):
        sizes.append(np.size(t))
        return fn(e, t)

    monkeypatch.setattr(pedal, "ellipse_point_velocity", counted)
    return sizes


class TestSharedFrames:
    """A circle scan builds each grid size's ellipse frame once, whatever
    the number of poles."""

    @pytest.mark.parametrize("fam", ["pedal", "contrapedal", "rotated", "interpolated"])
    def test_trig_work_does_not_grow_with_the_pole_count(self, monkeypatch, fam):
        sizes = count_trig_points(monkeypatch)
        totals = []
        for count in (2, 64):
            sizes.clear()
            rep = scan(E21, fam, LocusSpec("circle", r=0.8, count=count), n=2048,
                       theta=0.6, mu=1 / 3)
            assert rep.passed
            totals.append(sum(sizes))
        # 64 poles at n=2048 make 16 chunks of 4 poles
        assert totals[0] > 0
        assert totals[1] == totals[0]


class TestNestedGrids:
    """The n grid of a Steiner circle scan is the even half of its 2n grid,
    so each pole is sampled once, at 2n."""

    @pytest.mark.parametrize("fam", ["pedal", "contrapedal", "rotated", "interpolated"])
    def test_circle_scan_builds_only_the_2n_frame(self, monkeypatch, fam):
        sizes = count_trig_points(monkeypatch)
        rep = scan(E21, fam, LocusSpec("circle", r=0.8, count=64), n=2048,
                   theta=0.6, mu=1 / 3)
        assert rep.passed
        # P(t) and P'(t) on the 4096 nodes, from one cos and sin; no
        # 2048-point frame
        assert sizes == [4096]


class TestBoundaryFrames:
    """A boundary scan builds one frame for all its poles, at 2n only: every
    boundary family's grid nests."""

    @pytest.mark.parametrize("fam, builder, points", [
        ("hybrid", "hybrid_frame", 2 * 2048),
        ("negative_pedal", "negative_pedal_frame", 2 * 2048),
        ("pseudo_talbot", "pseudo_talbot_frame", 2 * 2048)])
    def test_frame_points_do_not_grow_with_the_pole_count(self, monkeypatch, fam, builder,
                                                           points):
        # the registry holds the builder itself, not a wrapper
        assert FAMILIES[fam].frame is getattr(areas, builder)
        sizes = []

        def counted(e, t, fn=FAMILIES[fam].frame):
            sizes.append(np.size(t))
            return fn(e, t)
        monkeypatch.setitem(FAMILIES, fam, dataclasses.replace(FAMILIES[fam], frame=counted))
        rep = scan(E21, fam, LocusSpec("boundary", count=64), n=2048, tol=1e-6)
        assert rep.passed
        # 64 poles at n=2048 make 16 chunks of 4 poles
        assert sum(sizes) == points


class TestRowChecks:
    """A scan checks its one row of 2n nodes once, in the rule of the
    doubling check, whatever the number of poles."""

    @pytest.mark.parametrize("fam, kind", [
        ("pedal", "circle"), ("contrapedal", "circle"), ("rotated", "circle"),
        ("interpolated", "circle"), ("hybrid", "boundary"), ("pseudo_talbot", "boundary"),
        ("negative_pedal", "boundary")])
    def test_row_checks_do_not_grow_with_the_pole_count(self, monkeypatch, fam, kind):
        rows = []

        def counted(params, fn=areas._periodic_step):
            rows.append(np.shape(params)[-1])
            return fn(params)
        monkeypatch.setattr(areas, "_periodic_step", counted)
        checked = []
        for count in (2, 64):
            rows.clear()
            rep = scan(E21, fam, LocusSpec(kind, r=0.8, count=count), n=2048, theta=0.6,
                       mu=1 / 3, tol=1e-6 if kind == "boundary" else 1e-8)
            assert rep.passed
            checked.append(sorted(rows))
        # 64 poles at n=2048 make 16 chunks of 4 poles; one rule for both sizes
        assert checked == [[4096]] * 2


def tangent_radius(n, node, phase):
    """The radius of the circle locus whose pole at angle phase sits on the
    tangent line of E21 at the given node of the n grid."""
    t = node * 2 * math.pi / n
    return E21.a * E21.b / (E21.a * math.sin(phase) * math.sin(t)
                            + E21.b * math.cos(phase) * math.cos(t))


def scan_alone(e, fam, locus, j, n, theta=0.0, mu=0.5):
    """(area, error) of pole j of the locus, sampled and integrated by itself:
    sampled once, on the 2n grid, whose samples give both areas through the
    rule of the doubling check."""
    pole = tuple(float(v) for v in locus.poles(e)[j])
    s = float(locus.angles()[j]) if locus.kind == "boundary" else 0.0
    try:
        ev = family_evaluator(e, fam, pole, theta=theta, mu=mu, s=s)
        curve = sample_curve(ev, family_grid(fam, 2 * n, s))
        return settled_area(*doubling_rule(curve.params)(curve.points)), None
    except GeometryError as exc:
        return None, str(exc)


class TestBatchedScan:
    """Scans sample and integrate poles in chunks; each pole's area and error
    are bitwise those of the pole alone."""

    @settings(max_examples=40, deadline=None)
    @given(fam=st.sampled_from(SCANNABLE), kind=st.sampled_from(["circle", "boundary"]),
           count=st.integers(1, 40), n=st.sampled_from([64, 256, 1024]),
           phase=st.floats(0.0, 2 * math.pi), r=st.floats(0.1, 3.0))
    def test_areas_and_errors_equal_each_pole_alone(self, fam, kind, count, n, phase, r):
        assume(not (fam == "pseudo_talbot" and kind == "circle"))
        locus = LocusSpec(kind, r=r, count=count, phase=phase)
        rep = scan(E21, fam, locus, n=n, theta=0.6, mu=1 / 3)
        for j in range(count):
            area, err = scan_alone(E21, fam, locus, j, n, theta=0.6, mu=1 / 3)
            assert rep.errors[j] == err
            assert rep.areas[j] == area

    def test_mixed_failures_in_one_chunk_match_poles_scanned_alone(self):
        # pole 0 sits on the tangent line at a node of the n-grid, so the
        # chunk's evaluation raises; poles outside the ellipse do not settle
        n, count, phase = 256, 12, 0.3
        r = tangent_radius(n, 14, phase)
        rep = scan(E21, "hybrid", LocusSpec("circle", r=r, count=count, phase=phase), n=n)
        assert "envelope is singular" in rep.errors[0]
        assert any("not settled" in (err or "") for err in rep.errors)
        assert any(err is None for err in rep.errors)
        alone = [scan(E21, "hybrid", LocusSpec("circle", r=r, count=1,
                                               phase=phase + j * (2 * math.pi / count)), n=n)
                 for j in range(count)]
        assert [a.poles[0] for a in alone] == rep.poles
        assert [a.errors[0] for a in alone] == rep.errors
        assert [a.areas[0] for a in alone] == rep.areas

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fam, r, count, n", [
        # every pole's points overflow
        ("negative_pedal", 1e200, 3, 64),
        # poles 0 and 6 sit on tangent lines at nodes
        ("hybrid", tangent_radius(256, 14, 0.3), 12, 256),
    ])
    def test_a_failed_chunk_reruns_each_pole_by_one_points_call(self, monkeypatch, fam, r,
                                                               count, n):
        # the re-run goes through the scan's one frame, one call on the
        # (1, 1) coordinates of each pole: no 0-d call, no frame per pole
        built, calls = [], []

        def frame(e, t, build=FAMILIES[fam].frame, **params):
            built.append(np.shape(t))
            points = build(e, t, **params)
            return lambda x, y, out=None: calls.append(np.shape(x)) or points(x, y, out)

        monkeypatch.setitem(FAMILIES, fam, dataclasses.replace(FAMILIES[fam], frame=frame))
        rep = scan(E21, fam, LocusSpec("circle", r=r, count=count, phase=0.3), n=n)
        assert rep.errors[0] is not None
        assert built == [(2 * n,)]
        assert calls == [(count, 1)] + [(1, 1)] * count

    @pytest.mark.parametrize("fam, kind", [("contrapedal", "circle"),
                                           ("negative_pedal", "boundary"),
                                           ("pseudo_talbot", "boundary")])
    def test_every_chunk_writes_into_the_one_workspace(self, monkeypatch, fam, kind):
        # 10 poles at n = 2048 make chunks of 4, 4 and 2 poles; the frame
        # writes each chunk's points into the scan's one workspace
        seen = []

        def frame(e, t, build=FAMILIES[fam].frame, **params):
            points = build(e, t, **params)

            def traced(x, y, out=None):
                pts = points(x, y, out)
                seen.append((out, out is not None and np.shares_memory(pts, out)))
                return pts

            return traced

        monkeypatch.setitem(FAMILIES, fam, dataclasses.replace(FAMILIES[fam], frame=frame))
        n, count = 2048, 10
        locus = LocusSpec(kind, r=0.8, count=count, phase=0.3)
        rep = scan(E21, fam, locus, n=n, theta=0.6, mu=1 / 3)
        assert [np.shape(out) for out, _ in seen] == [(3, 4, 2 * n)] * 2 + [(3, 2, 2 * n)]
        assert len({out.__array_interface__["data"][0] for out, _ in seen}) == 1
        assert all(shared for _, shared in seen)
        for j in range(count):
            assert (rep.areas[j], rep.errors[j]) == scan_alone(E21, fam, locus, j, n,
                                                               theta=0.6, mu=1 / 3)

    @pytest.mark.parametrize("n", [8, 256, 2048])
    @pytest.mark.parametrize("fam", [f for f in SCANNABLE if FAMILIES[f].pole != "none"])
    def test_no_state_is_kept_between_chunk_heights(self, fam, n):
        # one frame's points(x, y, out) and one doubling rule take stacks of
        # 5, 2, 7 and 1 poles in that order, so a taller stack follows a
        # shorter one, through one workspace under the scan's row buffer:
        # every row is bitwise what its pole gives alone
        t = ParamGrid(2 * n).nodes()
        spec, rule = FAMILIES[fam], doubling_rule(t)
        frame = spec.frame(E21, t, **spec.reads(0.6, 1 / 3))
        s = np.random.default_rng(n).uniform(0.0, 2 * math.pi, 15)
        if spec.on_ellipse:
            poles = ellipse_point(E21, s)
        else:
            poles = np.stack([1.3 * np.cos(s), 1.3 * np.sin(s)], axis=-1)
        alone = []
        for x, y in poles.tolist():
            pts = frame(x, y)
            alone.append((pts.tobytes(), rule(pts).tobytes()))
        work = np.full((3, 7, 2 * n), np.nan)
        c0 = 0
        with harness._row_buffer(2 * n):
            for rows in (5, 2, 7, 1):
                chunk = poles[c0:c0 + rows]
                pts = frame(chunk[:, :1], chunk[:, 1:], work[:, :rows])
                got = rule(pts)
                assert got.shape == (2, rows)
                for j in range(rows):
                    assert (pts[j].tobytes(), got[:, j].tobytes()) == alone[c0 + j]
                c0 += rows

    @pytest.mark.parametrize("fam", SCANNABLE)
    def test_a_many_poles_scan_equals_each_pole_alone(self, fam):
        # the many_poles workload's shape: 256 poles at n = 256, chunks of
        # 32 poles on 512 nodes
        kind = "boundary" if FAMILIES[fam].on_ellipse else "circle"
        locus = LocusSpec(kind, r=1.7, count=256, phase=0.4)
        rep = scan(E21, fam, locus, n=256, theta=0.6, mu=1 / 3)
        assert rep.passed
        for j in range(locus.count):
            assert (rep.areas[j], rep.errors[j]) == scan_alone(E21, fam, locus, j, 256,
                                                               theta=0.6, mu=1 / 3)

    @pytest.mark.parametrize("fam", ["hybrid", "negative_pedal"])
    @pytest.mark.parametrize("e, r, count, phase", [
        (E21, E21.a, 3, 0.0),                          # P(0) only
        (E21, E21.a, 2, 0.0),                          # P(0) and P(pi)
        (E21, E21.b, 4, math.pi / 2),                  # P(pi/2) and P(3pi/2)
        (Ellipse(1.5, 1.5), 1.5, 4, 0.0),              # every pole, at nodes
        (Ellipse(1.5, 1.5), 1.5, 8, 0.0),
    ])
    def test_circle_locus_poles_on_the_ellipse_route_as_alone(self, fam, e, r, count, phase):
        # a circle locus carries no boundary parameter, yet each of its poles
        # on the ellipse takes the reduced frame, finite at the grid node of
        # its own parameter, in the chunk as alone; the rest take the
        # rational frame
        n = 256
        locus = LocusSpec("circle", r=r, count=count, phase=phase)
        rep = scan(e, fam, locus, n=n)
        on = pole_on_ellipse(e, locus.poles(e))
        assert on.any()
        for j in range(count):
            assert (rep.areas[j], rep.errors[j]) == scan_alone(e, fam, locus, j, n)
            if on[j]:
                assert rep.errors[j] is None
                assert rep.areas[j] == pytest.approx(
                    closed_form_area(fam, e, tuple(rep.poles[j])), rel=1e-14, abs=1e-14)
        assert rep.passed == bool(on.all())

    def test_chunk_cap_bounds_memory(self):
        # all 256 poles at 2n = 4096 points at once would take 16 MiB for the
        # sample points alone
        locus = LocusSpec("boundary", count=256)
        scan(E21, "negative_pedal", LocusSpec("boundary", count=4), n=64)
        tracemalloc.start()
        try:
            rep = scan(E21, "negative_pedal", locus, n=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 2 * 2 ** 20

    def test_interpolated_circle_scan_bounds_memory(self):
        # the one frame alive holds P, P' and the normal at 2n = 4096 points
        locus = LocusSpec("circle", r=0.8, count=256)
        scan(E21, "interpolated", LocusSpec("circle", r=0.8, count=4), n=64)
        tracemalloc.start()
        try:
            rep = scan(E21, "interpolated", locus, n=2048, mu=1 / 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < 2 * 2 ** 20


class TestScanSummary:
    """A scan's summary numbers are bitwise those that the boolean selection
    of its settled poles, np.mean and np.max give."""

    @staticmethod
    def bits(value):
        return None if value is None else float(value).hex()

    @pytest.mark.parametrize("fam, locus, n", [
        # every pole settles: 256 poles at n = 256, the many_poles shape
        ("pedal", LocusSpec("circle", r=1.7, count=256, phase=0.4), 256),
        ("pseudo_talbot", LocusSpec("boundary", count=256, phase=0.4), 256),
        # every pole fails
        ("pedal", LocusSpec(kind="circle", r=1e300, count=2), 64),
        # some poles fail: one on a tangent line, some outside the ellipse
        ("hybrid", LocusSpec("circle", r=tangent_radius(256, 14, 0.3), count=12, phase=0.3),
         256),
        ("negative_pedal", LocusSpec("circle", r=E21.a, count=3), 256),
    ])
    def test_mean_spread_and_closed_form_recomputed_from_the_report(self, fam, locus, n):
        theta, mu = 0.6, 1 / 3
        rep = scan(E21, fam, locus, n=n, theta=theta, mu=mu)
        good = np.array([err is None for err in rep.errors])
        assert [a is not None for a in rep.areas] == good.tolist()
        areas = np.array([np.nan if a is None else a for a in rep.areas])
        mean = max_rel_dev = closed_ref = max_closed_dev = None
        if good.any():
            mean = float(np.mean(areas[good]))
            max_rel_dev = float(np.max(np.abs(areas[good] - mean)) / max(abs(mean), 1.0))
        closed, holds = [], []
        for pole in rep.poles:
            try:
                closed.append(closed_form_area(fam, E21, tuple(pole), theta=theta, mu=mu))
                holds.append(True)
            except DomainError:
                closed.append(np.nan)
                holds.append(False)
        pairs = good & np.array(holds)
        if pairs.any():
            c = np.array(closed)[pairs]
            closed_ref = float(c[0])
            max_closed_dev = float(np.max(np.abs(areas[pairs] - c) / np.maximum(np.abs(c), 1.0)))
        got = [rep.mean, rep.max_rel_dev, rep.closed_form, rep.max_closed_dev]
        want = [mean, max_rel_dev, closed_ref, max_closed_dev]
        assert [self.bits(v) for v in got] == [self.bits(v) for v in want]
        tol = 1e-8  # scan's default
        assert rep.passed == (bool(good.all()) and max_rel_dev <= tol
                              and (max_closed_dev is None or max_closed_dev <= tol))

    @pytest.mark.parametrize("fam, locus", [
        ("pedal", LocusSpec("circle", r=1.7, count=64)),
        ("hybrid", LocusSpec("circle", r=tangent_radius(256, 14, 0.3), count=12, phase=0.3)),
    ])
    def test_numpy_buffer_size_is_restored(self, fam, locus):
        # the chunks run under a buffer cut to a row of 2n = 512 points; a
        # chunk that raised included
        bufsize = np.getbufsize()
        scan(E21, fam, locus, n=256)
        assert np.getbufsize() == bufsize


class TestIdentitySuite:
    def test_all_identities_hold(self):
        checks = identity_suite(E21, n=1024)
        assert len(checks) == 14
        for c in checks:
            assert c.passed, f"{c.name}: residual {c.residual:.3e}"
        names = [c.name for c in checks]
        assert names[0] == "closed_pedal_minus_contrapedal"
        assert sum(n.startswith("rotation_deficit") for n in names) == 5
        assert sum(n.startswith("blend_mu") for n in names) == 6

    def test_frames_that_overflow_fail_typed(self):
        # at a = 2e200 the squared line directions of the pedal's frame
        # overflow: its points are not finite, and numpy warns nothing
        with pytest.raises(EvaluationError, match="non-finite point"):
            identity_suite(Ellipse(2e200, 1e200), m=(0.0, 0.0), n=64)

    def test_tolerance_is_enforced(self):
        checks = identity_suite(E21, n=1024, tol=1e-16)
        assert any(not c.passed for c in checks)

    def test_every_area_is_settled(self, monkeypatch):
        # 13 quadratures (pedal, contrapedal, 5 rotated, 6 blends) and the
        # support route's 2 areas, each against its re-run on 2n points
        pairs = []
        monkeypatch.setattr(harness, "settled_area",
                            lambda a, b, fn=settled_area: pairs.append((a, b)) or fn(a, b))
        identity_suite(E21, n=1024)
        assert len(pairs) == 15

    def test_an_unsettled_area_raises(self):
        # at n = 8 the pedal quadrature's doubling gap is 0.63
        with pytest.raises(QuadratureError, match="not settled"):
            identity_suite(E21, n=8)

    def test_one_row_serves_every_quadrature(self, monkeypatch):
        # the 13 quadratures share one row of 2n nodes and its rule
        rows = []
        monkeypatch.setattr(areas, "_periodic_step",
                            lambda params, fn=areas._periodic_step:
                            rows.append(np.shape(params)) or fn(params))
        identity_suite(E21, n=1024)
        assert rows == [(2048,)]

    @pytest.mark.parametrize("call, what", [
        (0, "pedal area"),
        (1, "contrapedal area"),
        # after the 2 above, theta = pi/6 is the second of 5 rotations
        (3, "rotated pedal area at theta=0.523599"),
        # after the 7 above, mu = 0.25 is the third of 6 blends
        (9, "interpolated pedal area at mu=0.25"),
    ])
    def test_an_unsettled_quadrature_names_its_area(self, monkeypatch, call, what):
        # the re-run on 2n points of the suite's call-th quadrature is moved by 1
        pole_areas, done = harness._pole_areas, []

        def unsettled(*args):
            coarse, fine = pole_areas(*args)
            done.append(args)
            return coarse, fine + (len(done) == call + 1)

        monkeypatch.setattr(harness, "_pole_areas", unsettled)
        with pytest.raises(QuadratureError) as got:
            identity_suite(E21, n=1024)
        assert str(got.value) == f"{what}: quadrature not settled (gap 1.000e+00)"

    @pytest.mark.parametrize("name, what", [
        ("support_pedal_area", "support pedal area"),
        ("support_contrapedal_area", "support contrapedal area"),
    ])
    def test_an_unsettled_support_area_names_its_area(self, monkeypatch, name, what):
        area = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda sup, m, n: area(sup, m, n=n) + (n == 2048))
        with pytest.raises(QuadratureError) as got:
            identity_suite(E21, n=1024)
        assert str(got.value) == f"{what}: quadrature not settled (gap 1.000e+00)"


class TestConjecture:
    def test_generic_pole_passes(self):
        rep = conjecture_check_contrapedal(E21, (0.7, -0.4), n=1024)
        assert not rep.skipped
        assert rep.passed
        assert rep.crossing_count >= 2
        assert rep.dist_to_x_axis_point < 1e-6
        assert rep.dist_to_y_axis_point < 1e-6

    @pytest.mark.parametrize("ratio, pole, n, bound", [
        # a sweep hit between the crossing at (x0, 0) and one at the pole,
        # within a step of both
        (5.0, (-0.313, -0.182), 512, (1.5e-6, 1e-9)),
        (5.0, (-0.313, -0.182), 1024, (1.9e-7, 3.7e-11)),
        (5.0, (1.1253960427303076, -0.9121159840772333), 128, (3.4e-6, 5.9e-9)),
        # the crossing at (x0, 0) lies just beyond a step from the sweep's hit
        (1 + math.sqrt(2), (-2.128121325286305, -0.2247363977785426), 64, (6.6e-9, 2.7e-10)),
    ])
    def test_coarse_grids_of_flat_ellipses_keep_the_axis_crossings(self, ratio, pole, n, bound):
        # the bounds are the distances of the window-only polish that
        # Newton steps replaced, rounded up
        rep = conjecture_check_contrapedal(Ellipse(ratio, 1.0), pole, n=n)
        assert rep.passed
        assert rep.dist_to_x_axis_point <= bound[0] and rep.dist_to_y_axis_point <= bound[1]

    def test_axis_pole_is_skipped(self):
        rep = conjecture_check_contrapedal(E21, (0.5, 0.0))
        assert rep.skipped and rep.passed
        assert rep.crossing_count == 0

    def test_the_three_outcomes_report_their_fields(self, monkeypatch):
        # skipped, no crossing and crossings: one report, its fields worked
        # out first
        skip = conjecture_check_contrapedal(E21, (0.5, 0.0), tol=1e-4).to_dict()
        assert skip == {"pole": [0.5, 0.0], "skipped": True,
                        "reason": "pole on a symmetry axis: crossings degenerate",
                        "crossing_count": 0, "crossings": [], "dist_to_x_axis_point": None,
                        "dist_to_y_axis_point": None, "tol": 1e-4, "passed": True}
        monkeypatch.setattr(harness, "self_intersections", lambda curve: [])
        none = conjecture_check_contrapedal(E21, (0.7, -0.4), n=64, tol=1e-4).to_dict()
        assert none == {**skip, "pole": [0.7, -0.4], "skipped": False,
                        "reason": "no self-crossings found", "passed": False}
        hit = pedal.Crossing(point=np.array([0.7 + 3e-5, 4e-5]), t1=0.1, t2=0.2)
        monkeypatch.setattr(harness, "self_intersections", lambda curve: [hit, hit])
        rep = conjecture_check_contrapedal(E21, (0.7, -0.4), n=64, tol=1e-4).to_dict()
        dx, dy = rep["dist_to_x_axis_point"], rep["dist_to_y_axis_point"]
        assert dx == pytest.approx(5e-5, rel=1e-9)
        assert dy == pytest.approx(math.hypot(0.7 + 3e-5, 0.4 + 4e-5), rel=1e-15)
        assert rep == {**none, "reason": None, "crossing_count": 2,
                       "crossings": [[0.7 + 3e-5, 4e-5]] * 2, "dist_to_x_axis_point": dx,
                       "dist_to_y_axis_point": dy, "passed": False}

    def test_the_axis_skip_is_relative_to_the_ellipse(self):
        # a pole of a tiny ellipse, 4e-11 from the x axis, is checked: the
        # skip's distance is AXIS_TOL times b, not AXIS_TOL
        tiny = Ellipse(2e-10, 1e-10)
        rep = conjecture_check_contrapedal(tiny, (7e-11, -4e-11), n=2048, tol=1e-14)
        assert not rep.skipped and rep.passed
        assert rep.crossing_count == 8
        assert conjecture_check_contrapedal(tiny, (7e-11, -1e-20), n=2048).skipped

    @pytest.mark.parametrize("pole", [(0.7, -0.4), (0.5, 0.0)])
    @pytest.mark.parametrize("kw, message", [
        ({"tol": -1.0}, "tol must be finite and > 0, got -1.0"),
        ({"tol": 0.0}, "tol must be finite and > 0, got 0.0"),
        ({"tol": math.nan}, "tol must be finite and > 0, got nan"),
        ({"tol": math.inf}, "tol must be finite and > 0, got inf"),
        ({"n": True}, "grid size n must be an int, got True"),
        ({"n": 4}, "grid size n must be >= 8, got 4"),
        ({"n": 64.0}, "grid size n must be an int, got 64.0"),
    ])
    def test_inputs_are_refused_at_the_edge(self, pole, kw, message):
        # the axis pole is refused too, before its skip
        with pytest.raises(DomainError) as got:
            conjecture_check_contrapedal(E21, pole, **kw)
        assert str(got.value) == message
