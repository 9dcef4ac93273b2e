import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pedallab import (
    DomainError,
    Ellipse,
    GeometryError,
    LocusSpec,
    ParamGrid,
    closed_form_area,
    conjecture_check_contrapedal,
    family_evaluator,
    family_grid,
    identity_suite,
    sample_curve,
    scan,
    signed_area_quadrature,
)
from pedallab.areas import settled_area
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
            family_evaluator(E21, "pseudo_talbot", (2.0, 0.0))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            family_evaluator(E21, "osculating", (0.0, 0.0))

    def test_singular_families_get_offset_grids(self):
        g = family_grid("hybrid", 512, s=0.7)
        assert (g.start, g.offset, g.count) == (0.7, 0.5, 512)
        assert family_grid("pedal", 512).offset == 0.0


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

    def test_pseudo_talbot_rejects_circle_locus(self):
        with pytest.raises(DomainError):
            scan(E21, "pseudo_talbot", LocusSpec(kind="circle", r=1.0, count=4))

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
    def test_non_finite_samples_are_a_per_pole_error(self):
        rep = scan(E21, "pedal", LocusSpec(kind="circle", r=1e308, count=3), n=64)
        assert rep.areas == [None] * 3
        assert "non-finite point" in rep.errors[0]
        assert all("not finite" in err for err in rep.errors[1:])

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


def scan_alone(e, fam, locus, j, n, theta=0.0, mu=0.5):
    """(area, error) of pole j of the locus, sampled and integrated by itself."""
    pole = tuple(float(v) for v in locus.poles(e)[j])
    s = float(locus.angles()[j]) if locus.kind == "boundary" else 0.0
    try:
        ev = family_evaluator(e, fam, pole, theta=theta, mu=mu, s=s)
        a1 = signed_area_quadrature(sample_curve(ev, family_grid(fam, n, s)))
        a2 = signed_area_quadrature(sample_curve(ev, family_grid(fam, 2 * n, s)))
        return settled_area(a1, a2), None
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
        assume(not (fam.value == "pseudo_talbot" and kind == "circle"))
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
        t_node = 14.5 * 2 * math.pi / n
        r = E21.a * E21.b / (E21.a * math.sin(phase) * math.sin(t_node)
                             + E21.b * math.cos(phase) * math.cos(t_node))
        rep = scan(E21, "hybrid", LocusSpec("circle", r=r, count=count, phase=phase), n=n)
        assert "curve evaluation failed" in rep.errors[0]
        assert any("not settled" in (err or "") for err in rep.errors)
        assert any(err is None for err in rep.errors)
        alone = [scan(E21, "hybrid", LocusSpec("circle", r=r, count=1,
                                               phase=phase + j * (2 * math.pi / count)), n=n)
                 for j in range(count)]
        assert [a.poles[0] for a in alone] == rep.poles
        assert [a.errors[0] for a in alone] == rep.errors
        assert [a.areas[0] for a in alone] == rep.areas

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

    def test_tolerance_is_enforced(self):
        checks = identity_suite(E21, n=1024, tol=1e-16)
        assert any(not c.passed for c in checks)


class TestConjecture:
    def test_generic_pole_passes(self):
        rep = conjecture_check_contrapedal(E21, (0.7, -0.4), n=1024)
        assert not rep.skipped
        assert rep.passed
        assert rep.crossing_count >= 2
        assert rep.dist_to_x_axis_point < 1e-6
        assert rep.dist_to_y_axis_point < 1e-6

    def test_axis_pole_is_skipped(self):
        rep = conjecture_check_contrapedal(E21, (0.5, 0.0))
        assert rep.skipped and rep.passed
        assert rep.crossing_count == 0
