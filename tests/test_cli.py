import argparse
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedallab import (DomainError, Ellipse, ParamGrid, QuadratureError, area_rule, closed_form_area,
                      ellipse_point)
from pedallab import cli
from pedallab.areas import FAMILIES
from pedallab.cli import MAX_COUNT, MAX_N, build_parser, main, report_json
from pedallab.harness import SCANNABLE, IdentityCheck

E21 = Ellipse(2.0, 1.0)
REPO = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def family_choices(command):
    """The --family choices of a subcommand, as its parser holds them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "family")


class TestFamilyChoices:
    @pytest.mark.parametrize("command", ["sample", "area", "centroid"])
    def test_curve_commands_offer_every_registered_family(self, command):
        assert family_choices(command) == list(FAMILIES)

    def test_scan_offers_the_scannable_families(self):
        assert family_choices("scan") == [f.value for f in SCANNABLE]


def test_make_figures_renders_every_family(tmp_path):
    # run from an uninstalled checkout: the script must find ../src itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_figures.py"),
         "--outdir", str(tmp_path / "figures"), "--n", "64"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list((tmp_path / "figures").glob("*.svg"))) == 12


def load_script(name):
    """A script of scripts/ as a module, to call its main() in process."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bad", [
    ["--n", "4"], ["--count", "0"], ["--radii", "nan"], ["--a", "1", "--b", "2"],
    ["--a", "inf"], ["--n", "64", "--count", "2", "--radii", "1", "-1"]])
def test_run_invariance_refuses_bad_arguments_before_writing(tmp_path, capsys, bad):
    with pytest.raises(SystemExit) as info:
        load_script("run_invariance").main(["--outdir", str(tmp_path), *bad])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def on_cpus(monkeypatch, w):
    """Show the battery w usable CPUs, so that it runs on min(w, its
    certificates) processes; the returned list gathers the pid of every
    child it forks."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))
    monkeypatch.setattr(os, "fork", counted)
    return forked


def plant(monkeypatch, mod, acts):
    """Make the battery's scan of a (family, circle radius) in acts call
    that act in place of scanning."""
    real = mod.scan

    def scan(e, fam, locus, **kwargs):
        act = acts.get((fam, locus.r)) if locus.kind == "circle" else None
        return act() if act else real(e, fam, locus, **kwargs)

    monkeypatch.setattr(mod, "scan", scan)


def raises(exc):
    def act():
        raise exc
    return act


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBatteryWorkers:
    """run_invariance.py runs its certificates on one process per usable
    CPU, at most one per certificate.  Its files, exit code and error line
    are those of a run on one CPU, and no child outlives the run."""

    @pytest.mark.parametrize("argv, files", [([], 22), (["--quick"], 14)])
    def test_the_reports_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch,
                                                           capsys, argv, files):
        mod = load_script("run_invariance")
        written = []
        for w in (1, 2, 3):
            forked = on_cpus(monkeypatch, w)
            out = tmp_path / f"w{w}"
            assert mod.main(["--outdir", str(out), *argv]) == 0
            assert len(forked) == w - 1
            assert_no_child_left()
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(written[0]) == files
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_a_failing_battery_fails_as_on_one_cpu(self, tmp_path, monkeypatch, capsys, w):
        # certificates 3 and 4 fail; on 2 processes 3 is the child's and 4,
        # the later one, the parent's, which the parent meets first
        mod = load_script("run_invariance")
        plant(monkeypatch, mod, {("contrapedal", 1.0): raises(QuadratureError("planted at 3")),
                                 ("rotated", 0.5): raises(QuadratureError("planted at 4"))})
        forked = on_cpus(monkeypatch, w)
        out = tmp_path / "out"
        assert mod.main(["--outdir", str(out), "--quick"]) == 1
        assert len(forked) == w - 1
        assert capsys.readouterr() == ("", "error: planted at 3\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "scan_contrapedal_circle_r0.5.json", "scan_pedal_circle_r0.5.json",
            "scan_pedal_circle_r1.json"]
        assert_no_child_left()

    def test_a_childs_other_exception_is_raised_with_its_traceback(self, tmp_path,
                                                                   monkeypatch):
        mod = load_script("run_invariance")

        def planted_in_the_child():
            raise ZeroDivisionError("planted at 1")

        plant(monkeypatch, mod, {("pedal", 1.0): planted_in_the_child})
        forked = on_cpus(monkeypatch, 2)
        with pytest.raises(ZeroDivisionError, match="planted at 1") as info:
            mod.main(["--outdir", str(tmp_path), "--quick"])
        cause = str(info.value.__cause__)
        assert isinstance(info.value.__cause__, mod.WorkerTraceback)
        assert cause.startswith(f"in battery worker {forked[0]}:\nTraceback")
        assert "in planted_in_the_child" in cause
        assert cause.endswith("ZeroDivisionError: planted at 1\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scan_pedal_circle_r0.5.json"]
        assert_no_child_left()

    @pytest.mark.parametrize("die, ended", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9")])
    def test_a_child_that_ends_without_its_reports_is_named(self, tmp_path, monkeypatch,
                                                            die, ended):
        mod = load_script("run_invariance")
        parent = os.getpid()

        def act():
            if os.getpid() == parent:
                raise AssertionError("certificate 1 ran in the parent")
            die()

        plant(monkeypatch, mod, {("pedal", 1.0): act})
        forked = on_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError) as info:
            mod.main(["--outdir", str(tmp_path), "--quick"])
        assert str(info.value) == (
            f"battery worker {forked[0]} (its share starts at scan_pedal_circle_r1, step 2) "
            f"ended by {ended} without sending its reports")
        assert [p.name for p in tmp_path.iterdir()] == ["scan_pedal_circle_r0.5.json"]
        assert_no_child_left()

    def test_one_process_where_forking_is_missing_or_unsafe(self, monkeypatch):
        mod = load_script("run_invariance")
        on_cpus(monkeypatch, 3)
        assert (mod.worker_count(21), mod.worker_count(2)) == (3, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert mod.worker_count(21) == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        for name in ("fork", "sched_getaffinity"):
            with monkeypatch.context() as m:
                m.delattr(os, name)
                assert mod.worker_count(21) == 1


@pytest.mark.parametrize("n", ["4", str(2 * MAX_N)])
def test_make_figures_refuses_a_bad_grid_before_drawing(tmp_path, capsys, n):
    with pytest.raises(SystemExit) as info:
        load_script("make_figures").main(["--outdir", str(tmp_path), "--n", n])
    assert info.value.code == 2
    assert "argument --n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "pedallab":  # the top-level parser, not a subcommand's
            built.append(self)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    getattr(build_parser, "cache_clear", lambda: None)()
    assert main(["polygon", "--vertices", "0,0;1,0;0,1"]) == 0
    assert main(["scan", "--locus", "nowhere"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["sample", "--help"]) == 0
    assert "--family" in capsys.readouterr().out
    assert main(["area", "--n", "64", "--m", "0.7,-0.4"]) == 0
    assert len(built) == 1


# ---------------------------------------------------------------------------
# argument validation -> exit 2


class TestUsageErrors:
    def test_axis_order(self, capsys):
        rc, _, err = run(capsys, "sample", "--a", "1", "--b", "2")
        assert rc == 2 and "a >= b > 0" in err

    @pytest.mark.parametrize("command", ["sample", "area", "centroid"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_s_must_be_finite(self, capsys, command, bad):
        rc, _, err = run(capsys, command, "--family", "hybrid", f"--s={bad}")
        assert rc == 2 and "--s" in err and "finite" in err

    def test_pole_given_twice(self, capsys):
        rc, _, err = run(capsys, "sample", "--m", "0,0", "--s", "0.5")
        assert rc == 2 and "not both" in err

    @pytest.mark.parametrize("command", ["sample", "area", "centroid"])
    def test_help_says_m_and_s_exclude_each_other(self, capsys, command):
        rc, out, _ = run(capsys, command, "--help")
        assert rc == 0
        text = " ".join(out.split())
        assert "pole as 'x,y' (excludes --s)" in text
        assert "pole on the ellipse at parameter s (excludes --m)" in text
        assert "overrides" not in text

    def test_malformed_pole(self, capsys):
        rc, _, err = run(capsys, "sample", "--m", "1;2")
        assert rc == 2

    def test_offset_range(self, capsys):
        rc, _, _ = run(capsys, "sample", "--offset", "1.0")
        assert rc == 2

    def test_tiny_grid(self, capsys):
        rc, _, _ = run(capsys, "area", "--n", "4")
        assert rc == 2

    def test_pseudo_talbot_needs_s(self, capsys):
        rc, _, err = run(capsys, "sample", "--family", "pseudo_talbot")
        assert rc == 2 and "--s" in err
        # a pole off the ellipse given by --m is refused the same way
        for cmd in ("sample", "area", "centroid"):
            rc, _, err = run(capsys, cmd, "--family", "pseudo_talbot", "--m", "2,0.1")
            assert rc == 2 and "--s" in err

    def test_scan_radius(self, capsys):
        rc, _, _ = run(capsys, "scan", "--family", "pedal", "--locus", "circle", "--r", "-1")
        assert rc == 2

    @pytest.mark.parametrize("bad", [("--r", "inf"), ("--phase", "nan"), ("--count", "0")])
    def test_scan_locus_out_of_domain(self, capsys, bad):
        rc, _, _ = run(capsys, "scan", "--family", "pedal", "--locus", "circle", *bad)
        assert rc == 2

    def test_polygon_needs_three_vertices(self, capsys):
        rc, _, _ = run(capsys, "polygon", "--vertices", "0,0;1,0")
        assert rc == 2

    def test_support_centroid_is_ellipse_only(self, capsys):
        rc, _, _ = run(capsys, "centroid", "--family", "pedal", "--source", "support")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", str(MAX_N + 1)],
        ["area", "--n", str(MAX_N + 1)],
        ["scan", "--locus", "circle", "--n", str(MAX_N + 1)],
        ["identities", "--n", str(MAX_N + 1)],
        ["centroid", "--n", str(MAX_N + 1)],
        ["conjecture", "--n", str(MAX_N + 1)],
        ["scan", "--locus", "circle", "--count", str(MAX_COUNT + 1)],
        ["conjecture", "--count", str(MAX_COUNT + 1)]])
    def test_grid_and_count_upper_bounds(self, capsys, argv):
        # checked by the parser alone: nothing of that size is ever run
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be at most" in err

    @pytest.mark.parametrize("argv", [
        ["scan", "--locus", "circle", "--theta", "nan"],
        ["scan", "--locus", "circle", "--mu", "inf"],
        ["scan", "--locus", "circle", "--tol", "nan"],
        ["scan", "--locus", "circle", "--tol", "0"],
        ["identities", "--tol", "-1"],
        ["conjecture", "--tol", "inf"],
        ["sample", "--theta", "inf"],
        ["area", "--mu", "nan"],
        ["scan", "--locus", "circle", "--n", "2"],
        ["identities", "--n", "4"],
        ["conjecture", "--n", "7"],
        ["conjecture", "--count", "0"],
        ["conjecture", "--seed", "-1"]])
    def test_flag_out_of_range_exits_2_naming_the_flag(self, capsys, argv):
        # refused by the parser, before anything is computed
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert f"argument {argv[-2]}: must be" in err

    def test_help_exits_0(self, capsys):
        rc, out, _ = run(capsys, "scan", "--help")
        assert rc == 0 and "--theta" in out

    def test_bounds_themselves_parse(self):
        args = build_parser().parse_args(["scan", "--locus", "circle", "--n", str(MAX_N),
                                          "--count", str(MAX_COUNT)])
        assert (args.n, args.count) == (2 ** 20, 2 ** 16)

    def test_non_integer_grid_size(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["area", "--n", "lots"])
        assert info.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sample formats


class TestSample:
    def test_csv_round_trips_exactly(self, capsys):
        rc, out, _ = run(capsys, "sample", "--family", "ellipse", "--n", "16")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,y"
        assert len(lines) == 17
        for row in lines[1:]:
            t, x, y = map(float, row.split(","))
            p = ellipse_point(E21, t)
            assert (x, y) == (p[0], p[1])  # %.17g preserves doubles

    def test_json_schema(self, capsys):
        rc, out, _ = run(capsys, "sample", "--family", "pedal", "--m", "0.7,-0.4",
                         "--n", "32", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["meta"]["family"] == "pedal"
        assert obj["meta"]["m"] == [0.7, -0.4]
        assert obj["meta"]["params"]["n"] == 32
        assert len(obj["points"]) == 32
        assert all(len(row) == 3 for row in obj["points"])

    def test_svg_is_one_closed_path(self, capsys):
        rc, out, _ = run(capsys, "sample", "--family", "contrapedal", "--m", "0.7,-0.4",
                         "--n", "64", "--format", "svg")
        assert rc == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert len(root.findall("{http://www.w3.org/2000/svg}path")) == 1
        path = root[0]
        assert path.get("d").startswith("M ") and path.get("d").endswith(" Z")
        assert path.get("fill") == "none"
        assert len(root.get("viewBox").split()) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        rc, out, _ = run(capsys, "sample", "--n", "16", "--output", str(target))
        assert rc == 0 and out == ""
        assert target.read_text().startswith("t,x,y\n")

    def test_a_raising_evaluator_prints_its_own_error(self, capsys):
        # (2, 0.5) lies on the tangent line at P(0), the grid's first node;
        # the pencil's message names the node, as a scan prints it
        rc, out, err = run(capsys, "sample", "--family", "hybrid", "--m", "2,0.5",
                           "--offset", "0")
        assert rc == 1 and out == ""
        assert err == "error: envelope is singular near t=0 (parallel line pencil)\n"

    def test_sample_area_and_scan_name_the_same_degenerate_line(self, capsys):
        # b = 1e-13: the tangent direction's length squared, b^2 at t = 0,
        # is below the feet's floor
        flat = ("--a", "2", "--b", "1e-13")
        want = "error: line direction vanishes near t=0\n"
        for argv in (("sample", *flat), ("area", *flat), ("scan", *flat, "--locus", "circle")):
            assert run(capsys, *argv) == (1, "", want), argv

    def test_boundary_pole_families_get_shifted_grid(self, capsys):
        rc, out, _ = run(capsys, "sample", "--family", "hybrid", "--s", "0.7",
                         "--n", "16", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["meta"]["params"]["offset"] == 0.5
        t0 = obj["points"][0][0]
        assert t0 == pytest.approx(0.7 + 0.5 * 2 * math.pi / 16)


# ---------------------------------------------------------------------------
# area


class TestArea:
    def test_pedal_matches_closed_form(self, capsys):
        rc, out, _ = run(capsys, "area", "--family", "pedal", "--m", "0.7,-0.4",
                         "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        want = closed_form_area("pedal", E21, (0.7, -0.4))
        assert obj["closed"] == pytest.approx(want, rel=1e-12)
        assert obj["quadrature"] == pytest.approx(want, rel=1e-10)
        assert obj["doubling_gap"] < 1e-10

    def test_boundary_family_via_s(self, capsys):
        rc, out, _ = run(capsys, "area", "--family", "negative_pedal", "--s", "0.7",
                         "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        assert obj["closed"] == pytest.approx(-9 * math.pi / 4, rel=1e-12)
        assert obj["quadrature"] == pytest.approx(-9 * math.pi / 4, rel=1e-9)

    @pytest.mark.parametrize("fam", ["hybrid", "negative_pedal", "pseudo_talbot"])
    def test_pole_on_the_ellipse_given_by_m(self, capsys, fam):
        # --m 2,0 is the pole --s 0 names: same grid, same report
        rc, out, _ = run(capsys, "area", "--family", fam, "--m", "2,0", "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        want = closed_form_area(fam, E21, (2.0, 0.0))
        assert obj["closed"] == want
        assert obj["quadrature"] == pytest.approx(want, rel=1e-9)
        assert obj["params"]["s"] == 0.0 and obj["params"]["offset"] == 0.5
        assert run(capsys, "area", "--family", fam, "--s", "0", "--n", "1024") == (0, out, "")

    def test_unsettled_area_is_reported_then_exits_one(self, capsys):
        rc, out, err = run(capsys, "area", "--family", "hybrid", "--m", "3,0", "--n", "64")
        assert rc == 1
        assert json.loads(out)["doubling_gap"] > 1.0
        assert err.startswith("error: quadrature not settled (gap ")

    @pytest.mark.parametrize("fam, m, err", [
        # the node of the 2n grid, as a scan names it
        ("negative_pedal", "1e200,0",
         "error: curve evaluation failed at t=0.04908738521234052: non-finite point\n"),
        ("hybrid", "1e300,1e300", "error: curve evaluation failed at t=0.0: non-finite point\n"),
        ("pedal", "0,-1e200", "error: quadrature area is not finite (nan)\n"),
        # the curve's area is finite, its closed form overflows
        ("interpolated", "1e200,0", "error: report holds a non-finite number (nan)\n"),
    ])
    def test_a_pole_that_overflows_fails_typed_without_warnings(self, capsys, fam, m, err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, got = run(capsys, "area", "--family", fam, f"--m={m}", "--n", "64")
        assert (rc, got) == (1, err)

    @pytest.mark.parametrize("argv", [
        ("--family", "pedal", "--m", "0.7,-0.4"),
        ("--family", "rotated", "--m", "1,1", "--theta", "0.4", "--offset", "0.25"),
        ("--family", "contrapedal", "--m", "0.3,0.9", "--offset", "0.7"),
        ("--family", "hybrid", "--s", "0.7"),
        ("--family", "negative_pedal", "--m", "2,0"),
        ("--family", "evolutoid", "--theta", "0.3"),
    ])
    def test_both_areas_come_from_one_evaluator_call_at_2n(self, capsys, monkeypatch, argv):
        sampled, calls = [], []
        sample = cli.sample_curve

        def counted(f, grid):
            sampled.append((f, grid))
            return sample(lambda t: calls.append(np.shape(t)) or f(t), grid)

        monkeypatch.setattr(cli, "sample_curve", counted)
        rc, out, _ = run(capsys, "area", *argv, "--n", "64")
        assert rc == 0 and calls == [(128,)]
        f, fine = sampled[0]
        obj = json.loads(out)
        # the report's grid is the even or the odd nodes of the 2n grid
        offset = obj["params"]["offset"]
        t = fine.nodes()[int(2 * offset >= 1.0)::2]
        assert np.array_equal(t, ParamGrid(64, fine.start, offset).nodes())
        coarse, fine_area = area_rule(t)(f(t)), area_rule(fine.nodes())(f(fine.nodes()))
        assert obj["quadrature"] == pytest.approx(coarse, rel=1e-14, abs=1e-14)
        assert obj["doubling_gap"] == pytest.approx(abs(coarse - fine_area), abs=1e-13)

    def test_no_closed_form_for_interior_pole(self, capsys):
        rc, out, _ = run(capsys, "area", "--family", "hybrid", "--m", "0.3,0.2",
                         "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        assert obj["closed"] is None
        assert isinstance(obj["quadrature"], float)


# ---------------------------------------------------------------------------
# scan / identities


class TestScan:
    def test_invariant_locus_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "scan", "--family", "pedal", "--locus", "circle",
                         "--r", "1.3", "--count", "6", "--n", "512")
        assert rc == 0
        assert "passed=True" in out

    def test_non_invariant_locus_exits_one(self, capsys):
        rc, out, _ = run(capsys, "scan", "--family", "pedal", "--locus", "boundary",
                         "--count", "6", "--n", "512")
        assert rc == 1
        assert "passed=False" in out

    def test_all_failed_scan_writes_strict_json(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "scan", "--family", "hybrid", "--locus", "circle",
                         "--r", "3", "--count", "6", "--n", "512", "--output", str(target))
        assert rc == 1
        assert "mean=None max_rel_dev=None passed=False" in out
        text = target.read_text()
        assert "NaN" not in text and "Infinity" not in text
        rep = json.loads(text)
        assert rep["mean"] is None and rep["max_rel_dev"] is None and rep["passed"] is False

    def test_report_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, _, _ = run(capsys, "scan", "--family", "contrapedal", "--locus", "circle",
                       "--r", "0.5", "--count", "4", "--n", "512",
                       "--output", str(target))
        assert rc == 0
        rep = json.loads(target.read_text())
        assert rep["passed"] is True
        assert rep["family"] == "contrapedal"
        assert len(rep["areas"]) == 4

    def test_a_pole_that_overflows_is_named_as_area_names_it(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        want = "curve evaluation failed at t=0.04908738521234052: non-finite point"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, _ = run(capsys, "scan", "--family", "negative_pedal", "--locus", "circle",
                           "--r", "1e200", "--count", "2", "--n", "64", "--output", str(target))
            assert rc == 1
            assert json.loads(target.read_text())["errors"][0] == want
            assert run(capsys, "area", "--family", "negative_pedal", "--m", "1e200,0",
                       "--n", "64") == (1, "", f"error: {want}\n")

    def test_reports_are_bit_identical(self, capsys, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            rc, _, _ = run(capsys, "scan", "--family", "rotated", "--theta", "0.6",
                           "--locus", "circle", "--r", "1.0", "--count", "4",
                           "--n", "512", "--output", str(p))
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestIdentities:
    def test_text_report_passes(self, capsys):
        rc, out, _ = run(capsys, "identities", "--n", "512")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 14
        assert all(line.endswith("PASS") for line in lines)

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "identities", "--n", "512", "--format", "json")
        assert rc == 0
        checks = json.loads(out)
        assert len(checks) == 14
        assert all(c["passed"] for c in checks)

    def test_tol_reaches_the_suite(self, capsys):
        rc, out, _ = run(capsys, "identities", "--n", "512", "--tol", "1e-20")
        assert rc == 1
        assert "FAIL" in out

    def test_unsettled_area_exits_1(self, capsys):
        rc, out, err = run(capsys, "identities", "--n", "8")
        assert rc == 1 and out == ""
        assert "quadrature not settled" in err

    def test_unsettled_area_is_named(self, capsys):
        # the pedal quadrature is the first the suite takes
        rc, out, err = run(capsys, "identities", "--n", "8")
        assert rc == 1 and out == ""
        assert err == "error: pedal area: quadrature not settled (gap 6.259e-01)\n"


# ---------------------------------------------------------------------------
# centroid / polygon / conjecture


class TestCentroid:
    def test_sampled_ellipse(self, capsys):
        rc, out, _ = run(capsys, "centroid", "--family", "ellipse", "--n", "512")
        assert rc == 0
        obj = json.loads(out)
        assert math.hypot(obj["kx"], obj["ky"]) < 1e-10

    def test_evolute_cusps_on_nodes_are_refused(self, capsys):
        # the evolute's cusps at t = 0, pi/2, pi, 3pi/2 are nodes of the
        # default grid; half a step off, every node misses them
        argv = ["centroid", "--family", "evolutoid", "--theta", "1.5707963267948966"]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert "not a multiple of pi" in err and "cusp on a node" in err
        rc, out, _ = run(capsys, *argv, "--offset", "0.5")
        assert rc == 0
        obj = json.loads(out)
        assert math.hypot(obj["kx"], obj["ky"]) < 3e-12

    def test_deltoid_cusp_on_a_node_is_refused(self, capsys):
        # the negative pedal of P(0) is a deltoid with a cusp at t = 0
        argv = ["centroid", "--family", "negative_pedal", "--s", "0", "--n", "512"]
        rc, out, err = run(capsys, *argv, "--offset", "0")
        assert rc == 1 and out == "" and "not a multiple of pi" in err
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        obj = json.loads(out)
        assert obj["kx"] == pytest.approx(-2 / 3, abs=1e-9)
        assert obj["ky"] == pytest.approx(0.0, abs=1e-9)

    def test_support_source(self, capsys):
        rc, out, _ = run(capsys, "centroid", "--source", "support", "--family", "ellipse")
        assert rc == 0
        obj = json.loads(out)
        assert obj["source"] == "support"
        assert math.hypot(obj["kx"], obj["ky"]) < 1e-10


class TestPolygon:
    def test_triangle_centroid_is_circumcenter(self, capsys):
        rc, out, _ = run(capsys, "polygon", "--vertices", "0,0;4,0;0,3", "--m", "1,1")
        assert rc == 0
        obj = json.loads(out)
        assert obj["signed_area"] == pytest.approx(6.0)
        np.testing.assert_allclose(obj["centroid"], [2.0, 1.5], atol=1e-12)
        assert len(obj["pedal_vertices"]) == 3

    def test_square_reports_cancelling_weights(self, capsys):
        rc, out, _ = run(capsys, "polygon", "--vertices", "0,0;1,0;1,1;0,1")
        assert rc == 0
        obj = json.loads(out)
        assert obj["centroid"] is None
        assert "cancel" in obj["centroid_error"]


class TestConjecture:
    def test_single_pole(self, capsys):
        rc, out, _ = run(capsys, "conjecture", "--m", "0.7,-0.4", "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["reports"][0]["skipped"] is False

    def test_axis_pole_skipped(self, capsys):
        rc, out, _ = run(capsys, "conjecture", "--m", "0.5,0", "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        assert obj["reports"][0]["skipped"] is True

    def test_random_poles(self, capsys):
        rc, out, _ = run(capsys, "conjecture", "--count", "2", "--seed", "3",
                         "--n", "1024")
        assert rc == 0
        obj = json.loads(out)
        assert len(obj["reports"]) == 2


# ---------------------------------------------------------------------------
# the report writer


FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([-0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1]))
SCALARS = st.one_of(FINITE_FLOATS, FINITE_FLOATS.map(np.float64), st.integers(),
                    st.booleans(), st.none(), st.text())
KEYS = st.one_of(st.text(), st.integers(), FINITE_FLOATS, st.booleans(), st.none())
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(KEYS, inner, max_size=5),
        # the shapes the writer takes in one pass: flat floats, float pairs,
        # strings and None; long flat lists of a few values repeated, as a
        # scan's areas are
        st.lists(FINITE_FLOATS, max_size=6),
        st.lists(FINITE_FLOATS, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=32, max_size=300)),
        st.lists(st.one_of(st.none(), st.text()), max_size=6),
        st.lists(st.lists(FINITE_FLOATS, min_size=2, max_size=2), max_size=4)),
    max_leaves=30)


class TestReportWriter:
    """report_json writes json.dumps(obj, indent=2, allow_nan=False)'s bytes,
    and refuses a non-finite number with DomainError."""

    @settings(max_examples=300, deadline=None)
    @given(obj=REPORTS)
    def test_bytes_equal_json_dumps_with_indent_2(self, obj):
        assert report_json(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"

    def test_a_scan_report(self):
        from pedallab import LocusSpec, scan
        rep = scan(E21, "hybrid", LocusSpec("circle", r=1.5, count=5), n=64).to_dict()
        assert report_json(rep) == json.dumps(rep, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("obj", [
        [None] * 4, ["a", None, 'q"\u00e9\n', ""], [None, "x", 1.0], [None, 2, "x"],
        [None, [1.0, 2.0]], ["x", True]])
    def test_lists_of_strings_and_none(self, obj):
        assert report_json(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("obj", [
        [1.5, -2.25, 1e-300] * 85 + [1.5],
        [1.5, 0.0, -0.0] * 85 + [-0.0],
        [0.0, -0.0, 0.0, -0.0] * 64,
        [np.float64(1.5), 1.5, np.float64(-0.0), 0.0] * 64,
        [np.float64(0.1)] * 256,
        [1.0, True], [True, 1.0], [1.0, 1], [1, 1.0], [0.0, False], [2.0, np.float64(2.0)],
        [1.0] * 255 + [True], [2.0] * 255 + [2]])
    def test_lists_of_repeated_floats(self, obj):
        # the writer formats each distinct float once: True, 1, 0.0 and -0.0
        # must still each come out as json writes them
        assert report_json(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("obj", [
        [math.nan], [1.0, -math.inf], {"a": math.inf}, [[1.0, math.nan]],
        [[0.5, 1.0], [math.inf, 2.0]], {"x": [None, np.float64(math.nan)]},
        {math.nan: 1}, {"a": [1, 2.0, -math.inf]}, [1.5, -2.0] * 128 + [math.nan],
        [math.inf] * 256, [np.float64(1.5)] * 255 + [np.float64(-math.inf)]])
    def test_non_finite_number_raises_domain_error(self, obj):
        with pytest.raises(ValueError):
            json.dumps(obj, indent=2, allow_nan=False)
        with pytest.raises(DomainError, match="non-finite number"):
            report_json(obj)

    @pytest.mark.parametrize("obj", [{"x": np.int64(3)}, [np.bool_(True)], {(1, 2): 0}])
    def test_unknown_types_are_refused_as_json_refuses_them(self, obj):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2, allow_nan=False)
        with pytest.raises(TypeError) as got:
            report_json(obj)
        assert str(got.value) == str(want.value)

    def test_run_invariance_refuses_a_non_finite_report(self, tmp_path, capsys, monkeypatch):
        mod = load_script("run_invariance")
        with pytest.raises(DomainError):
            mod.write(tmp_path / "x.json", {"x": math.nan})
        assert not (tmp_path / "x.json").exists()
        monkeypatch.setattr(mod, "STEINER_FAMILIES", ())
        monkeypatch.setattr(mod, "BOUNDARY_FAMILIES", ())
        monkeypatch.setattr(mod, "identity_suite", lambda e, n: [
            IdentityCheck("nan", math.nan, 0.0, math.nan, 1e-8, False)])
        rc = mod.main(["--outdir", str(tmp_path / "out"), "--quick"])
        assert rc == 1
        assert capsys.readouterr().err == "error: report holds a non-finite number (nan)\n"
        assert not (tmp_path / "out" / "identities.json").exists()
        assert not (tmp_path / "out" / "conjecture.json").exists()
