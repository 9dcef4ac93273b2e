"""The benchmark's workloads, built from a seed.

All use the ellipse a=2, b=1.  The seed picks locus phases, radii and poles;
pedallab only receives the generated inputs, through its public entry
points: the ``main`` of ``scripts/run_invariance.py``, ``pedallab.cli.main``
and ``find_cusps``.  Why these three:

- ``battery`` is the main user path and mixes every layer: quadrature,
  point evaluators and ``self_intersections`` (one conjecture check).
- ``many_poles`` runs the same layers on small grids with many poles, so
  per-call and per-pole costs outweigh per-sample costs.  Batching scans over
  poles shows here more than on ``battery``; per-sample FFT savings less.
- ``features`` runs only the feature detectors.  It never reaches the
  quadrature or ``scan``, so a quadrature change must leave it unchanged,
  while ``self_intersections`` dominates it.

Each workload has ``run(outdir)``, the timed calls into the program, and
``check(outdir, raw)``, which turns their outputs into one (operation,
failure reason or None) pair per operation.  ``tiny=True`` gives the small
inputs used for warm-up, the set-up probe and the benchmark's tests.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from pedallab import cli, harness  # noqa: E402  (the tracer patches their globals)
from pedallab.curves import Ellipse, ParamGrid, ellipse_point, sample_curve  # noqa: E402
from pedallab.harness import LocusSpec, family_evaluator, family_grid  # noqa: E402
from pedallab.pedal import evolutoid_point, find_cusps  # noqa: E402


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_invariance = _load_script("run_invariance")

E = Ellipse(2.0, 1.0)
TWO_PI = 2.0 * math.pi
# the battery's rotation angle and blend for the Steiner families
THETA, MU = math.pi / 5, 1.0 / 3.0
# evolutoids grow cusps above this angle: none below it, four above
CRITICAL_ANGLE = math.atan2(2 * E.a * E.b, 3 * E.c2)
# the scan and conjecture tolerances the CLI uses by default, passed
# explicitly so that PEDALLAB_TOL in the environment cannot change them
SCAN_TOL, CONJECTURE_TOL = 1e-8, 1e-4
# the features workload's own record of the cusps it found; not a report of the program
CUSPS_FILE = "cusps.json"


def call_cli(argv):
    """pedallab's CLI in-process: its exit code, or the text of what it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


def _load(path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name}: {exc}"


class Battery:
    """run_invariance.py's full battery at its defaults (``--quick`` when
    tiny): 16 circle scans, 3 boundary scans, the identity suite and one
    conjecture check, 21 reports and a summary.  The script has no phase
    flag, so the seeded locus phase is bound into the ``LocusSpec`` it
    constructs."""

    name = "battery"
    writer = "run_invariance"

    def __init__(self, seed, tiny=False):
        self.phase = float(np.random.default_rng(seed).uniform(0.0, TWO_PI))
        self.argv = ["--quick"] if tiny else []
        self.reports = 13 if tiny else 21

    def run(self, outdir):
        saved = run_invariance.LocusSpec
        run_invariance.LocusSpec = functools.partial(LocusSpec, phase=self.phase)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return run_invariance.main(["--outdir", str(outdir), *self.argv])
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
        finally:
            run_invariance.LocusSpec = saved

    def check(self, outdir, rc):
        summary, err = _load(outdir / "summary.json")
        if err:
            return [("battery", checks.check_exit(rc) or err)] * (self.reports + 1)
        outcomes = []
        for entry in summary["reports"]:
            name = entry["name"]
            rep, err = _load(outdir / f"{name}.json")
            if err is None:
                if name == "identities":
                    err = checks.check_identities(rep)
                elif name == "conjecture":
                    err = checks.check_conjecture(rep)
                else:
                    # run_invariance scans boundary loci at tol 1e-6, circles at the default
                    err = checks.check_scan(rep, 1e-6 if name.endswith("_boundary") else SCAN_TOL)
            if err is None and entry["passed"] is not True:
                err = "summary marks the report failed"
            outcomes.append((name, err))
        err = checks.check_exit(rc)
        if err is None and len(outcomes) != self.reports:
            err = f"{len(outcomes)} reports, expected {self.reports}"
        if err is None and summary["passed"] is not True:
            err = "summary not passed"
        outcomes.append(("summary", err))
        return outcomes


class ManyPoles:
    """CLI ``scan --output`` on all seven pole families: small grids, many poles.
    Circle radii of the four Steiner families are drawn from 0.1-3; the three
    boundary families scan the ellipse.  Every locus phase is drawn."""

    name = "many_poles"
    writer = "cli"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        n, count = (64, 8) if tiny else (256, 256)
        common = ["--count", str(count), "--n", str(n), f"--tol={SCAN_TOL!r}"]
        self.scans = []
        for fam in run_invariance.STEINER_FAMILIES:
            r, phase = rng.uniform(0.1, 3.0), rng.uniform(0.0, TWO_PI)
            self.scans.append((f"{fam}_circle", [
                "scan", "--family", fam, "--locus", "circle", f"--r={r!r}",
                f"--phase={phase!r}", f"--theta={THETA!r}", f"--mu={MU!r}", *common]))
        for fam in run_invariance.BOUNDARY_FAMILIES:
            phase = rng.uniform(0.0, TWO_PI)
            self.scans.append((f"{fam}_boundary", [
                "scan", "--family", fam, "--locus", "boundary", f"--phase={phase!r}", *common]))

    def run(self, outdir):
        return [call_cli([*argv, "--output", str(outdir / f"{tag}.json")])
                for tag, argv in self.scans]

    def check(self, outdir, rcs):
        outcomes = []
        for (tag, _), rc in zip(self.scans, rcs):
            err = checks.check_exit(rc)
            if err is None:
                rep, err = _load(outdir / f"{tag}.json")
            if err is None:
                err = checks.check_scan(rep, SCAN_TOL)
            outcomes.append((tag, err))
        return outcomes


class Features:
    """The feature detectors alone: CLI ``conjecture`` on random interior
    poles, and ``find_cusps`` on evolutoids below and above the critical angle
    and on negative pedals of boundary poles."""

    name = "features"
    writer = "cli"

    def __init__(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        self.n = 256 if tiny else 2048
        k = 1 if tiny else 3
        self.poles = []
        while len(self.poles) < k:
            x, y = rng.uniform(-E.a, E.a), rng.uniform(-E.b, E.b)
            # the CLI's own rule for random poles: interior with margin, off the axes
            if E.implicit((x, y)) <= 0.92 and abs(x) > 0.05 * E.a and abs(y) > 0.05 * E.b:
                self.poles.append((float(x), float(y)))
        # the acceptance battery's margins about the critical angle: 0.9 below, 1.2 above
        below = rng.uniform(0.2, 0.9, k) * CRITICAL_ANGLE
        above = rng.uniform(1.2 * CRITICAL_ANGLE, math.pi / 2, k)
        self.thetas = [(float(th), 0) for th in below] + [(float(th), 4) for th in above]
        self.boundary = [float(s) for s in rng.uniform(0.0, TWO_PI, k)]

    def run(self, outdir):
        conj = [call_cli(["conjecture", f"--m={x!r},{y!r}", "--n", str(self.n),
                          f"--tol={CONJECTURE_TOL!r}",
                          "--output", str(outdir / f"conjecture_{i}.json")])
                for i, (x, y) in enumerate(self.poles)]
        cusps = []
        for theta, _ in self.thetas:
            cusps.append(_cusps(lambda t, th=theta: evolutoid_point(E, th, t), ParamGrid(self.n)))
        for s in self.boundary:
            m = tuple(float(v) for v in ellipse_point(E, s))
            ev = family_evaluator(E, "negative_pedal", m, s=s)
            cusps.append(_cusps(ev, family_grid("negative_pedal", self.n, s)))
        return conj, cusps

    def check(self, outdir, raw):
        conj, cusps = raw
        outcomes = []
        for i, rc in enumerate(conj):
            err = checks.check_exit(rc)
            if err is None:
                out, err = _load(outdir / f"conjecture_{i}.json")
            if err is None:
                err = (checks.check_conjecture(out["reports"][0])
                       or (None if out["passed"] is True else "report not passed"))
            outcomes.append((f"conjecture_{i}", err))
        cases = ([(f"evolutoid_{th:.6f}", want) for th, want in self.thetas]
                 + [(f"negative_pedal_s{s:.6f}", 3) for s in self.boundary])
        for (tag, want), found in zip(cases, cusps):
            outcomes.append((tag, checks.check_cusps(found, want)))
        # the cusp parameters join the report files in the byte-identity checks
        (outdir / CUSPS_FILE).write_text(json.dumps(
            {tag: found if isinstance(found, str) else [float(x) for x in found]
             for (tag, _), found in zip(cases, cusps)}, indent=2) + "\n")
        return outcomes


def _cusps(evaluator, grid):
    try:
        return find_cusps(sample_curve(evaluator, grid))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


WORKLOADS = {w.name: w for w in (Battery, ManyPoles, Features)}


def warm_up(name, seed, outdir):
    """One tiny run of the workload, after which imports and lazy set-up are
    done; returns its (operation, failure reason or None) outcomes."""
    w = WORKLOADS[name](seed, tiny=True)
    outdir.mkdir(parents=True, exist_ok=True)
    return [(f"warm-up {op}", err) for op, err in w.check(outdir, w.run(outdir))]
