"""Tests of the benchmark itself: tiny workloads, layer counters, the
byte-identity self-check and the compare verdicts.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pedallab import cli, harness  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_every_check(name, tmp_path):
    w = workloads.WORKLOADS[name](seed=3, tiny=True)
    outcomes = w.check(tmp_path, w.run(tmp_path))
    assert outcomes
    assert [(op, err) for op, err in outcomes if err] == []


def test_seed_sets_inputs():
    assert workloads.Features(5).poles == workloads.Features(5).poles
    assert workloads.Features(5).poles != workloads.Features(6).poles
    assert workloads.ManyPoles(1).scans == workloads.ManyPoles(1).scans
    assert workloads.Battery(1).phase != workloads.Battery(2).phase


def test_failed_check_counts_instead_of_aborting(tmp_path):
    w = workloads.ManyPoles(seed=0, tiny=True)
    rcs = w.run(tmp_path)
    rep = json.loads((tmp_path / "pedal_circle.json").read_text())
    rep["areas"][0] *= 1.0 + 1e-6
    (tmp_path / "pedal_circle.json").write_text(json.dumps(rep))
    outcomes = dict(w.check(tmp_path, rcs))
    assert "closed form" in outcomes["pedal_circle"]
    assert sum(err is not None for err in outcomes.values()) == 1


def traced_scan(count, n=64):
    tracer = tracing.Tracer()
    tracer.install(callers=(harness, cli), entries=((cli, "main", "cli.main"),))
    try:
        rc = workloads.call_cli(["scan", "--family", "pedal", "--locus", "circle",
                                 "--count", str(count), "--n", str(n)])
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer.spans


def test_layer_counters_of_one_scan():
    poles, n = 5, 64
    spans = traced_scan(poles, n)
    m = tracing.layer_metrics(spans, wall=1.0)
    assert m["harness.scan.calls"] == 1
    assert m["harness.scan.poles"] == poles
    assert m["harness.scan.quad_per_area"] == 2.0
    assert m["areas.quadrature.calls"] == 2 * poles
    assert m["areas.quadrature.points"] == 3 * n * poles
    assert m["curves.sample_curve.calls"] == 2 * poles
    assert m["pedal.eval.calls"] == 2 * poles
    assert m["pedal.eval.points"] == 3 * n * poles
    assert m["pedal.eval.scalar_calls"] == 0
    assert m["areas.closed_form.calls"] == poles
    assert m["cli.main.calls"] == 1
    assert m["harness.scan.pole_errors"] == 0
    assert tracing.pole_errors_by_class(spans) == {}


def test_spans_nest_and_self_times_add_up():
    spans = traced_scan(3)
    assert spans[0][tracing.NAME] == "cli.main" and spans[0][tracing.PARENT] == -1
    assert all(rec[tracing.OP] == 1 for rec in spans)
    for rec in spans[1:]:
        parent = spans[rec[tracing.PARENT]]
        assert parent[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= parent[tracing.END]
    root = spans[0][tracing.END] - spans[0][tracing.START]
    assert math.isclose(sum(tracing.self_times(spans)), root, rel_tol=1e-9)


def test_pole_errors_by_class():
    spans = [
        # four poles, two certified, two failed
        ["harness.scan", 0.0, 1.0, -1, 1, None, (4, 2, 2)],
        ["curves.sample_curve", 0.1, 0.2, 0, 1, "EvaluationError", None],
        # a boundary-only closed form refusing an interior pole is no pole error
        ["areas.closed_form", 0.2, 0.3, 0, 1, "DomainError", None],
    ]
    assert tracing.pole_errors_by_class(spans) == {"EvaluationError": 1, "DomainError": 1}


def test_uninstall_restores_the_program():
    before = (harness.sample_curve, harness.pedal_point, cli.scan, cli.main)
    traced_scan(2)
    assert (harness.sample_curve, harness.pedal_point, cli.scan, cli.main) == before


def test_nested_evaluator_calls_count_once():
    # interpolated_pedal_point calls pedal_point inside pedal; only the
    # caller-level lookup in harness is wrapped
    tracer = tracing.Tracer()
    tracer.install(callers=(harness,))
    try:
        ev = harness.family_evaluator(workloads.E, "interpolated", (0.3, 0.2), mu=0.25)
        ev(workloads.np.linspace(0.0, 1.0, 10))
    finally:
        tracer.uninstall()
    assert [rec[tracing.NAME] for rec in tracer.spans] == ["pedal.eval"]
    assert tracer.spans[0][tracing.COUNT] == (10, False)


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_the_declared_metrics(trace):
    result = run.measure("battery", seed=1, seconds=0.0, trace=trace, tiny=True, probes=1)
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 14
    assert result["byte_identical"] is True
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["harness.scan.quad_per_area"] == 2.0
        assert values["harness.scan.calls"] == 11
        assert values["run_invariance.report_bytes"] > 0
        assert "areas.quadrature" in result["self_time_shares"]
        acc = result["accounting"]
        assert math.isclose(acc["layer_self_s"] + acc["bench_self_s"], acc["traced_wall_s"],
                            rel_tol=1e-9)
        assert (BENCH.parent / result["spans_file"]).exists()
    else:
        assert values["pass_ratio"] == 1.0
        assert values["setup_s"] > 0 and values["wall_ref"] > 0 and values["peak_rss_mb"] > 0
        assert result["wall_s"] > 0 and len(result["passes"]["ref_s"]) >= 1
        prov = result["provenance"]
        assert prov["seed"] == 1 and prov["threads"]["OMP_NUM_THREADS"] == "1"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "features",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    assert compare.verdict(base, [x * 1.05 for x in base], "lower", 0.1).startswith("within")
    assert compare.verdict(base, [x * 1.3 for x in base], "lower", 0.1).startswith("worse")
    assert compare.verdict(base, [x * 0.7 for x in base], "lower", 0.1).startswith("better")
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6]
    assert compare.verdict(base, noisy, "lower", 0.1).startswith("unresolved")
    assert compare.verdict([1.0] * 4, [0.98] * 4, "higher", 0.001).startswith("worse")
