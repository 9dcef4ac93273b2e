#!/usr/bin/env python3
"""pedallab benchmark runner.

    python3 bench/run.py --workload battery --seed 0 --seconds 25 --trace 0

Runs one workload (``battery``, ``many_poles`` or ``features``, see
``workloads.py``) from the checkout's ``src/`` and ``scripts/`` in this one
process, repeating its fixed list of operations for ``--seconds``, and
checks every output.  ``--workload all`` runs each workload in its own
process, so no workload inherits another's memory high-water mark, and
prints one table.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over several fresh interpreters of the time to import
               pedallab and finish a tiny warm-up run (probe.py)
  wall_ref     median over passes of the pass's wall time divided by the
               time of the fixed reference computation run next to it
               (reference.py), which cancels the host's changing speed; the
               raw median pass time is printed and stored as wall_s
  peak_rss_mb  peak resident memory of a fresh process that imports pedallab
               and makes one pass over the workload (probe.py --pass)
  pass_ratio   operations that passed / operations attempted
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes), the tracing overhead (median
excess of a traced pass over the untraced pass before it, in reference
units, times the untraced median), and
whether traced and untraced report files are byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance, goes to ``--results`` (default ``.bench_out/results``);
the spans of a traced run go to ``.bench_out/trace``.  ``compare.py``
compares two result directories.
"""

import os

# One process generates the load; BLAS/OpenMP pools are pinned to a single
# thread (at most the core count) before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import tracing  # noqa: E402
from reference import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
NEEDED = (ROOT / "src" / "pedallab" / "__init__.py", ROOT / "scripts" / "run_invariance.py")
WORKLOADS = ("battery", "many_poles", "features")
SETUP_PROBES = 11


@dataclass
class Pass:
    """One pass over a workload's operations."""

    wall: float
    ref: float  # mean time of the reference computation before and after the pass
    outcomes: list
    digest: str
    report_bytes: int
    spans: list = field(default_factory=list)
    traced: bool = False


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(outdir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_passes(w, outdir: Path, seconds: float, tracer=None):
    """Passes over the workload until ``seconds`` have gone by, at least one,
    with the reference computation timed before the first and after each.
    With a tracer every second pass is traced, so that traced and untraced
    passes see the same host."""
    import workloads  # imports pedallab, so only once the checkout is known to hold it

    passes = []
    deadline = time.perf_counter() + seconds
    ref_before = timed(reference)
    while len(passes) < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(
                callers=(workloads.harness, workloads.cli, workloads.run_invariance, workloads),
                entries=((workloads.cli, "main", "cli.main"),
                         (workloads.run_invariance, "main", "run_invariance")))
        try:
            t0 = time.perf_counter()
            raw = w.run(outdir)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        ref_after = timed(reference)
        outcomes = w.check(outdir, raw)
        written = sum(p.stat().st_size for p in outdir.iterdir() if p.name != workloads.CUSPS_FILE)
        passes.append(Pass(wall, (ref_before + ref_after) / 2, outcomes, digest(outdir), written,
                           list(tracer.spans) if traced else [], traced))
        ref_before = ref_after
    return passes


def probe(name: str, seed: int, *flags):
    """Run probe.py in a fresh process: (seconds from start to exit, stdout, failure or None)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), name, str(seed), *flags],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - t0
    failure = None if proc.returncode == 0 else (proc.stderr.strip()[-400:] or f"exit {proc.returncode}")
    return seconds, proc.stdout, failure


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown: git failed"


def provenance(name: str, seed: int, trace: int) -> dict:
    import numpy
    import pedallab

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pedallab": pedallab.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its full result (see the module docstring)."""
    import workloads

    w = workloads.WORKLOADS[name](seed, tiny)
    OUT.mkdir(exist_ok=True)
    setups, failures, peak_rss_mb = [], [], 0.0
    if not trace:
        for i in range(probes):
            seconds_i, _, failure = probe(name, seed)
            setups.append(seconds_i)
            if failure:
                failures.append((f"setup probe {i}", failure))
        _, out, failure = probe(name, seed, "--pass")
        if failure:
            failures.append(("memory probe", failure))
        else:
            peak_rss_mb = float(out.split()[-1])
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        tmp = Path(tmp)
        warm = workloads.warm_up(name, seed, tmp / "warm-up")
        passes = run_passes(w, tmp / "out", seconds, tracing.Tracer() if trace else None)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    outcomes = warm + [o for p in passes for o in p.outcomes]
    # each probe is one operation more
    attempted = len(outcomes) + (len(setups) + 1 if not trace else 0)
    failures += [(op, err) for op, err in outcomes if err]
    # every pass, traced or not, must write byte-identical reports
    identical = len({p.digest for p in passes}) == 1
    wall = median(p.wall for p in plain)
    result = {
        "provenance": provenance(name, seed, int(trace)),
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"{op}: {err}" for op, err in failures],
        "byte_identical": identical,
        "correct": not failures and identical,
        "wall_s": wall,
        "passes": {"wall_s": [p.wall for p in plain], "ref_s": [p.ref for p in plain],
                   "setup_s": setups},
    }
    if not trace:
        values = {"setup_s": median(setups),
                  "wall_ref": median(p.wall / p.ref for p in plain),
                  "peak_rss_mb": peak_rss_mb,
                  "pass_ratio": (attempted - len(failures)) / attempted}
        kind = "end_to_end"
    else:
        per_pass = []
        for p in traced:
            m = tracing.layer_metrics(p.spans, p.wall)
            m["cli.report_bytes"] = p.report_bytes if w.writer == "cli" else 0
            m["run_invariance.report_bytes"] = p.report_bytes if w.writer == "run_invariance" else 0
            m["trace.wall_s"] = p.wall
            per_pass.append(m)
        values = tracing.median_metrics(per_pass)
        values["trace.untraced_wall_s"] = wall
        # each traced pass against the untraced pass just before it, both in
        # reference units, so that the host's changing speed cancels
        values["trace.overhead_s"] = wall * median(
            (t.wall / t.ref) / (p.wall / p.ref) - 1.0 for p, t in zip(plain, traced))
        first = traced[0]
        result["passes"]["traced_wall_s"] = [p.wall for p in traced]
        result["self_time_shares"] = tracing.self_time_shares(first.spans, first.wall)
        result["accounting"] = {
            "traced_wall_s": first.wall,
            "layer_self_s": sum(tracing.self_times(first.spans)),
            "bench_self_s": per_pass[0]["bench.self_s"]}
        result["pole_errors_by_class"] = tracing.pole_errors_by_class(first.spans)
        result["spans_file"] = write_spans(name, seed, [p.spans for p in traced])
        kind = "per_layer"
    result["metrics"] = {metric: {"value": values[metric], "unit": unit}
                         for metric, unit in declared_metrics()[kind]}
    return result


def write_spans(name, seed, spans_by_pass) -> str:
    path = OUT / "trace" / f"{name}-seed{seed}-{time.time_ns()}.spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(path, spans_by_pass)
    return str(path.relative_to(ROOT))


def report(result: dict) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    prov = result["provenance"]
    print(f"workload={prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"pedallab={prov['pedallab']} commit={prov['commit']}")
    for line in result["failures"][:10]:
        print(f"FAILED {line}")
    print(f"fail_ratio={result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']}) byte_identical={result['byte_identical']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s (raw median pass)':34s} {result['wall_s']:.6g} s; "
          f"reference {median(result['passes']['ref_s']):.6g} s")
    if "self_time_shares" in result:
        shares = result["self_time_shares"]
        top = list(shares)[:2]
        print(f"dominant layer by self time: {top[0]} ({shares[top[0]]:.1%} of traced wall); "
              f"with {top[-1]}: {sum(shares[k] for k in top):.1%}")
        for layer, share in shares.items():
            print(f"  {layer:34s} {share:.1%}")
        acc = result["accounting"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"first traced pass: layer self times {acc['layer_self_s']:.4f} s + bench.self_s "
              f"{acc['bench_self_s']:.4f} s = traced wall_s {acc['traced_wall_s']:.4f} s")
        print(f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass (median over "
              f"adjacent pairs); traced wall_s {values['trace.wall_s']:.4f} s, untraced "
              f"{values['trace.untraced_wall_s']:.4f} s (medians)")
        if result["pole_errors_by_class"]:
            print(f"scan pole errors by class: {result['pole_errors_by_class']}")
        print(f"spans: {result['spans_file']}")


def run_all(args) -> int:
    """Each workload in its own process, then one table of the metrics with units."""
    rows, rc = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--results", str(args.results)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        if proc.returncode == 0:
            path = next(line.split(" ", 1)[1] for line in proc.stdout.splitlines()
                        if line.startswith("result: "))
            rows.append((name, json.loads(Path(path).read_text())))
    if not rows:
        return rc or 1
    table = [(f"{metric} [{m['unit']}]", [res["metrics"][metric]["value"] for _, res in rows])
             for metric, m in rows[0][1]["metrics"].items()]
    table.append(("wall_s (raw) [s]", [res["wall_s"] for _, res in rows]))
    table.append(("fail_ratio [1]", [res["failed"] / res["attempted"] for _, res in rows]))
    print()
    print(f"{'metric':36s}" + "".join(f"{name:>14s}" for name, _ in rows))
    for label, values in table:
        print(f"{label:36s}" + "".join(f"{v:>14.6g}" for v in values))
    print(f"{'correct':36s}" + "".join(f"{str(res['correct']):>14s}" for _, res in rows))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pedallab benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=OUT / "results",
                    help="directory for the full result files (compare.py reads them)")
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a pedallab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    args.results.mkdir(parents=True, exist_ok=True)
    path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(f"result: {path.resolve()}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
