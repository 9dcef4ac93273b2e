"""In-memory span tracer for the benchmark's traced run.

The tracer wraps pedallab's public functions under the global names their
callers look them up by: the module globals of ``harness``, ``cli``, the
battery script and the benchmark's own workloads.  ``harness`` and ``cli``
import their callees by name, and the lambdas built by ``family_evaluator``
resolve the point evaluators in ``harness``'s globals at call time, so
patching only the defining modules would miss them.  Wrapping at the caller
level also keeps nested calls inside one module, such as
``interpolated_pedal_point`` calling ``pedal_point``, from being counted
twice.  Nothing under ``src/`` or ``scripts/`` is edited.

Each wrapped call records one span: layer name, start, end, parent span,
operation id (a new id for every span opened with no span open), the class
of an exception that left it, and a layer-specific count.  Spans stay in
memory; ``run.py`` writes them to a sidecar file at the end.
"""

from __future__ import annotations

import json
from collections import Counter
from statistics import median
from time import perf_counter

import numpy as np

# index of the parameter argument of each point evaluator
EVALUATOR_PARAM = {
    "pedal_point": 1,
    "contrapedal_point": 1,
    "rotated_pedal_point": 1,
    "interpolated_pedal_point": 1,
    "hybrid_point": 1,
    "negative_pedal_point": 1,
    "pseudo_talbot_point": 2,
    "evolutoid_point": 2,
}


def _evaluator_count(i):
    def count(args, out):
        t = args[i]
        return (int(np.size(t)), np.ndim(t) == 0)
    return count


def _scan_count(args, out):
    return (out.locus["count"],
            sum(a is not None for a in out.areas),
            sum(err is not None for err in out.errors))


# global name -> (layer, count(args, result) or None)
LAYERS = {
    "sample_curve": ("curves.sample_curve", lambda args, out: len(out)),
    "signed_area_quadrature": ("areas.quadrature", lambda args, out: len(args[0])),
    "closed_form_area": ("areas.closed_form", None),
    "self_intersections": ("pedal.self_intersections", lambda args, out: len(out)),
    "find_cusps": ("pedal.find_cusps", lambda args, out: len(out)),
    "scan": ("harness.scan", _scan_count),
    "identity_suite": ("harness.identity_suite", None),
    "conjecture_check_contrapedal": ("harness.conjecture", None),
    **{name: ("pedal.eval", _evaluator_count(i)) for name, i in EVALUATOR_PARAM.items()},
}

# span record fields
NAME, START, END, PARENT, OP, ERROR, COUNT = range(7)


class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ops = 0
        self._saved = []

    def wrap(self, layer, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._ops += 1
            rec = [layer, 0.0, 0.0, parent, self._ops, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[ERROR] = type(exc).__name__
                raise
            else:
                rec[END] = perf_counter()
                if count is not None:
                    rec[COUNT] = count(args, out)
                return out
            finally:
                stack.pop()

        return traced

    def patch(self, module, name, layer, count=None):
        fn = getattr(module, name)
        self._saved.append((module, name, fn))
        setattr(module, name, self.wrap(layer, fn, count))

    def install(self, callers, entries=()):
        """Wrap every LAYERS name found in the callers' globals, plus the
        (module, name, layer) entry points the benchmark itself calls."""
        for module in callers:
            for name, (layer, count) in LAYERS.items():
                if callable(getattr(module, name, None)):
                    self.patch(module, name, layer, count)
        for module, name, layer in entries:
            self.patch(module, name, layer)

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def reset(self):
        self.spans.clear()
        self._ops = 0


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Calls run on one thread, so children never overlap and the sum of their
    durations is the part of the parent's interval they cover.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


def layer_metrics(spans, wall):
    """Per-layer counters and times of one traced run of a workload.

    ``wall`` is the traced wall time of the run; ``bench.self_s`` is the part
    of it outside every span (loop glue in the benchmark's own code), so the
    layers' self times plus ``bench.self_s`` add up to ``wall``.
    """
    selfs = self_times(spans)
    calls = Counter()
    total = Counter()
    own = Counter()
    for rec, st in zip(spans, selfs):
        calls[rec[NAME]] += 1
        total[rec[NAME]] += rec[END] - rec[START]
        own[rec[NAME]] += st

    def summed(layer, pick):
        return sum(pick(rec[COUNT]) for rec in spans if rec[NAME] == layer and rec[COUNT] is not None)

    # quadratures issued by scans, per area a scan certified
    in_scan = [False] * len(spans)
    quad_in_scan = 0
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        in_scan[i] = p >= 0 and (spans[p][NAME] == "harness.scan" or in_scan[p])
        if rec[NAME] == "areas.quadrature" and in_scan[i]:
            quad_in_scan += 1
    poles = summed("harness.scan", lambda c: c[0])
    certified = summed("harness.scan", lambda c: c[1])
    roots = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0)

    return {
        "curves.sample_curve.calls": calls["curves.sample_curve"],
        "curves.sample_curve.points": summed("curves.sample_curve", lambda c: c),
        "curves.sample_curve.self_s": own["curves.sample_curve"],
        "pedal.eval.calls": calls["pedal.eval"],
        "pedal.eval.points": summed("pedal.eval", lambda c: c[0]),
        "pedal.eval.scalar_calls": summed("pedal.eval", lambda c: int(c[1])),
        "pedal.eval.s": total["pedal.eval"],
        "pedal.self_intersections.calls": calls["pedal.self_intersections"],
        "pedal.self_intersections.s": total["pedal.self_intersections"],
        "pedal.self_intersections.self_s": own["pedal.self_intersections"],
        "pedal.self_intersections.hits": summed("pedal.self_intersections", lambda c: c),
        "pedal.find_cusps.calls": calls["pedal.find_cusps"],
        "pedal.find_cusps.s": total["pedal.find_cusps"],
        "pedal.find_cusps.self_s": own["pedal.find_cusps"],
        "pedal.find_cusps.cusps": summed("pedal.find_cusps", lambda c: c),
        "areas.quadrature.calls": calls["areas.quadrature"],
        "areas.quadrature.points": summed("areas.quadrature", lambda c: c),
        "areas.quadrature.s": total["areas.quadrature"],
        "areas.closed_form.calls": calls["areas.closed_form"],
        "areas.closed_form.s": total["areas.closed_form"],
        "harness.scan.calls": calls["harness.scan"],
        "harness.scan.poles": poles,
        "harness.scan.self_s": own["harness.scan"],
        "harness.scan.per_pole_ms": 1e3 * total["harness.scan"] / poles if poles else 0.0,
        "harness.scan.quad_per_area": quad_in_scan / certified if certified else 0.0,
        "harness.scan.pole_errors": summed("harness.scan", lambda c: c[2]),
        "harness.identity_suite.s": total["harness.identity_suite"],
        "harness.identity_suite.self_s": own["harness.identity_suite"],
        "harness.conjecture.calls": calls["harness.conjecture"],
        "harness.conjecture.self_s": own["harness.conjecture"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": own["cli.main"],
        "run_invariance.self_s": own["run_invariance"],
        "bench.self_s": wall - roots,
        "trace.spans": len(spans),
    }


def pole_errors_by_class(spans):
    """Failed scan poles by exception class.

    A pole fails in ``scan`` either because its sampling or quadrature
    raised (the class of that exception) or because its two quadratures
    disagreed, which ``scan`` itself reports as a ``DomainError``.
    """
    by_class, raised = Counter(), Counter()
    for rec in spans:
        p = rec[PARENT]
        if (rec[ERROR] and rec[NAME] in ("curves.sample_curve", "areas.quadrature")
                and p >= 0 and spans[p][NAME] == "harness.scan"):
            by_class[rec[ERROR]] += 1
            raised[p] += 1
    for i, rec in enumerate(spans):
        if rec[NAME] == "harness.scan" and rec[COUNT] is not None:
            by_class["DomainError"] += rec[COUNT][2] - raised[i]
    return {k: v for k, v in by_class.items() if v}


def self_time_shares(spans, wall):
    """Share of the traced wall time spent in each layer's own code, largest first."""
    own = Counter()
    for rec, st in zip(spans, self_times(spans)):
        own[rec[NAME]] += st
    return {layer: t / wall for layer, t in own.most_common()}


def median_metrics(runs):
    """Median of each metric over several traced runs (counts repeat exactly)."""
    return {k: median(r[k] for r in runs) for k in runs[0]}


def write_spans(path, spans_by_rep):
    """One JSON object per line: rep, span index, name, start, end, parent, op, error."""
    with open(path, "w") as fh:
        for rep, spans in enumerate(spans_by_rep):
            t0 = spans[0][START] if spans else 0.0
            for i, rec in enumerate(spans):
                fh.write(json.dumps({
                    "rep": rep, "id": i, "name": rec[NAME],
                    "start": rec[START] - t0, "end": rec[END] - t0,
                    "parent": rec[PARENT], "op": rec[OP], "error": rec[ERROR],
                }) + "\n")
