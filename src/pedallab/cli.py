"""Command line front end.

Subcommands mirror the library layers: ``sample`` dumps curve points,
``area`` compares closed form against quadrature, ``scan`` runs a pole
sweep, ``identities`` runs the area-identity suite, ``centroid`` computes
curvature centroids, ``polygon`` handles the discrete analogue, and
``conjecture`` measures the contrapedal crossing claim.

Exit codes: 0 success, 1 a computation or certification failed, 2 bad
arguments.  Every refusal with exit 2 is argparse's own, printed as
``pedallab <cmd>: error: ...``: a rule about one flag is that flag's type
(``argument --m: ...``), and a rule that relates two flags (a >= b, a
pole on the ellipse for pseudo-Talbot, ``--source support`` for the
ellipse only, and a flag that the chosen locus, source, mode or family
never reads: ``--r`` with ``--locus boundary``, ``--count`` or ``--seed``
with a conjecture ``--m``, ``--m``, ``--s``, ``--theta`` or ``--mu`` with
a family that does not read it (areas.Family's pole and params), and
``--m``, ``--s`` or ``--offset`` with ``--source support``) calls its
subparser's ``error`` before anything is written.
Reports are strict JSON on one line, written by report_json alone: a
non-finite number fails the command instead of being written as NaN or
Infinity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional, Tuple

import numpy as np

from .areas import (
    FAMILIES,
    Polygon,
    closed_form_area,
    curvature_centroid_polygon,
    curvature_centroid_samples,
    curvature_centroid_support,
    doubling_rule,
    pedal_polygon,
    polygon_signed_area,
    settled_area,
)
from .curves import (
    Ellipse,
    ParamGrid,
    SampledCurve,
    ellipse_point,
    ellipse_support,
    pole_on_ellipse,
    sample_curve,
)
from .errors import DomainError, GeometryError, ZeroTotalWeight
from .harness import (
    SCANNABLE,
    LocusSpec,
    conjecture_check_contrapedal,
    family_evaluator,
    identity_suite,
    scan,
)
from .pedal import evolutoid_point

# upper bounds of the grid size and pole count flags
MAX_N = 2 ** 20
MAX_COUNT = 2 ** 16
# the values of --theta and --mu where a family reads one not given, and
# scan's defaults
PARAMS = {"theta": 0.0, "mu": 0.5}


def _checked(kind, ok, want: str):
    """argparse type: kind(raw), refused unless ok(value); want says what it must be."""
    def parse(raw: str):
        val = kind(raw)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"must be {want}, got {raw}")
        return val
    parse.__name__ = kind.__name__  # argparse names the type in its "invalid int value" message
    return parse


GRID = _checked(int, lambda v: 8 <= v <= MAX_N, f"at most {MAX_N} and at least 8")
COUNT = _checked(int, lambda v: 1 <= v <= MAX_COUNT, f"at most {MAX_COUNT} and at least 1")
FINITE = _checked(float, math.isfinite, "finite")
POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
OFFSET = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")


def point(raw: str) -> Tuple[float, float]:
    """'x,y' as a pair of floats; ValueError unless it is two numbers."""
    x, y = map(float, raw.split(","))
    return x, y


def vertices(raw: str) -> np.ndarray:
    """'x1,y1;x2,y2;...' as an array of vertices, one row each."""
    return np.array([point(chunk) for chunk in raw.split(";") if chunk])


POINT = _checked(point, lambda p: all(map(math.isfinite, p)), "finite")
VERTICES = _checked(vertices, lambda v: len(v) >= 3 and np.isfinite(v).all(),
                    "at least 3 finite vertices")


def _first_non_finite(obj, path=frozenset()):
    """The first NaN or infinity of obj in json's order, keys included, or
    None; a list or dict that holds itself is not searched again."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return obj
    if isinstance(obj, (list, tuple, dict)) and id(obj) not in path:
        values = [v for item in obj.items() for v in item] if isinstance(obj, dict) else obj
        found = (_first_non_finite(v, path | {id(obj)}) for v in values)
        return next((bad for bad in found if bad is not None), None)
    return None


def report_json(obj) -> str:
    """Strict JSON text of a report, on one line: json.dumps(obj,
    allow_nan=False, separators=(",", ":")) plus a newline, the one writer
    of every report.  A non-finite number raises DomainError that names it;
    any other ValueError (a list that holds itself) is json's own."""
    try:
        return json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n"
    except ValueError:
        bad = _first_non_finite(obj)
        if bad is None:
            raise
        raise DomainError(f"report holds a non-finite number ({float(bad)!r})") from None


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse(args, flags, context: str) -> None:
    """Exit 2, naming the first of flags on the command line: context never reads them."""
    for flag in flags:
        if getattr(args, flag) is not None:
            args.parser.error(f"argument --{flag}: not allowed with {context}")


def _ellipse(args) -> Ellipse:
    if not args.a >= args.b:
        args.parser.error(f"require semi-axes a >= b > 0, got a={args.a}, b={args.b}")
    return Ellipse(args.a, args.b)


def _resolve_pole(args, e: Ellipse):
    """--m or --s into (pole, boundary parameter or None)."""
    if args.s is None:
        return (0.0, 0.0) if args.m is None else args.m, None
    p = ellipse_point(e, args.s)
    return (float(p[0]), float(p[1])), float(args.s)


def _family_params(args, spec) -> dict:
    """The family parameters that the family spec reads, by name, after
    refusing a pole or a parameter given that it never reads."""
    reads = spec.params + (() if spec.pole == "none" else ("m", "s"))
    _refuse(args, [f for f in ("m", "s", *PARAMS) if f not in reads], f"--family {spec.name}")
    return {n: PARAMS[n] if getattr(args, n) is None else getattr(args, n) for n in spec.params}


def _family_curve(args, e: Ellipse):
    """Evaluator, serializable metadata and n-point grid of the chosen family."""
    fam, spec = args.family, FAMILIES[args.family]
    params = _family_params(args, spec)
    m, s = (None, None) if spec.pole == "none" else _resolve_pole(args, e)
    if s is None and spec.on_ellipse and pole_on_ellipse(e, m):
        # an --m on the ellipse names the same pole as --s at its parameter
        s = math.atan2(m[1] / e.b, m[0] / e.a)
    if spec.pole == "ellipse" and s is None:  # the pole is off the ellipse
        args.parser.error(f"{fam} needs its pole on the ellipse: give --s")
    if spec.frame is None:  # the evolutoid
        ev = lambda t: evolutoid_point(e, params["theta"], t)
    else:
        ev = family_evaluator(e, fam, (0.0, 0.0) if m is None else m, **params)
    if s is not None and spec.on_ellipse:
        # a pole on the ellipse: nodes half a step off its own parameter s
        grid = ParamGrid(count=args.n, start=s, offset=0.5)
    else:
        grid = ParamGrid(count=args.n)
    if args.offset is not None:
        grid = dataclasses.replace(grid, offset=args.offset)
    meta = {
        "family": fam,
        "a": e.a,
        "b": e.b,
        "m": None if m is None else [m[0], m[1]],
        "params": {**params, "s": s, "n": args.n, "offset": grid.offset},
    }
    return ev, meta, grid


# ---------------------------------------------------------------------------
# output formats


def _format_csv(curve: SampledCurve) -> str:
    lines = ["t,x,y"]
    for t, (x, y) in zip(curve.params, curve.points):
        lines.append(f"{t:.17g},{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def _format_json(curve: SampledCurve, meta: dict) -> str:
    obj = {
        "meta": meta,
        "points": [[float(t), float(x), float(y)]
                   for t, (x, y) in zip(curve.params, curve.points)],
    }
    return report_json(obj)


def _format_svg(curve: SampledCurve) -> str:
    x = curve.points[:, 0]
    y = -curve.points[:, 1]  # svg y grows downward
    minx, maxx = float(np.min(x)), float(np.max(x))
    miny, maxy = float(np.min(y)), float(np.max(y))
    w, h = maxx - minx, maxy - miny
    mx = 0.05 * w if w > 0 else 0.5
    my = 0.05 * h if h > 0 else 0.5
    d = "M " + " L ".join(f"{px:.8g} {py:.8g}" for px, py in zip(x, y)) + " Z"
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{minx - mx:.8g} {miny - my:.8g}'
            f' {w + 2 * mx:.8g} {h + 2 * my:.8g}"><path d="{d}" fill="none" stroke="black"'
            f' stroke-width="{0.004 * max(w, h, 1e-9):.6g}" /></svg>\n')


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    e = _ellipse(args)
    ev, meta, grid = _family_curve(args, e)
    curve = sample_curve(ev, grid)
    if args.format == "csv":
        text = _format_csv(curve)
    elif args.format == "json":
        text = _format_json(curve, meta)
    else:
        text = _format_svg(curve)
    _emit(text, args.output)
    return 0


def cmd_area(args) -> int:
    e = _ellipse(args)
    ev, meta, grid = _family_curve(args, e)
    # one sample at 2n: the n grid is its even nodes, or its odd nodes,
    # rolled onto the even ones (ParamGrid), and doubling_rule gives both areas
    odd = int(2 * grid.offset >= 1.0)
    fine = sample_curve(ev, ParamGrid(2 * grid.count, grid.start, 2 * grid.offset - odd))
    quad, quad2 = doubling_rule(fine.params)(np.roll(fine.points, -odd, axis=0)).tolist()
    try:
        # the ellipse and the evolutoid have no pole, and their closed forms take none
        closed = closed_form_area(args.family, e, m=meta["m"] or (0.0, 0.0),
                                  **_family_params(args, FAMILIES[args.family]))
    except DomainError:
        closed = None
    out = dict(meta)
    out["closed"] = closed
    out["quadrature"] = quad
    out["doubling_gap"] = abs(quad - quad2)
    _emit(report_json(out), args.output)
    settled_area(quad, quad2)  # after the report: an unsettled area still exits 1
    return 0


def cmd_scan(args) -> int:
    e = _ellipse(args)
    if args.locus == "boundary":
        _refuse(args, ["r"], "--locus boundary")
    locus = LocusSpec(kind=args.locus, r=1.0 if args.r is None else args.r,
                      count=args.count, phase=args.phase)
    report = scan(e, args.family, locus, n=args.n, theta=args.theta, mu=args.mu, tol=args.tol)
    text = report_json(report.to_dict())
    if args.output:
        _emit(text, args.output)
    dev = None if report.max_rel_dev is None else f"{report.max_rel_dev:.3e}"
    summary = (f"scan family={report.family} locus={args.locus} count={args.count} "
               f"mean={report.mean!r} max_rel_dev={dev} passed={report.passed}")
    print(summary)
    return 0 if report.passed else 1


def cmd_identities(args) -> int:
    e = _ellipse(args)
    checks = identity_suite(e, args.m, n=args.n, tol=args.tol)
    if args.format == "json":
        text = report_json([c.to_dict() for c in checks])
    else:
        rows = [f"{c.name:38s} residual={c.residual:.3e} tol={c.tol:.1e} "
                f"{'PASS' if c.passed else 'FAIL'}" for c in checks]
        text = "\n".join(rows) + "\n"
    _emit(text, args.output)
    return 0 if all(c.passed for c in checks) else 1


def cmd_centroid(args) -> int:
    e = _ellipse(args)
    if args.source == "support":
        if args.family != "ellipse":
            args.parser.error("--source support is defined for the ellipse family only")
        _refuse(args, ["m", "s", "offset"], "--source support")
        _family_params(args, FAMILIES["ellipse"])  # refuses --theta and --mu
        k = curvature_centroid_support(ellipse_support(e), n=args.n)
        meta = {"family": "ellipse", "a": e.a, "b": e.b, "source": "support"}
    else:
        ev, meta, grid = _family_curve(args, e)
        meta["source"] = "samples"
        k = curvature_centroid_samples(sample_curve(ev, grid))
    out = dict(meta)
    out["kx"] = k.x
    out["ky"] = k.y
    _emit(report_json(out), args.output)
    return 0


def cmd_polygon(args) -> int:
    poly = Polygon(args.vertices)
    m = args.m
    area = polygon_signed_area(poly)
    try:
        k = curvature_centroid_polygon(poly)
        centroid = [k.x, k.y]
        centroid_error = None
    except ZeroTotalWeight as exc:
        centroid = None
        centroid_error = str(exc)
    ped = pedal_polygon(poly, m)
    out = {
        "vertices": [[float(x), float(y)] for x, y in poly.vertices],
        "signed_area": area,
        "centroid": centroid,
        "centroid_error": centroid_error,
        "pole": [m[0], m[1]],
        "pedal_vertices": [[float(x), float(y)] for x, y in ped.vertices],
        "pedal_signed_area": polygon_signed_area(ped),
    }
    _emit(report_json(out), args.output)
    return 0


def cmd_conjecture(args) -> int:
    e = _ellipse(args)
    if args.m is not None:
        _refuse(args, ["count", "seed"], "argument --m")
        poles = [args.m]
    else:
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        poles = []
        while len(poles) < (10 if args.count is None else args.count):
            x = rng.uniform(-e.a, e.a)
            y = rng.uniform(-e.b, e.b)
            # interior with margin; off the axes so crossings stay transversal
            if e.implicit((x, y)) <= 0.92 and abs(x) > 0.05 * e.a and abs(y) > 0.05 * e.b:
                poles.append((float(x), float(y)))
    reports = [conjecture_check_contrapedal(e, m, n=args.n, tol=args.tol) for m in poles]
    ok = all(r.passed for r in reports)
    out = {"a": e.a, "b": e.b, "tol": args.tol, "passed": ok,
           "reports": [r.to_dict() for r in reports]}
    _emit(report_json(out), args.output)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_ellipse(p):
    p.add_argument("--a", type=POSITIVE, default=2.0, help="semi-major axis (default 2)")
    p.add_argument("--b", type=POSITIVE, default=1.0, help="semi-minor axis (default 1)")


def _add_pole(p):
    pole = p.add_mutually_exclusive_group()
    pole.add_argument("--m", type=POINT, default=None, help="pole as 'x,y' (excludes --s)")
    pole.add_argument("--s", type=FINITE, default=None,
                      help="pole on the ellipse at parameter s (excludes --m)")


def _add_family(p, choices):
    # a default of None marks a parameter not given, for _family_params
    p.add_argument("--family", choices=choices, default="pedal")
    p.add_argument("--theta", type=FINITE, default=None,
                   help="line rotation / tangent crossing angle (default 0)")
    p.add_argument("--mu", type=FINITE, default=None,
                   help="pedal-contrapedal blend (default 0.5)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="pedallab",
        description="Numerical laboratory for pedal-type curves of an ellipse.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump curve samples as csv, json or svg")
    _add_ellipse(p)
    _add_pole(p)
    _add_family(p, list(FAMILIES))
    p.add_argument("--n", type=GRID, default=512, help="number of samples")
    p.add_argument("--offset", type=OFFSET, default=None,
                   help="fractional grid offset in [0, 1)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_sample, parser=p)

    p = sub.add_parser("area", help="closed-form vs quadrature signed area")
    _add_ellipse(p)
    _add_pole(p)
    _add_family(p, list(FAMILIES))
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--offset", type=OFFSET, default=None)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_area, parser=p)

    p = sub.add_parser("scan", help="area invariance over a pole locus")
    _add_ellipse(p)
    _add_family(p, list(SCANNABLE))
    p.add_argument("--locus", choices=("circle", "boundary"), required=True)
    p.add_argument("--r", type=POSITIVE, default=None, help="circle locus radius")
    p.add_argument("--count", type=COUNT, default=64, help="poles on the locus")
    p.add_argument("--phase", type=FINITE, default=0.0, help="locus angular offset")
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-8)
    p.add_argument("--output", type=str, default=None, help="write the full JSON report")
    # scan reads --theta and --mu whatever the family (ROADMAP item 24)
    p.set_defaults(func=cmd_scan, parser=p, **PARAMS)

    p = sub.add_parser("identities", help="pedal-family area identity suite")
    _add_ellipse(p)
    p.add_argument("--m", type=POINT, default="0.7,-0.4", help="pole as 'x,y'")
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_identities, parser=p)

    p = sub.add_parser("centroid", help="curvature-weighted centroid of a curve")
    _add_ellipse(p)
    _add_pole(p)
    _add_family(p, list(FAMILIES))
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--offset", type=OFFSET, default=None)
    p.add_argument("--source", choices=("samples", "support"), default="samples")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_centroid, parser=p)

    p = sub.add_parser("polygon", help="pedal polygon, area and centroid")
    p.add_argument("--vertices", type=VERTICES, required=True,
                   help="vertex list as 'x1,y1;x2,y2;...'")
    p.add_argument("--m", type=POINT, default="0,0", help="pole as 'x,y'")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_polygon, parser=p)

    p = sub.add_parser("conjecture", help="contrapedal self-crossing location check")
    _add_ellipse(p)
    p.add_argument("--m", type=POINT, default=None,
                   help="pole as 'x,y'; omitted: random interior poles")
    p.add_argument("--count", type=COUNT, default=None, help="random poles when --m is omitted")
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "at least 0"), default=None)
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-4)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_conjecture, parser=p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a refused command line (2), or --help (0)
        return exc.code
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
