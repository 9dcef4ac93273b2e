"""Command line front end.

Subcommands mirror the library layers: ``sample`` dumps curve points,
``area`` compares closed form against quadrature, ``scan`` runs a pole
sweep, ``identities`` runs the area-identity suite, ``centroid`` computes
curvature centroids, ``polygon`` handles the discrete analogue, and
``conjecture`` measures the contrapedal crossing claim.

Exit codes: 0 success, 1 a computation or certification failed, 2 bad
arguments.  Reports are strict JSON: a non-finite number fails the
command instead of being written as NaN or Infinity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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


class UsageProblem(Exception):
    """Bad command line input; maps to exit code 2."""


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


def _parse_xy(raw: str) -> Tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageProblem(f"expected a point as 'x,y', got {raw!r}")
    try:
        x, y = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageProblem(f"expected a point as 'x,y', got {raw!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise UsageProblem(f"point components must be finite, got {raw!r}")
    return x, y


def _parse_vertices(raw: str) -> np.ndarray:
    try:
        rows = [_parse_xy(chunk) for chunk in raw.split(";") if chunk]
    except UsageProblem:
        raise UsageProblem(f"expected vertices as 'x1,y1;x2,y2;...', got {raw!r}") from None
    if len(rows) < 3:
        raise UsageProblem("a polygon needs at least 3 vertices")
    return np.array(rows, dtype=float)


def _non_finite(value) -> DomainError:
    return DomainError(f"report holds a non-finite number ({float(value)!r})")


_float_text = float.__repr__
_str_text = json.encoder.encode_basestring_ascii


def _key_text(key) -> str:
    if isinstance(key, str):
        return _str_text(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _report_text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _floats_text(values, sep: str) -> str:
    """The float.__repr__ texts of a non-empty list of floats, joined by
    sep; TypeError if an entry is not a float.  A scan's areas repeat a
    few values, which its laws hold constant, so each distinct value is
    formatted once and looked up per entry when every entry is a plain
    float (True and 1 equal 1.0) and none is zero (0.0 equals -0.0)."""
    if type(values[0]) is float and set(map(type, values)) == {float}:
        distinct = set(values)
        if 0.0 not in distinct:
            text = dict(zip(distinct, map(_float_text, distinct)))
            return sep.join(map(text.__getitem__, values))
    return sep.join(map(_float_text, values))


def _report_text(obj, nl: str) -> str:
    """JSON text of obj, whose closing bracket goes after nl, a newline and
    the indentation of obj's own line; json.dumps' indent=2 layout and its
    order of type tests."""
    if isinstance(obj, str):
        return _str_text(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _non_finite(obj)
        return _float_text(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            # a flat list of floats in one pass; no finite float's repr has an n
            body = _floats_text(obj, sep)
        except TypeError:
            body = None
        if body is None and all(type(p) is list and len(p) == 2 for p in obj):
            try:
                # a list of float pairs (the poles) through one format string
                pair = "[" + inner + "  {}," + inner + "  {}" + inner + "]"
                body = sep.join([pair] * len(obj)).format(
                    *map(_float_text, itertools.chain.from_iterable(obj)))
            except TypeError:
                pass
        if body is None:
            try:
                # a flat list of strings and None (the errors) in one pass
                body = sep.join(["null" if v is None else _str_text(v) for v in obj])
            except TypeError:
                body = sep.join([_report_text(v, inner) for v in obj])
        elif "n" in body:
            raise _non_finite(next(v for v in np.ravel(obj) if not math.isfinite(v)))
        return "[" + inner + body + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([_key_text(k) + ": " + _report_text(v, inner)
                                       for k, v in obj.items()]) + nl + "}"
    # anything else is json's to serialize or to refuse
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", nl)


def report_json(obj) -> str:
    """Strict JSON text of a report: byte-identical to
    json.dumps(obj, indent=2, allow_nan=False) + "\n", the one writer of
    every report file.  A non-finite number raises DomainError.

    With an indent, json.dumps runs its pure-Python encoder, one generator
    step per value; this writer joins a flat list of floats (formatting
    each distinct value once), or of strings and None, in one pass and a
    list of float pairs through one format string, and gives any type it
    does not know to json.
    """
    return _report_text(obj, "\n") + "\n"


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ellipse(args) -> Ellipse:
    if not (math.isfinite(args.a) and math.isfinite(args.b) and args.a >= args.b > 0):
        raise UsageProblem(f"require semi-axes a >= b > 0, got a={args.a}, b={args.b}")
    return Ellipse(args.a, args.b)


def _resolve_pole(args, e: Ellipse):
    """--m or --s into (pole, boundary parameter or None)."""
    if args.m is not None and args.s is not None:
        raise UsageProblem("give the pole as --m or --s, not both")
    if args.s is not None:
        p = ellipse_point(e, args.s)
        return (float(p[0]), float(p[1])), float(args.s)
    if args.m is not None:
        return _parse_xy(args.m), None
    return (0.0, 0.0), None


def _family_curve(args, e: Ellipse):
    """Evaluator, serializable metadata and n-point grid of the chosen family."""
    if args.offset is not None and not 0.0 <= args.offset < 1.0:
        raise UsageProblem(f"--offset must lie in [0, 1), got {args.offset}")
    fam, spec = args.family, FAMILIES[args.family]
    if spec.frame is None:  # the evolutoid has no pole
        ev = lambda t: evolutoid_point(e, args.theta, t)
        m, s = None, None
    else:
        m, s = _resolve_pole(args, e)
        if s is None and spec.on_ellipse and pole_on_ellipse(e, m):
            # an --m on the ellipse names the same pole as --s at its parameter
            s = math.atan2(m[1] / e.b, m[0] / e.a)
        if spec.ellipse_pole_only and s is None:  # the pole is off the ellipse
            raise UsageProblem(f"{fam} needs its pole on the ellipse: give --s")
        ev = family_evaluator(e, fam, m, theta=args.theta, mu=args.mu)
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
        "params": {"theta": args.theta, "mu": args.mu, "s": s,
                   "n": args.n, "offset": grid.offset},
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
    try:
        return json.dumps(obj, allow_nan=False, separators=(",", ":")) + "\n"
    except ValueError as exc:
        raise DomainError(f"report holds a non-finite number ({exc})") from None


def _format_svg(curve: SampledCurve) -> str:
    # imported here, its one user: every other command is spared its import
    from xml.etree import ElementTree as ET

    x = curve.points[:, 0]
    y = -curve.points[:, 1]  # svg y grows downward
    minx, maxx = float(np.min(x)), float(np.max(x))
    miny, maxy = float(np.min(y)), float(np.max(y))
    w, h = maxx - minx, maxy - miny
    mx = 0.05 * w if w > 0 else 0.5
    my = 0.05 * h if h > 0 else 0.5
    d = "M " + " L ".join(f"{px:.8g} {py:.8g}" for px, py in zip(x, y)) + " Z"
    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "viewBox": f"{minx - mx:.8g} {miny - my:.8g} {w + 2 * mx:.8g} {h + 2 * my:.8g}",
    })
    ET.SubElement(svg, "path", {
        "d": d,
        "fill": "none",
        "stroke": "black",
        "stroke-width": f"{0.004 * max(w, h, 1e-9):.6g}",
    })
    return ET.tostring(svg, encoding="unicode") + "\n"


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
        # the evolutoid has no pole, and its closed form takes none
        closed = closed_form_area(args.family, e, m=meta["m"] or (0.0, 0.0),
                                  theta=args.theta, mu=args.mu)
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
    try:
        locus = LocusSpec(kind=args.locus, r=args.r, count=args.count, phase=args.phase)
    except DomainError as exc:
        raise UsageProblem(f"bad --r, --count or --phase: {exc}") from None
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
    m = _parse_xy(args.m)
    checks = identity_suite(e, m, n=args.n, tol=args.tol)
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
            raise UsageProblem("--source support is defined for the ellipse family only")
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
    verts = _parse_vertices(args.vertices)
    poly = Polygon(verts)
    m = _parse_xy(args.m)
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
        poles = [_parse_xy(args.m)]
    else:
        rng = np.random.default_rng(args.seed)
        poles = []
        while len(poles) < args.count:
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
    p.add_argument("--a", type=float, default=2.0, help="semi-major axis (default 2)")
    p.add_argument("--b", type=float, default=1.0, help="semi-minor axis (default 1)")


def _add_pole(p):
    p.add_argument("--m", type=str, default=None, help="pole as 'x,y' (excludes --s)")
    p.add_argument("--s", type=FINITE, default=None,
                   help="pole on the ellipse at parameter s (excludes --m)")


def _add_family(p, choices):
    p.add_argument("--family", choices=choices, default="pedal")
    p.add_argument("--theta", type=FINITE, default=0.0,
                   help="line rotation / tangent crossing angle")
    p.add_argument("--mu", type=FINITE, default=0.5, help="pedal-contrapedal blend")


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
    p.add_argument("--offset", type=float, default=None,
                   help="fractional grid offset in [0, 1)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("area", help="closed-form vs quadrature signed area")
    _add_ellipse(p)
    _add_pole(p)
    _add_family(p, list(FAMILIES))
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("scan", help="area invariance over a pole locus")
    _add_ellipse(p)
    _add_family(p, [f.value for f in SCANNABLE])
    p.add_argument("--locus", choices=("circle", "boundary"), required=True)
    p.add_argument("--r", type=float, default=1.0, help="circle locus radius")
    p.add_argument("--count", type=COUNT, default=64, help="poles on the locus")
    p.add_argument("--phase", type=float, default=0.0, help="locus angular offset")
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-8)
    p.add_argument("--output", type=str, default=None, help="write the full JSON report")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("identities", help="pedal-family area identity suite")
    _add_ellipse(p)
    p.add_argument("--m", type=str, default="0.7,-0.4", help="pole as 'x,y'")
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("centroid", help="curvature-weighted centroid of a curve")
    _add_ellipse(p)
    _add_pole(p)
    _add_family(p, list(FAMILIES))
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--source", choices=("samples", "support"), default="samples")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_centroid)

    p = sub.add_parser("polygon", help="pedal polygon, area and centroid")
    p.add_argument("--vertices", type=str, required=True,
                   help="vertex list as 'x1,y1;x2,y2;...'")
    p.add_argument("--m", type=str, default="0,0", help="pole as 'x,y'")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_polygon)

    p = sub.add_parser("conjecture", help="contrapedal self-crossing location check")
    _add_ellipse(p)
    p.add_argument("--m", type=str, default=None,
                   help="pole as 'x,y'; omitted: random interior poles")
    p.add_argument("--count", type=COUNT, default=10, help="random poles when --m is omitted")
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "at least 0"), default=0)
    p.add_argument("--n", type=GRID, default=2048)
    p.add_argument("--tol", type=POSITIVE, default=1e-4)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    try:
        return args.func(args)
    except UsageProblem as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
