#!/usr/bin/env python3
"""Run the full certification battery and write JSON reports.

Reports land in --outdir: one file per pole scan, one for the identity
suite, one for the contrapedal crossing check, and a summary with the
pass/fail roll-up, all written by the CLI's strict writer,
pedallab.cli.report_json.  Runs are deterministic: identical arguments
produce byte-identical files.  Exit code 0 only when every certificate
passes; a failed computation, or a non-finite number in a report, exits 1;
bad arguments exit 2 before any report is written.
"""

import argparse
import math
import sys
from pathlib import Path

# a checkout runs without installing: the package falls back on ../src
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from pedallab import (
    Ellipse,
    GeometryError,
    LocusSpec,
    conjecture_check_contrapedal,
    identity_suite,
    scan,
)
from pedallab.cli import COUNT, GRID, POSITIVE, report_json

STEINER_FAMILIES = ("pedal", "contrapedal", "rotated", "interpolated")
BOUNDARY_FAMILIES = ("hybrid", "pseudo_talbot", "negative_pedal")


def write(path: Path, obj) -> None:
    """Write obj as strict JSON; a non-finite number raises DomainError."""
    path.write_text(report_json(obj))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--a", type=POSITIVE, default=2.0)
    ap.add_argument("--b", type=POSITIVE, default=1.0)
    ap.add_argument("--n", type=GRID, default=2048)
    ap.add_argument("--count", type=COUNT, default=64)
    ap.add_argument("--radii", type=POSITIVE, nargs="+", default=(0.1, 0.5, 1.0, 3.0))
    ap.add_argument("--quick", action="store_true",
                    help="small grids: n=512, count=8, radii 0.5 and 1.0")
    args = ap.parse_args(argv)
    if args.a < args.b:
        ap.error(f"require semi-axes a >= b, got a={args.a}, b={args.b}")

    if args.quick:
        args.n, args.count, args.radii = 512, 8, (0.5, 1.0)

    try:
        return battery(Ellipse(args.a, args.b), args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def battery(e: Ellipse, args) -> int:
    """Write every report of the battery for the parsed arguments; 0 when
    all certificates pass, else 1."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"a": e.a, "b": e.b, "n": args.n, "count": args.count, "reports": []}

    def record(name: str, obj: dict, passed: bool) -> None:
        write(outdir / f"{name}.json", obj)
        summary["reports"].append({"name": name, "passed": passed})

    for fam in STEINER_FAMILIES:
        for r in args.radii:
            locus = LocusSpec(kind="circle", r=r, count=args.count)
            rep = scan(e, fam, locus, n=args.n, theta=math.pi / 5, mu=1.0 / 3.0)
            record(f"scan_{fam}_circle_r{r:g}", rep.to_dict(), rep.passed)

    for fam in BOUNDARY_FAMILIES:
        locus = LocusSpec(kind="boundary", count=args.count)
        rep = scan(e, fam, locus, n=args.n)
        record(f"scan_{fam}_boundary", rep.to_dict(), rep.passed)

    checks = identity_suite(e, n=args.n)
    record("identities", [c.to_dict() for c in checks],
           all(c.passed for c in checks))

    conj = conjecture_check_contrapedal(e, (0.7, -0.4), n=args.n)
    record("conjecture", conj.to_dict(), conj.passed)

    ok = all(r["passed"] for r in summary["reports"])
    summary["passed"] = ok
    write(outdir / "summary.json", summary)
    print(f"{len(summary['reports'])} reports -> {outdir} passed={ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
