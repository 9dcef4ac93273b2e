#!/usr/bin/env python3
"""Render one SVG per curve family into --outdir.

Pole-based families use the pole (0.7, -0.4); the families that need their
pole on the ellipse use the boundary point at parameter 0.7.  Evolutoids
are drawn below, at and above the cusp-birth angle.
"""

import argparse
import math
import sys
from pathlib import Path

# a checkout runs without installing: the package falls back on ../src
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from pedallab import Ellipse
from pedallab.cli import main as cli


def run(outdir: Path, name: str, *argv: str) -> None:
    target = outdir / f"{name}.svg"
    rc = cli(["sample", "--format", "svg", "--output", str(target), *argv])
    if rc != 0:
        raise SystemExit(f"sample failed for {name} (exit {rc})")
    print(target)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--n", type=int, default=720)
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = str(args.n)

    run(outdir, "ellipse", "--family", "ellipse", "--n", n)
    for fam in ("pedal", "contrapedal"):
        run(outdir, fam, "--family", fam, "--m", "0.7,-0.4", "--n", n)
    run(outdir, "rotated", "--family", "rotated", "--m", "0.7,-0.4",
        "--theta", str(math.pi / 5), "--n", n)
    run(outdir, "interpolated", "--family", "interpolated", "--m", "0.7,-0.4",
        "--mu", "0.333333", "--n", n)
    for fam in ("hybrid", "pseudo_talbot", "negative_pedal"):
        run(outdir, fam, "--family", fam, "--s", "0.7", "--n", n)

    e = Ellipse(2.0, 1.0)
    theta0 = math.atan2(2 * e.a * e.b, 3 * e.c2)
    for label, theta in (("below", 0.8 * theta0), ("critical", theta0),
                         ("above", 1.3 * theta0), ("evolute", math.pi / 2)):
        run(outdir, f"evolutoid_{label}", "--family", "evolutoid",
            "--theta", str(theta), "--n", n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
