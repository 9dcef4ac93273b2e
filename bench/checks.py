"""Output checks: each returns None when an output is correct, else the reason.

A failed check counts one failed operation; the run goes on.  No check
loosens a tolerance of the program: scans are held to the ``tol`` they were
run with, conjecture reports to their own ``tol``, and cusp counts to the
acceptance battery's numbers.

This module is never patched by the tracer, so its calls into pedallab
(the closed forms) stay out of the traced layer counts.
"""

from __future__ import annotations

import math
from typing import Optional

from pedallab.areas import closed_form_area
from pedallab.curves import Ellipse


def check_scan(rep: dict, tol: float) -> Optional[str]:
    """The scan's certificate passed and every area matches its closed form within tol."""
    if rep.get("passed") is not True:
        return (f"certificate failed: max_rel_dev={rep.get('max_rel_dev')!r} "
                f"max_closed_dev={rep.get('max_closed_dev')!r}")
    count = rep["locus"]["count"]
    if not len(rep["poles"]) == len(rep["areas"]) == len(rep["errors"]) == count:
        return f"expected {count} poles, areas and errors"
    e = Ellipse(rep["a"], rep["b"])
    params = rep["params"]
    for pole, area, err in zip(rep["poles"], rep["areas"], rep["errors"]):
        if err is not None or area is None or not math.isfinite(area):
            return f"pole {pole}: no certified area ({err})"
        closed = closed_form_area(rep["family"], e, m=tuple(pole),
                                  theta=params["theta"], mu=params["mu"])
        dev = abs(area - closed) / max(abs(closed), 1e-30)
        if not dev <= tol:
            return f"pole {pole}: area {area!r} vs closed form {closed!r} (rel {dev:.2e} > {tol:g})"
    return None


def check_identities(checks: list) -> Optional[str]:
    """Every identity passed with its residual within its tol."""
    if not checks:
        return "empty identity suite"
    bad = [c["name"] for c in checks if not (c["passed"] is True and c["residual"] <= c["tol"])]
    return f"identities failed: {bad}" if bad else None


def check_conjecture(rep: dict) -> Optional[str]:
    """Not skipped, passed, and both axis points within the report's tol."""
    if rep["skipped"]:
        return f"pole {rep['pole']} skipped: {rep['reason']}"
    dx, dy = rep["dist_to_x_axis_point"], rep["dist_to_y_axis_point"]
    if not (rep["passed"] is True and dx is not None and dy is not None
            and dx <= rep["tol"] and dy <= rep["tol"]):
        return f"pole {rep['pole']}: crossings miss the axis points (dx={dx!r}, dy={dy!r})"
    return None


def check_cusps(found, expected: int) -> Optional[str]:
    if isinstance(found, str):
        return found
    return None if len(found) == expected else f"{len(found)} cusps, expected {expected}"


def check_exit(rc) -> Optional[str]:
    """Exit code 0, or the reason the entry point did not return it."""
    if isinstance(rc, str):
        return rc
    return None if rc == 0 else f"exit code {rc}"
