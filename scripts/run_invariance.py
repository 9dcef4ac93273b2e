#!/usr/bin/env python3
"""Run the full certification battery and write JSON reports.

Reports land in --outdir: one file per pole scan, one for the identity
suite, one for the contrapedal crossing check, and a summary with the
pass/fail roll-up, all written by the CLI's strict writer,
pedallab.cli.report_json.  Runs are deterministic: identical arguments
produce byte-identical files.  Exit code 0 only when every certificate
passes; a failed computation, or a non-finite number in a report, exits 1;
bad arguments exit 2 before any report is written.

The certificates are independent, so they run on W processes: this one
and W - 1 children forked from it, with W = min(certificates, usable
CPUs).  W is 1, and no child is forked, where os.fork or
os.sched_getaffinity does not exist or another Python thread is running.
There is no setting for it.  Process p computes certificates p, p + W,
p + 2W, ... and renders each report's text; this process writes every
file, in battery order, so the files do not depend on W.  A process stops
at its first exception.  The run raises the first exception in battery
order, having written the reports before that certificate and none at or
after it, as a run on one CPU does.  The children's memory comes on top
of this process's.
"""

import argparse
import math
import os
import pickle
import sys
import threading
import traceback
import warnings
from functools import partial
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
# what Python 3.12 and later warn on os.fork in a process with more than one OS thread
FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


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


def circle_scan(e: Ellipse, fam: str, r: float, args):
    locus = LocusSpec(kind="circle", r=r, count=args.count)
    rep = scan(e, fam, locus, n=args.n, theta=math.pi / 5, mu=1.0 / 3.0)
    return rep.to_dict(), rep.passed


def boundary_scan(e: Ellipse, fam: str, args):
    rep = scan(e, fam, LocusSpec(kind="boundary", count=args.count), n=args.n)
    return rep.to_dict(), rep.passed


def identities(e: Ellipse, args):
    checks = identity_suite(e, n=args.n)
    return [c.to_dict() for c in checks], all(c.passed for c in checks)


def conjecture(e: Ellipse, args):
    conj = conjecture_check_contrapedal(e, (0.7, -0.4), n=args.n)
    return conj.to_dict(), conj.passed


def certificates(e: Ellipse, args) -> list:
    """The battery in report order: (report name, a function that returns
    (report, passed))."""
    return [
        *((f"scan_{fam}_circle_r{r:g}", partial(circle_scan, e, fam, r, args))
          for fam in STEINER_FAMILIES for r in args.radii),
        *((f"scan_{fam}_boundary", partial(boundary_scan, e, fam, args))
          for fam in BOUNDARY_FAMILIES),
        ("identities", partial(identities, e, args)),
        ("conjecture", partial(conjecture, e, args)),
    ]


def battery(e: Ellipse, args) -> int:
    """Write every report of the battery for the parsed arguments; 0 when
    all certificates pass, else 1."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    certs = certificates(e, args)
    results = run(certs, worker_count(len(certs)))
    summary = {"a": e.a, "b": e.b, "n": args.n, "count": args.count, "reports": []}
    for i, (name, _) in enumerate(certs):
        if isinstance(results[i], Exception):
            raise results[i]
        text, passed = results[i]
        (outdir / f"{name}.json").write_text(text)
        summary["reports"].append({"name": name, "passed": passed})

    ok = all(r["passed"] for r in summary["reports"])
    summary["passed"] = ok
    write(outdir / "summary.json", summary)
    print(f"{len(summary['reports'])} reports -> {outdir} passed={ok}")
    return 0 if ok else 1


def worker_count(certs: int) -> int:
    """W: one process per usable CPU, at most one per certificate.  1 where
    os.fork or os.sched_getaffinity does not exist, or where another Python
    thread runs: a forked child holds a copy of every lock that thread may
    hold, and no thread to release it."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(certs, len(os.sched_getaffinity(0)))


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked worker;
    the parent raises that exception from this one."""


def share(certs: list, first: int, step: int) -> dict:
    """Certificates first, first + step, ... by index: each one's (report
    text, passed), up to and including the first that raises, which maps to
    its exception."""
    done = {}
    for i in range(first, len(certs), step):
        try:
            obj, passed = certs[i][1]()
            done[i] = (report_json(obj), passed)
        except Exception as exc:
            done[i] = exc
            break
    return done


def run(certs: list, width: int) -> dict:
    """Every certificate's (report text, passed), or the exception that
    stopped its process, by index; indices after that exception in the same
    process are missing.  This process computes share 0 and forked children
    shares 1 .. width - 1; a child that exits without sending its share
    leaves a RuntimeError that names it at the first index of its share."""
    workers = []  # (first index of its share, pid, read end of its pipe)
    try:
        for first in range(1, width):
            read, write = os.pipe()
            try:
                pid = fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                work(certs, first, width, write, [read, *(fd for _, _, fd in workers)])
            os.close(write)
            workers.append((first, pid, read))
        results = share(certs, 0, width)
        payloads = [drain(fd) for _, _, fd in workers]
    finally:
        # close before reaping: a child blocked on writing to a pipe that
        # will not be read gets EPIPE and exits
        for _, _, fd in workers:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for _, pid, _ in workers]
    for (first, pid, _), payload, code in zip(workers, payloads, codes):
        if code != 0:
            ended = f"exit code {code}" if code > 0 else f"signal {-code}"
            results[first] = RuntimeError(
                f"battery worker {pid} (its share starts at {certs[first][0]}, step {width}) "
                f"ended by {ended} without sending its reports")
            continue
        done, tb = pickle.loads(payload)  # bytes that a child of this process wrote
        if tb is not None:
            done[max(done)].__cause__ = WorkerTraceback(f"in battery worker {pid}:\n{tb}")
        results.update(done)
    return results


def fork() -> int:
    """os.fork, without the warning Python 3.12 and later give for the
    threads of numpy's OpenBLAS pool, which start when numpy is imported.
    worker_count has found no other Python thread; OpenBLAS parks its pool
    around a fork through pthread_atfork, and the child starts no thread and
    leaves by os._exit."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=FORK_WARNING, category=DeprecationWarning)
        return os.fork()


def work(certs: list, first: int, width: int, write: int, inherited: list) -> None:
    """A forked child's whole life: close the pipe ends it inherited but does
    not write to, compute its share, send the share and the traceback text
    of the exception that ended it (or None) as one pickle, and exit without
    running the parent's clean-up."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        done = share(certs, first, width)
        last = done[max(done)]
        tb = ("".join(traceback.format_exception(type(last), last, last.__traceback__))
              if isinstance(last, Exception) else None)
        with open(write, "wb") as pipe:
            pickle.dump((done, tb), pipe)
        status = 0
    finally:
        os._exit(status)


def drain(fd: int) -> bytes:
    """Everything a child writes to its pipe, up to its end; the caller
    closes fd."""
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


if __name__ == "__main__":
    sys.exit(main())
