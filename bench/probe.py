"""Fresh-process probes of one workload.

    python3 bench/probe.py WORKLOAD SEED           # set-up probe
    python3 bench/probe.py WORKLOAD SEED --pass    # memory probe

The set-up probe imports pedallab and finishes one tiny warm-up run of the
workload, then exits; ``run.py`` times it from start to exit for
``setup_s``.  The memory probe then also makes one full pass over the
workload and prints the process's peak resident memory in MB as its last
line, for ``peak_rss_mb``: a fresh process holds nothing but pedallab and
this one workload.  Either exits with code 1 when an operation failed.
"""

import resource
import sys
import tempfile
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    full_pass = sys.argv[3:] == ["--pass"]
    out = workloads.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="probe-") as tmp:
        outcomes = workloads.warm_up(name, seed, Path(tmp) / "warm-up")
        if full_pass:
            w = workloads.WORKLOADS[name](seed)
            outdir = Path(tmp) / "pass"
            outdir.mkdir()
            outcomes += w.check(outdir, w.run(outdir))
    failures = [(op, err) for op, err in outcomes if err]
    for op, err in failures:
        print(f"{op}: {err}", file=sys.stderr)
    if full_pass:
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.exit(1 if failures else 0)
