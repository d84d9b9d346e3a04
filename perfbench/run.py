"""Benchmark of slmfic: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Times are scaled to a quiet CPU.  The machines this runs on share their
cores: contention from outside the process slows the program by up to 2x, for
seconds to minutes at a time, so raw seconds of one run and the next differ by
30% and more.  A reference kernel with the same mix of work (reference.py) is
slowed by about the same factor, so a scaled time is raw seconds x the
kernel's NOMINAL_S / the kernel's seconds measured around it.  The n = 75
workloads are scaled by the fit kernel (Python and small-array numpy);
region_n3k, which spends most of its time in LAPACK eigenvalues on the BLAS
thread pool, by the eigen kernel.

A scaled time is validated only for the work mix of the program it was
measured on: a change that moves a workload's time between Python and the
BLAS thread pool can be slowed by contention by another factor than the
kernel.  So a claimed gain must also hold on raw times (wall_raw_s of the
traced run, and untraced_raw_median_s of the result record) over runs that
alternate the parent and the change.

setup_s is the time from the start of this script to the end of a warm-up
unit, less the kernel pass made in between: the imports, the generation of
the workload's inputs from the seed, and one warm-up unit on those inputs.
The warm-up unit runs on the same inputs as the timed units, so that work
the program does once per input (a cache it fills, a precompute it makes) is
counted here and not hidden by the median of the timed units.  setup_s is scaled by the kernel
passes just before the inputs are generated and just after the warm-up.
Then units of work run back to back, each followed by a kernel pass, while
the next one is expected to end within --seconds; wall_s is the median
scaled seconds per unit.  The raw times and the sample count go to the
result record.  peak_rss_mb is the process's peak resident memory, read
before the correctness gates run; the runner keeps the details of the first
unit only, so that its memory does not grow with the unit count.

With --trace 1, untraced and traced units alternate (in pairs ordered
untraced-first and traced-first in turn).  The traced unit with the least
scaled time gives the per-layer metrics, per unit of work, in raw seconds;
trace.overhead_frac is the median scaled traced unit over the median scaled
untraced unit, minus 1, and wall_raw_s the median raw seconds of the
untraced units.  Every unit's output, the warm-up's too, must equal every
other's, traced or not.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every operation and
every gate passed, 1 when one failed, and 2, without a result, when the
program cannot be imported from src/.  A result record with the environment,
and with --trace 1 the spans, are written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
WORKLOADS = ("mc_paper", "sweep_p12", "maxvar_fic", "region_n3k")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def limit_threads() -> int:
    """Cap the BLAS thread pool at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    return nproc


def import_program():
    """Import slmfic from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "slmfic" / "__init__.py").is_file():
        raise ImportError(f"no slmfic package under {src}")
    sys.path.insert(0, str(src))
    import slmfic

    if Path(slmfic.__file__).resolve().parent != (src / "slmfic").resolve():
        raise ImportError(f"slmfic imported from {slmfic.__file__}, not from {src}")
    import reference
    import spans
    import workloads

    return spans, workloads, reference


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


@dataclasses.dataclass
class Timing:
    """One timed unit: its index, whether it was traced, its seconds, and
    those seconds scaled by the kernel times on either side of it."""

    index: int
    traced: bool
    raw_s: float
    norm_s: float


def keep(res, results: list) -> None:
    """Append a unit result with its output text replaced by its digest and,
    after the first, without its details, so that the runner's memory does
    not grow with the unit count."""
    res.text = hashlib.sha256(res.text.encode()).hexdigest()
    if results:
        res.detail = None
    results.append(res)


def run_units(wl, seconds: float, tracer, kernel, results: list):
    """Run units, each followed by a kernel pass, until the next unit (when
    tracing, the next untraced-traced pair) is expected to end after `seconds`.

    Appends the unit results to `results`; returns the timings and the kernel
    times.
    """
    timings, refs = [], [kernel()]
    begin = time.perf_counter()
    k = 0
    while True:
        with_trace = tracer is not None and (k + k // 2) % 2 == 1
        if with_trace:
            tracer.begin_unit(k)
            with tracer.installed():
                t = time.perf_counter()
                res = wl.unit()
                dt = time.perf_counter() - t
        else:
            t = time.perf_counter()
            res = wl.unit()
            dt = time.perf_counter() - t
        refs.append(kernel())
        norm = dt * kernel.NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
        timings.append(Timing(k, with_trace, dt, norm))
        keep(res, results)
        k += 1
        if tracer is not None and k % 2:
            continue  # traced runs stop only after a whole pair
        expected = statistics.median(u.raw_s for u in timings) + sum(refs) / len(timings)
        if time.perf_counter() - begin + expected * (2 if tracer else 1) > seconds:
            return timings, refs


def main(argv=None) -> int:
    start = _T0 if __name__ == "__main__" else time.perf_counter()
    args = parse_args(argv)
    nproc = limit_threads()
    try:
        spans, workloads, reference = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    cls = workloads.WORKLOADS[args.workload]
    kernel = cls.kernel()
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = cls(args.seed, args.tiny, workdir)
        before = kernel()
        wl.prepare()
        results = []
        keep(wl.unit(), results)  # warm-up on the real inputs
        setup_raw_s = time.perf_counter() - start - before

        tracer = spans.Tracer() if args.trace else None
        timings, refs = run_units(wl, args.seconds, tracer, kernel, results)
        setup_s = setup_raw_s * kernel.NOMINAL_S / (0.5 * (before + refs[0]))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks, gate_errors = wl.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results) + checks
    failed = sum(r.failed for r in results) + min(len(gate_errors), checks)
    errors = [e for r in results for e in r.errors] + gate_errors
    plain = [t for t in timings if not t.traced]
    traced = [t for t in timings if t.traced]
    wall_s = statistics.median(t.norm_s for t in plain)

    if tracer is None:
        values = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = E2E_UNITS
    else:
        fastest = min(traced, key=lambda t: t.norm_s)
        values = tracer.layer_metrics(fastest.index)
        values[spans.OVERHEAD] = statistics.median(t.norm_s for t in traced) / wall_s - 1.0
        values[spans.RAW_WALL] = statistics.median(t.raw_s for t in plain)
        units = spans.metric_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{stem}.csv")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "environment": environment(nproc), "unit_kernel": cls.kernel.__name__,
        "import_s": import_s, "setup_raw_s": setup_raw_s,
        "setup_kernel_s": [before, refs[0]], "unit_kernel_s": refs,
        "units": [dataclasses.asdict(t) for t in timings],
        "untraced_raw_median_s": statistics.median(t.raw_s for t in plain),
        "untraced_count": len(plain),
        "attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics,
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for e in errors:
        print(f"FAILED: {e}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"units; failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
