"""One workload in one process: set up, run ops in a closed loop, check.

    python3 bench/worker.py --root DIR --workload NAME --seed N
                            [--seconds S --trace 0|1 | --setup-only]

The set-up clock starts after the interpreter, numpy and the benchmark's
own modules are loaded; it covers importing synmem and building the
workload's inputs. Prints one JSON object on its last stdout line.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

import checks
import workloads
from tracer import SETUP, Tracer

MIN_OPS = 5


class Clock:
    """Accumulates the time spent inside `timed()` blocks."""

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self.label = None
        self.tracer = tracer

    @contextlib.contextmanager
    def timed(self):
        if self.tracer:
            self.tracer.label = self.label
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - start
            if self.tracer:
                self.tracer.label = None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args, workdir):
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    start = time.perf_counter()
    import synmem
    import synmem.cli  # noqa: F401  (not imported by the package itself)
    if tracer:
        tracer.install()
        tracer.label = SETUP
    wl.setup()
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.label = None

    src = os.path.join(args.root, "src")
    if os.path.commonpath([os.path.abspath(synmem.__file__), src]) != src:
        raise SystemExit(f"synmem imported from {synmem.__file__}, not from {src}")
    if args.setup_only:
        return {"setup_s": setup_s}

    clock = Clock(tracer)
    op_times, labels = [], []
    work = attempted = failed = 0
    result = {"setup_s": setup_s, "correct": True, "error": None}
    try:
        while clock.elapsed < args.seconds or len(op_times) < MIN_OPS:
            clock.label = f"op{len(op_times)}"
            before = clock.elapsed
            try:
                w, a, f = wl.op(len(op_times), clock)
            finally:
                op_times.append(clock.elapsed - before)
                labels.append(clock.label)
            work, attempted, failed = work + w, attempted + a, failed + f
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.final_checks()
    except checks.CheckError as exc:
        result.update(correct=False, error=str(exc))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(op_times=op_times, work=work, attempted=attempted, failed=failed,
                  peak_rss_mb=peak_rss_mb, env=environment())
    if tracer and op_times:
        result["layers"] = tracer.layer_metrics(labels)
        tracer.dump(args.trace_file)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(args.root, "src"))
    os.makedirs(args.work_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_dir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
