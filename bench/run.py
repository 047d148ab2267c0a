"""synmem benchmark: one workload per call, one JSON result on the last line.

    python3 bench/run.py --workload sweep|train|store --seed N
                         --seconds S --trace 0|1

Run from the root of a source checkout (no install needed: the workers
import synmem from ./src). With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs once with every layer wrapped in spans
and reports per-layer metrics instead. See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep", "train", "store")
SETUP_SAMPLES = 5           # set-ups per run; setup_s is their median
DEADLINE_S = 170.0
# One BLAS thread per process, and the processes run one at a time, so the
# benchmark never runs more threads than there are cores.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker(args, started, extra):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--work-dir", os.path.join(OUT, "work"), *extra]
    env = {**os.environ, **{v: BLAS_THREADS for v in THREAD_VARS}}
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "synmem", "__init__.py")):
        print(f"no synmem sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        if args.trace:
            trace_file = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
            res = worker(args, started, ["--seconds", str(args.seconds), "--trace", "1",
                                         "--trace-file", trace_file])
            setups = [res["setup_s"]]
        else:
            setups = [worker(args, started, ["--setup-only"])["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = worker(args, started, ["--seconds", str(args.seconds)])
            setups.append(res["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    op_times = res["op_times"]
    op_p50 = statistics.median(op_times) if op_times else float("nan")
    if args.trace:
        metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else
                          ("bytes" if name.endswith("bytes") else "count")}
                   for name, value in res["layers"].items()}
        metrics["traced.op_p50_s"] = {"value": op_p50, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_per_s": {"value": res["work"] / sum(op_times), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    env = res["env"]
    print(f"{args.workload} seed {args.seed}: {len(op_times)} ops, median {op_p50:.4g} s, "
          f"{res['attempted']} operations attempted, {res['failed']} failed; "
          f"python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
          f"with {env['blas_threads']} thread(s), nproc {env['nproc']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if not res["correct"]:
        print(f"CHECK FAILED: {res['error']}", file=sys.stderr)
    with open(os.path.join(OUT, f"result_{tag}.json"), "w") as fh:
        json.dump({**res, "setups": setups, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
