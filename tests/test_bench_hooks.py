"""The benchmark's hooks into the package still resolve.

bench/tracer.py resolves functions by their module attribute (for example
`snn.lif_step` and `cli.write_csv`) and store methods through each class's
own `__dict__`, so a refactor that moves or renames one of them breaks
`bench/run.py --trace 1`. The workloads' `setup` reads the config through
`cli.load_config` and the cost model through `energy.load_cost_model`, so a
change at the config boundary can break `bench/run.py` itself. The `train`
workload's final checks read the records `snn.run_episode` returns and
feed them to `snn.bptt_gradients`, and call `snn.train` positionally to
read the `weights` of its TrainResult, so a change to the episode record
or to the training result can fail `bench/run.py` after its timed loop.
All three run in a subprocess, so the tracer's wrappers never reach other
tests.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = """
import synmem
import synmem.cli
import tracer
tracer.Tracer().install()
assert hasattr(synmem.snn.lif_step, "__wrapped__")
assert hasattr(synmem.stores.CsrStore.__dict__["write_weight"], "__wrapped__")
"""

SETUP = """
import sys
import synmem
import synmem.cli
import workloads
for name in ("sweep", "train", "store"):
    workloads.WORKLOADS[name](1, sys.argv[1]).setup()
"""

EPISODE_CHECKS = """
import sys
import synmem
import workloads
train = workloads.WORKLOADS["train"](1, sys.argv[1])
rng = workloads._np_rng(1, 1)
train._check_episode(rng)
train._check_gradients(rng)
train._check_quantized_weights()
"""


def _run_with_bench_path(script, *args):
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_installs_on_the_package():
    _run_with_bench_path(INSTALL)


def test_workload_setups_run(tmp_path):
    _run_with_bench_path(SETUP, str(tmp_path))


def test_train_workload_episode_checks_pass(tmp_path):
    _run_with_bench_path(EPISODE_CHECKS, str(tmp_path))
