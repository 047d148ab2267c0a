"""The benchmark's span tracer still finds every layer it wraps.

bench/tracer.py resolves functions by their module attribute (for example
`snn.lif_step` and `cli.write_csv`) and store methods through each class's
own `__dict__`, so a refactor that moves or renames one of them breaks
`bench/run.py --trace 1`. The tracer is installed in a subprocess, so its
wrappers never reach other tests.
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


def test_tracer_installs_on_the_package():
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run([sys.executable, "-c", INSTALL],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
