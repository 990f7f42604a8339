"""perfbench's traced run patches ecol2's names; each must still resolve.

perfbench/tracer.py replaces module globals such as
`pipeline.spectral_solve` and `spectral.fourier_resample` by name, so a
renamed or dropped global breaks `perfbench/run.py --trace 1` without
failing any test of the package itself.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
from ecol2 import PowerModel
from ecol2.workloads import pipeline
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.begin_op()
pipeline.run_pipeline("kdv", PowerModel.fixed(50.0), "CH")
tracer.end_op()
assert tracer.totals["datasets.generate_dataset.calls"] == 1
"""


def test_tracer_installs_and_traces_a_spectral_run():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
