"""perfbench's traced run patches ecol2's names; each must still resolve.

perfbench/tracer.py replaces module globals such as
`pipeline.spectral_solve` and `spectral.fourier_resample` by name, so a
renamed or dropped global breaks `perfbench/run.py --trace 1` without
failing any test of the package itself.  A traced ledger-history op also
pins its read and write counts, so a faster read or write path shows as
less time per record, not as fewer records.
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


_LEDGER_SCRIPT = """
import sys
from pathlib import Path
from tracer import Tracer
from workloads import LedgerHistory

scratch = Path(sys.argv[1])
workload = LedgerHistory(Path(sys.argv[2]), scratch, 0)
workload.setup()
tracer = Tracer()
tracer.install()
tracer.begin_op()
out = workload.op(0)
tracer.end_op()
assert workload.check_op(0, out) == []
t = tracer.totals
assert t["ledger.aggregate.calls"] == 1, t["ledger.aggregate.calls"]
assert t["ledger.read_stage.calls"] == 8, t["ledger.read_stage.calls"]
assert t["ledger.records_read"] == 2000, t["ledger.records_read"]
assert t["regions.what_if_region.calls"] == 6000, t["regions.what_if_region.calls"]
# the byte count is taken from the path that LedgerStore.record returns
written = sum(p.stat().st_size for p in (scratch / "ingest0").glob("Emissions/*/*.json"))
assert t["ledger.record.calls"] == 25, t["ledger.record.calls"]
assert t["ledger.record.bytes"] == written > 0, (t["ledger.record.bytes"], written)
"""


def _run_with_perfbench(script, *argv):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_and_traces_a_spectral_run():
    proc = _run_with_perfbench(_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_traced_ledger_history_op_keeps_its_read_counts(tmp_path):
    proc = _run_with_perfbench(_LEDGER_SCRIPT, str(tmp_path), str(ROOT / "src"))
    assert proc.returncode == 0, proc.stderr
