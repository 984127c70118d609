"""The API the benchmark under ``perfbench/`` drives stays in place.

The benchmark builds states with ``from_graph(ell=, tol=)``, reads
``eig_converged`` and ``branches`` off them, and its tracer wraps
``spectral.power_iteration`` among other calls.  The checks run in a
subprocess from ``perfbench/``, because the benchmark re-imports the
package from scratch and would swap modules under the test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import shutil
import tempfile

import oracles
import selfcheck
import workloads
from spans import Tracer

for w in workloads.WORKLOADS:
    assert selfcheck.run(w, 0) == [], w
ir = workloads.fresh_import()
Tracer().install()
prog = workloads.Program(ir)

a, ops = workloads.paper_pool()[0]
g, delta = prog.graph(a, stochastic=True), prog.delta(ops)
state = ir.StoredState.from_graph(g, **workloads.PAPER_BUILD)
new, report = ir.run_update(state, delta, **workloads.PAPER_UPDATE)
own = oracles.apply_ops(a, ops)
assert workloads.state_errors(state, a) == []
assert workloads.state_errors(new, own) == []
out = workloads.Outcome("update")
workloads.record_update(out, new, own)
assert out.eig_err[0] <= oracles.EIGVEC_TOL and out.unconverged == [False]
assert out.branches[0] > 0

base = workloads.stream_base()
state = ir.StoredState.from_graph(prog.graph(base, stochastic=True))
for ops in workloads.stream_episodes(base)[0][:workloads.STREAM_CHECKPOINT]:
    state, _ = ir.run_update(state, prog.delta(ops))
where = tempfile.mkdtemp()
try:
    ir.io.save_state(state, where + "/state")
    assert workloads.same_state(ir.io.load_state(where + "/state"), state)
finally:
    shutil.rmtree(where)
print("contract ok")
"""


def test_benchmark_drives_the_package_api():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT / "perfbench",
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "contract ok" in done.stdout
