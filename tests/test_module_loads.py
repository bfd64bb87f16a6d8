"""The online loop loads no module: every import a run needs happens at
`import sparsecp` or while a source is built, never inside an iteration,
where it would be timed as that iteration's work. numpy imports some
submodules on a function's first call (plain np.unique loads numpy.ma),
so the check runs in a fresh interpreter: the test process may hold
them already."""

import json

from child import run_python

RUN = """
import json, sys
from sparsecp import FileSource, SolverConfig, SyntheticSource, run_online
from sparsecp.tensorio import emit_outputs, ingest_tensor

cfg = SolverConfig(n=8, J=6, K=5, m=3, alpha=0.3, beta=0.3, eta_A=5.0, T_max=3, seed=1)
synthetic = SyntheticSource(cfg)
with open("t.tnsr", "w", encoding="utf-8") as fh:
    fh.write("TNSR3 8 6 5\\n1 1 1 1.5\\n2 3 4 -2.0\\n8 6 5 0.5\\n")
sample = ingest_tensor("t.tnsr")
before = set(sys.modules)
drawn = run_online(cfg, synthetic)
read = run_online(cfg, FileSource(cfg, [sample, sample]))
for res, out in ((drawn, "drawn"), (read, "read")):
    emit_outputs(res.records, (res.A, res.B, res.C), cfg, out)
print(json.dumps({
    "added": sorted(set(sys.modules) - before),
    "numpy.ma": "numpy.ma" in sys.modules,
    "iterations": [drawn.iterations, read.iterations],
}))
"""


def test_run_loads_no_module(tmp_path):
    proc = run_python(["-c", RUN], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["iterations"] == [3, 2]
    assert out["added"] == []
    assert not out["numpy.ma"]
