"""No output bit moves unless a change means it to.

`test_no_bit_moved` recomputes SHA-256 digests of stobeam's outputs on
fixed configs and holds them against `tests/digests.json`.  BLAS kernels
differ by CPU and library build, so bits can only be judged on the
environment the digests were made on; the file keys each set of digests
by Python, numpy, scipy, the BLAS line that `bench/child.py` records and
the CPU model.  On any other environment the test prints the fresh
digests and is skipped with that reason.  A change that moves bits on
purpose adds or updates the entry and says which digests moved and why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import REPRO_CFG

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("digests.json")

# nonhomogeneous, expression-force, modulated, two worker threads over two
# blocks: the loads are sampled at every step time
FORCED_CFG = """
beam.l = 1.0
beam.b = 1.0
grid.n = 8
time.T = 0.05
time.dt = 0.0025
noise.sigma = 0.5
noise.K = 6
noise.seed = 5
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
lambda.freq = 3.0
fdet.family = expression
fdet.expr1 = s*(1-s)*cos(t)
fdet.expr3 = sin(pi*s/l)*t
init.family = zero
bc.kind = nonhomogeneous
run.N = 300
run.threads = 2
run.observables = 1:3:v,2:1:u
run.obs_stride = 5
"""

# the bench's mc-covariance config at 512 paths
MC_CFG = """
beam.l = 1.0
beam.b = 1.0
grid.n = 16
time.T = 0.25
time.dt = 0.001
noise.sigma = 1.0
noise.K = 12
lambda.family = bump
lambda.c0 = 1.0
lambda.c1 = 0.3
init.family = zero
bc.kind = homogeneous
run.N = 512
run.threads = 2
run.observables = 1:3:v,2:1:v
run.obs_stride = 25
"""

# runs each (name, argv, files) job through `cli.main` and prints the
# environment and the digest of each file, or of stdout for files = []
CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np, scipy
from stobeam import cli

blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
info = Path("/proc/cpuinfo")
cpu = [line.split(":", 1)[1].strip()
       for line in (info.read_text() if info.exists() else "").splitlines()
       if line.startswith("model name")]
env = {"python": sys.version.split()[0], "numpy": np.__version__,
       "scipy": scipy.__version__,
       "blas": f"{blas.get('name')} {blas.get('version')}",
       "cpu": cpu[0] if cpu else "unknown"}
digests = {}
for name, argv, files in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) in (0, 1), name
    if not files:
        digests[name] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    for f in files:
        data = (Path(argv[argv.index("--out") + 1]) / f).read_bytes()
        digests[f"{name}/{f}"] = hashlib.sha256(data).hexdigest()
print(json.dumps({"environment": env, "digests": digests}))
"""


def _fresh_digests(tmp_path):
    default = (ROOT / "configs" / "default.cfg").read_text()
    configs = {"verify-n16": default,
               "verify-n64": default.replace("grid.n = 16", "grid.n = 64"),
               "repro": REPRO_CFG, "forced": FORCED_CFG,
               "mc-covariance": MC_CFG}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)

    def job(name, command, files):
        return [name, [command, "--config", str(tmp_path / f"{name}.cfg"),
                       "--out", str(tmp_path / name)], files]

    csvs = ["trajectory.csv", "observables.csv"]
    jobs = [job("verify-n16", "verify", []), job("verify-n64", "verify", []),
            job("repro", "simulate", csvs), job("forced", "simulate", csvs),
            job("mc-covariance", "covariance", ["covariance.csv"])]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(jobs)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_bit_moved(tmp_path):
    """The seven digests equal the committed ones on the environment they
    were made on (assertion), and are printed and skipped elsewhere."""
    fresh = _fresh_digests(tmp_path)
    known = [e for e in json.loads(DIGESTS.read_text())
             if e["environment"] == fresh["environment"]]
    if not known:
        print(json.dumps(fresh, indent=2))
        pytest.skip("no digests for this environment in tests/digests.json; "
                    "BLAS kernels differ by CPU, so bits are judged only "
                    f"where the digests were made ({fresh['environment']})")
    want, got = known[0]["digests"], fresh["digests"]
    moved = sorted(k for k in want.keys() | got.keys()
                   if want.get(k) != got.get(k))
    assert not moved, f"output bits moved: {moved}"
