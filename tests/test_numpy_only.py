"""Everything but `HopfGrid.diff_ops` runs on numpy alone.

scipy.sparse is imported only where a sparse operator is built
(`HopfGrid.diff_ops`); the estimator applies its stiffness operator
without assembling one.  Each check starts a fresh interpreter, because
the test process has imported scipy long before; one of them refuses
every scipy import and must still produce the bytes this process
produces with scipy loaded."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import relyamabe
from relyamabe import (
    BergerParams,
    HopfGrid,
    QuotientInput,
    berger_scalar_closed,
    boundary_second_form,
    chart_metric,
    conformal_scalar,
    neumann_residual,
    rayleigh_quotient,
    yamabe_property_probe,
)
from relyamabe.cli import main

SRC = str(Path(relyamabe.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

CLI_RUNS = {
    "curvature": ["curvature", "--s", "1", "--t", "3.5"],
    "criterion": ["criterion", "--g", "round", "--h", "berger:1,3.5"],
    "sweep": ["sweep", "--s", "1:4:7", "--t", "1:4:9"],
    "pathcheck": ["pathcheck", "--s", "1", "--t-start", "3", "--t-end", "4", "--steps", "21"],
    "dump-grid-csv": ["dump-grid", "--geometry", "berger:2,4", "--resolution", "8",
                      "--format", "csv"],
    "dump-grid-json": ["dump-grid", "--geometry", "berger:2,4", "--resolution", "8",
                       "--format", "json"],
    "yamabe": ["yamabe", "--geometry", "berger:1,3.5", "--resolution", "8"],
}

NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is refused here: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def outputs() -> dict:
    """sha256 of every CLI payload and every library result checked."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_RUNS.items():
            path = os.path.join(tmp, name)
            code = main(argv + ["--out", path, "--quiet"])
            out[name] = (code, digest(Path(path).read_bytes()))
    params = BergerParams(1.0, 3.5)
    scalar = berger_scalar_closed(params)
    grid = HopfGrid.cube(8)
    metric = chart_metric(grid, params)
    e, x1, x2 = grid.meshes()
    u = 1.0 + 0.2 * np.cos(x1) + 0.1 * np.sin(x1) ** 2 * np.cos(2.0 * e) * np.cos(x2)
    rep = boundary_second_form(metric)
    out["chart_metric"] = digest(metric.g, metric.chart_residual)
    out["boundary_second_form"] = digest(
        *(a for f in rep.faces for a in (f.name, f.mean_curvature, f.ii_norm))
    )
    out["rayleigh_quotient"] = digest(rayleigh_quotient(QuotientInput(u, metric, scalar)))
    out["yamabe_property_probe"] = digest(
        yamabe_property_probe(metric, scalar, n_trials=12, seed=3)
    )
    out["conformal_scalar"] = digest(conformal_scalar(u, metric, scalar))
    out["neumann_residual"] = digest(neumann_residual(u, metric))
    return out


def fresh_python(code: str) -> str:
    """Run `code` in a new interpreter that imports from this checkout;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_outputs_without_scipy_equal_outputs_with_scipy():
    code = NO_SCIPY + "import json, test_numpy_only\nprint(json.dumps(test_numpy_only.outputs()))"
    refused = json.loads(fresh_python(code))
    loaded = json.loads(json.dumps(outputs()))
    assert all(refused[name][0] == 0 for name in CLI_RUNS)
    assert refused == loaded


def test_import_and_estimate_load_no_scipy():
    code = """
import sys
def loaded():
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import relyamabe, relyamabe.cli
loaded()
from relyamabe import BergerParams, HopfGrid, chart_metric, estimate
estimate(chart_metric(HopfGrid.cube(8), BergerParams(1.0, 1.0)), 6.0)
loaded()
"""
    after_import, after_estimate = fresh_python(code).splitlines()
    assert after_import == "[]"
    assert after_estimate == "[]"
