"""Everything but `HopfGrid.diff_ops` runs on numpy alone, and the grid
layers load only where they are used.

scipy.sparse is imported only where a sparse operator is built
(`HopfGrid.diff_ops`); the estimator applies its stiffness operator
without assembling one.  The hemisphere grid layers (`su2_chart`,
`conformal_energy`, `yamabe_estimator`) load on first use of a grid name
at the package root, or in the `yamabe` and `dump-grid` subcommands.
Each check starts a fresh interpreter, because the test process has
imported scipy and the grid layers long before; one of them refuses
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
import pytest

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


#: the modules of the grid layers, and the standard-library module only
#: they import
GRID_MODULES = (
    "relyamabe.su2_chart",
    "relyamabe.conformal_energy",
    "relyamabe.yamabe_estimator",
    "logging",
)

#: every package-root name of the grid layers, and the module defining it
GRID_NAMES = {
    "HopfGrid": "su2_chart",
    "MetricField": "su2_chart",
    "chart_metric": "su2_chart",
    "integrate": "su2_chart",
    "boundary_second_form": "su2_chart",
    "QuotientInput": "conformal_energy",
    "einstein_hilbert": "conformal_energy",
    "rayleigh_quotient": "conformal_energy",
    "conformal_scalar": "conformal_energy",
    "neumann_residual": "conformal_energy",
    "estimate": "yamabe_estimator",
    "yamabe_property_probe": "yamabe_estimator",
}

#: prints, after the import and after each step, the grid modules loaded
#: so far; `steps` are (name, argv) pairs, each run with its payload
#: written to a file whose sha256 is printed too
GRID_LOAD_SCRIPT = """
import hashlib, json, os, sys, tempfile
def loaded():
    return [m for m in {modules!r} if m in sys.modules]
import relyamabe, relyamabe.cli
print(json.dumps(["import", 0, None, loaded()]))
with tempfile.TemporaryDirectory() as tmp:
    for name, argv in {steps!r}:
        path = os.path.join(tmp, name)
        code = relyamabe.cli.main(argv + ["--out", path, "--quiet"])
        data = open(path, "rb").read() if os.path.exists(path) else b""
        print(json.dumps([name, code, hashlib.sha256(data).hexdigest(), loaded()]))
"""


def grid_load_steps(names) -> list:
    """[name, exit code, payload sha256, grid modules loaded] after the
    import and after each of the CLI_RUNS `names`, in a fresh interpreter."""
    steps = [(name, CLI_RUNS[name]) for name in names]
    code = GRID_LOAD_SCRIPT.format(modules=GRID_MODULES, steps=steps)
    return [json.loads(line) for line in fresh_python(code).splitlines()]


def test_import_and_curvature_subcommands_load_no_grid_layer():
    steps = grid_load_steps(["curvature", "criterion", "sweep", "pathcheck"])
    assert [s[0] for s in steps] == ["import", "curvature", "criterion", "sweep", "pathcheck"]
    assert all(s[1] == 0 and s[3] == [] for s in steps)


def test_grid_subcommands_load_the_grid_layers_and_write_the_same_bytes(tmp_path):
    names = ["dump-grid-csv", "dump-grid-json", "yamabe"]
    steps = grid_load_steps(names)
    assert steps[0][3] == []
    assert steps[1][3] == ["relyamabe.su2_chart"]
    assert steps[3][3] == list(GRID_MODULES)
    for name, code, sha, _ in steps[1:]:
        path = tmp_path / name
        assert main(CLI_RUNS[name] + ["--out", str(path), "--quiet"]) == code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_lazy_root_names_are_their_modules_objects():
    code = f"""
import importlib, json, relyamabe
out = []
for name, module in {GRID_NAMES!r}.items():
    before = name in vars(relyamabe)
    value = getattr(relyamabe, name)
    own = getattr(importlib.import_module("relyamabe." + module), name)
    out.append([name, before, value is own, vars(relyamabe).get(name) is value])
print(json.dumps(out))
"""
    rows = json.loads(fresh_python(code))
    assert [r[0] for r in rows] == list(GRID_NAMES)
    assert all(r[1:] == [False, True, True] for r in rows), rows
    for name, module in GRID_NAMES.items():
        assert getattr(relyamabe, name) is getattr(getattr(relyamabe, module), name)


def test_star_import_and_dir_hold_every_public_name():
    code = f"""
import json, sys, relyamabe
in_dir = set(dir(relyamabe))
names = {{}}
exec("from relyamabe import *", names)
print(json.dumps([sorted(set(relyamabe.__all__) - in_dir),
                  sorted(set(relyamabe.__all__) - set(names)),
                  [m for m in {GRID_MODULES!r} if m not in sys.modules]]))
"""
    missing_from_dir, unbound, not_loaded = json.loads(fresh_python(code))
    assert missing_from_dir == []
    assert unbound == []
    assert not_loaded == []
    assert set(GRID_NAMES) <= set(relyamabe.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        relyamabe.no_such_name
