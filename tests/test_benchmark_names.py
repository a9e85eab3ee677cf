"""Every name the benchmark reads from the package resolves.

The benchmark under `benchmarks/` wraps the functions that
`spans.TRACED` names, calls the package-root names that `workloads.py`
reads as `lib.<name>` (two of them by string, through `_root_op`), and
its self-test checks that `criterion.curvature_report` is wrapped.  A
simplification that deletes or moves one of these names breaks the
benchmark; this test says which name it was.  The benchmark sources are
parsed, not imported, so nothing is written under `benchmarks/`."""

import ast
import importlib
from pathlib import Path

import pytest

import relyamabe

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _traced() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of `spans.TRACED`."""
    tree = ast.parse((BENCHMARKS / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/spans.py defines no TRACED")


def _root_names() -> list[str]:
    """The package-root names `workloads.py` reads: every `lib.<name>`
    and `ctx.lib.<name>`, and every string `_root_op` looks up."""
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            (isinstance(node.value, ast.Name) and node.value.id == "lib")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "lib")
        ):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_root_op"):
            names.update(a.value for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return sorted(names)


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


TRACED = _traced()
ROOT_NAMES = _root_names()


def test_the_benchmark_sources_name_something():
    # an empty list would make the tests below pass vacuously
    assert len(TRACED) >= 20
    assert {"boundary_curve", "scalar_sign_curve", "chart_metric"} <= set(ROOT_NAMES)


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_function_resolves(module, attr):
    assert callable(_resolve(importlib.import_module(f"relyamabe.{module}"), attr))


@pytest.mark.parametrize("name", ROOT_NAMES)
def test_workload_root_name_resolves(name):
    assert hasattr(relyamabe, name)


def test_selftest_import_resolves():
    assert callable(_resolve(relyamabe, "criterion.curvature_report"))
