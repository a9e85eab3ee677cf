"""The columnar table renderers against row-by-row, cell-by-cell
references: `sweep`, `pathcheck` and `dump-grid` payloads keep their
bytes, CSV and JSON alike, including invalid and non-finite sweep
parameters, and a table nested in a dict payload (the `pathcheck` JSON
samples) renders as json.dumps renders its row dicts there.  A table is
a structured array from the criterion engine to the payload: the CLI
renders the tables the public engine functions return, one call each.
Property tests draw structured tables with heavy repetition, signed
zeros, NaN of either sign and payload, infinities, subnormals, float64,
float32 and string fields, and dict payloads of every kind of value a
payload holds, which the CLI's own JSON encoder must render as
json.dumps(indent=2, sort_keys=True) renders their builtins; the search
is derandomized."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from relyamabe import (
    BergerParams,
    HopfGrid,
    berger_sweep,
    chart_metric,
    corollary_path_check,
    criterion,
)
from relyamabe.cli import main, render_payload, render_rows_csv

SWEEP_COLUMNS = ("s", "t", "R", "einstein_dev", "min_eig", "gamma", "verdict")
PATH_COLUMNS = ("t", "scalar", "min_eig", "gamma", "verdict")
GRID_COLUMNS = (
    "eta", "xi1", "xi2", "sqrt_det",
    "g_eta_eta", "g_eta_xi1", "g_eta_xi2", "g_xi1_xi1", "g_xi1_xi2", "g_xi2_xi2",
)


def cell(value) -> str:
    if isinstance(value, (np.floating, float)):
        f = float(value)
        return repr(f) if math.isfinite(f) else "nan"
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return str(int(value))
    return str(value)


def rows_csv(rows, columns) -> str:
    """One line per row dict, one cell at a time."""
    lines = [",".join(columns)]
    lines += [",".join(cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def row_dicts(table) -> list[dict]:
    """The rows of a structured array as dicts of builtins."""
    return [dict(zip(table.dtype.names, row)) for row in table.tolist()]


def plain(value):
    """A payload value as the builtins json.dumps takes: a table as the
    list of its row dicts, any other array as its nested lists, a tuple
    as a list, and a float that is not finite as None."""
    if isinstance(value, np.ndarray):
        return plain(row_dicts(value) if value.dtype.names else value.tolist())
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    return value


def rows_json(rows) -> str:
    return json.dumps({"rows": plain(list(rows))}, indent=2, sort_keys=True) + "\n"


def payload_json(payload) -> str:
    return json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"


def run(tmp_path, *argv) -> str:
    out = tmp_path / "payload"
    assert main(list(argv) + ["--out", str(out), "--quiet"]) == 0
    return out.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--s", "1", "--t", "3"),
        ("criterion", "--g", "round", "--h", "berger:1.7,4.6"),
        ("yamabe", "--geometry", "berger:1,3.5", "--resolution", "8"),
    ],
    ids=["curvature", "criterion", "yamabe"],
)
def test_cli_dict_payload_csv_equals_its_json(tmp_path, argv):
    # a dict payload renders as key,value rows in key order: a dict or
    # list cell is its quoted JSON, nan is JSON's null, a float its repr
    header, *rows = csv.reader(io.StringIO(run(tmp_path, *argv, "--format", "csv")))
    payload = json.loads(run(tmp_path, *argv, "--format", "json"))
    assert header == ["key", "value"]
    assert [key for key, _ in rows] == sorted(payload)
    for key, text in rows:
        value = payload[key]
        if isinstance(value, (dict, list)):
            assert json.loads(text) == value, key
        elif text == "nan":
            assert value is None, key
        elif isinstance(value, float):
            assert text == repr(value), key
        else:
            assert text == str(value), key


def grid_rows(geometry: BergerParams, n: int) -> list[dict]:
    grid = HopfGrid.cube(n)
    metric = chart_metric(grid, geometry)
    e, x1, x2 = grid.meshes()
    comps = [e, x1, x2, metric.sqrt_det] + [
        metric.g[i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    ]
    flat = [c.reshape(-1) for c in comps]
    return [{k: float(f[i]) for k, f in zip(GRID_COLUMNS, flat)} for i in range(grid.size)]


NONFINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize(
    "s_values, t_values",
    [
        ([0.5, 1.0, 2.0, 3.5], [0.25, 1.0, 1.5, 3.0, 4.5, 8.0]),
        ([1.0] + NONFINITE + [2.0], [3.0] + NONFINITE + [0.5]),
        (NONFINITE, NONFINITE),
    ],
)
def test_sweep_columns_render_like_rows(s_values, t_values):
    table = berger_sweep(s_values, t_values)
    assert table.dtype.names == SWEEP_COLUMNS
    rows = row_dicts(table)
    text = render_rows_csv(table)
    assert text == rows_csv(rows, SWEEP_COLUMNS)
    body = [line.split(",") for line in text.splitlines()[1:]]
    assert len(body) == len(s_values) * len(t_values)
    for row, cells in zip(rows, body):
        for key, cell_text in zip(SWEEP_COLUMNS, cells):
            if isinstance(row[key], float) and not math.isfinite(row[key]):
                assert cell_text == "nan"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_sweep_payload(tmp_path, fmt):
    text = run(tmp_path, "sweep", "--s", "0.5:4:8", "--t", "0.2:6:9", "--format", fmt)
    rows = row_dicts(berger_sweep(0.5 + 3.5 * np.arange(8) / 7, 0.2 + 5.8 * np.arange(9) / 8))
    assert text == (rows_csv(rows, SWEEP_COLUMNS) if fmt == "csv" else rows_json(rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [4, 6, 24])
def test_cli_dump_grid_payload(tmp_path, n, fmt):
    text = run(
        tmp_path, "dump-grid", "--geometry", "berger:1.3,2.7", "--resolution", str(n),
        "--format", fmt,
    )
    rows = grid_rows(BergerParams(1.3, 2.7), n)
    assert text == (rows_csv(rows, GRID_COLUMNS) if fmt == "csv" else rows_json(rows))


@pytest.mark.parametrize("t_end, steps", [(4.0, 20), (3.0, 5)])
def test_cli_pathcheck_csv(tmp_path, t_end, steps):
    text = run(
        tmp_path, "pathcheck", "--s", "1", "--t-start", "3", "--t-end", str(t_end),
        "--steps", str(steps), "--format", "csv",
    )
    report = corollary_path_check(1.0, 3.0, t_end, steps)
    assert report.samples.dtype.names == PATH_COLUMNS
    assert text == rows_csv(row_dicts(report.samples), PATH_COLUMNS)


@pytest.mark.parametrize(
    "s, t_start, t_end, steps",
    [(1.0, 3.0, 4.0, 100), (1.0, 1.0, 4.0, 1), (2.25, 2.25, 6.25, 37), (1.0, 4.0, 4.0, 10)],
)
def test_cli_pathcheck_json(tmp_path, s, t_start, t_end, steps):
    # the last case is a degenerate path: its samples are an empty list
    text = run(
        tmp_path, "pathcheck", "--s", str(s), "--t-start", str(t_start), "--t-end", str(t_end),
        "--steps", str(steps),
    )
    report = corollary_path_check(s, t_start, t_end, steps)
    assert text == payload_json({**vars(report), "samples": row_dicts(report.samples)})


SPECIAL = [
    0.0,
    -0.0,
    float("nan"),
    -float("nan"),
    np.array(0x7FF8_0000_0000_0001, dtype=np.uint64).view(np.float64).item(),  # NaN payload
    float("inf"),
    -float("inf"),
    5e-324,
    -2.5e-310,
    np.finfo(np.float32).smallest_subnormal.item(),
    0.1,
    1e300,
]


@st.composite
def tables(draw):
    """A structured array of 0 to 30 rows with few distinct values per
    field: float64, float32 or string fields.  String fields are object
    dtype: a numpy unicode field would strip trailing NULs, which the
    text strategy can draw."""
    names = draw(st.lists(st.text("abgtxz_", min_size=1, max_size=4), min_size=1, max_size=5,
                          unique=True))
    kinds = [draw(st.sampled_from(["f8", "f4", "str"])) for _ in names]
    n = draw(st.integers(0, 30))
    table = np.empty(n, [(name, object if kind == "str" else kind)
                         for name, kind in zip(names, kinds)])
    for name, kind in zip(names, kinds):
        if kind == "str":
            values = st.text(st.characters(codec="utf-8"), max_size=5)
        else:
            values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=32 if kind == "f4" else 64))
        pool = draw(st.lists(values, min_size=1, max_size=6))
        cells = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                                                max_size=n))]
        with np.errstate(over="ignore"):  # 1e300 reads inf in float32
            table[name] = cells
    return table


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tables())
def test_table_renderers_equal_row_references(table):
    columns = table.dtype.names
    rows = row_dicts(table)
    assert render_rows_csv(table) == rows_csv(rows, columns)
    assert render_payload(table, "json") == rows_json(rows)
    # the same table as one entry of a dict payload, between entries that
    # sort before and after it, nested and non-finite ones among them
    others = {"a": -0.0, "m": {"z": [1, float("nan")], "b": []}, "zz": float("inf"), "n": 3}
    payload = {**others, "samples": table}
    want = payload_json({**others, "samples": rows})
    assert render_payload(payload, "json") == want


def count_calls(monkeypatch, name: str) -> list:
    """Wrap criterion.`name` under every relyamabe module attribute that
    holds it, as the benchmark tracer does; each call appends its result
    to the returned list."""
    original = getattr(criterion, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "relyamabe" or key.startswith("relyamabe.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return results


@pytest.mark.parametrize(
    "fn, argv",
    [
        ("berger_sweep", ["sweep", "--s", "0.5:4:8", "--t", "0.2:6:9"]),
        ("corollary_path_check", ["pathcheck", "--s", "1", "--t-start", "3", "--t-end", "4"]),
    ],
)
def test_cli_renders_the_public_engine_table(tmp_path, monkeypatch, fn, argv):
    results = count_calls(monkeypatch, fn)
    header, *lines = run(tmp_path, *argv, "--format", "csv").splitlines()
    assert len(results) == 1
    table = results[0] if fn == "berger_sweep" else results[0].samples
    assert header.split(",") == list(table.dtype.names)
    assert len(table) == len(lines) == (72 if fn == "berger_sweep" else 101)


#: floats a payload array or entry may hold: both zeros, both infinities,
#: NaN, subnormals and the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2.5e-310,
               1e308, -1e308, 1.7976931348623157e308, 0.1]
float_values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=float_values,
)
#: strings with non-ASCII and control characters
texts = st.text(st.characters(codec="utf-8"), max_size=6)
leaves = st.one_of(
    float_values,
    float_values.map(np.float64),  # a float whose repr is not its JSON text
    float_arrays,
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**200), 10**300]),
    texts,
    st.none(),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def dict_payloads(draw):
    """A dict payload, with a table entry or none."""
    payload = draw(st.dictionaries(texts, values, max_size=6))
    if draw(st.booleans()):
        payload[draw(texts)] = draw(tables())
    return payload


def small_table(n: int) -> np.ndarray:
    table = np.empty(n, [("t", "f8"), ("verdict", "O")])
    table["t"] = [1.5, float("nan"), -0.0][:n] + [2.0] * max(0, n - 3)
    table["verdict"] = ["AppliesStrict", "Fails", "\u00e9\n"][:n] + ["x"] * max(0, n - 3)
    return table


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dict_payloads())
@example({})
@example({"a": [], "b": {}, "c": (), "d": np.empty((0, 3)), "e": [[], {}]})
@example({"t": True, "f": False, "n": None, "big": 10**400 // 10**100, "s": "\x00\u2603\t\"\\"})
@example({"samples": small_table(0), "z": 1.0})
@example({"samples": small_table(5), "a": {"b": [np.array([-0.0, 5e-324, 1e308])]}})
def test_dict_payload_json_equals_json_dumps(payload):
    # the CLI encodes a dict payload itself: its text is the standard
    # library's, indented by 2 with sorted keys, for every kind of value
    assert render_payload(payload, "json") == payload_json(payload)
