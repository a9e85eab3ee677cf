"""Command line driver.

Subcommands expose the library's capabilities over deterministic JSON
or CSV payloads: `curvature` (one metric's curvature data), `sweep`
(classification over a parameter grid), `criterion` (pairwise
comparison), `yamabe` (quotient minimization), `pathcheck` (terminal
window along a path), and `dump-grid` (discretized metric dump).

Exit codes: 0 on success, 1 when a computation fails at runtime
(non-finite iterates, violated hypotheses, degenerate trials, a grid
that does not fit in memory) or the payload cannot be written out (a
full disk), 2 when the request itself is invalid (bad flags, malformed
files, metrics failing structural invariants, an --out path that cannot
be opened).  Payloads are byte-identical across reruns of the same
request: no subcommand draws anything at random.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import criterion as crit
from .errors import ChartDomainError, InputFormatError, InvalidMetricError, RelYamabeError
from .lie_curvature import (
    BergerParams,
    FrameMetric,
    LieAlgebraFrame,
    _ricci,
    berger_ricci_closed,
    berger_scalar_closed,
    curvature_report,
    su2_structure_constants,
)

__all__ = ["main"]

_INPUT_ERRORS = (InputFormatError, InvalidMetricError, ChartDomainError)


# === parsing helpers =====================================================


def parse_range(text: str, name: str) -> np.ndarray:
    """Parse 'a:b:n' into n uniform samples of [a, b].  n = 1 requires
    a = b; otherwise n >= 2 and a < b, and every sample must come out
    finite (a span wider than the largest float overflows)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputFormatError(f"{name}: expected 'start:stop:count', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise InputFormatError(f"{name}: could not parse {text!r} ({exc})") from exc
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputFormatError(f"{name}: endpoints must be finite in {text!r}")
    if n == 1:
        if a != b:
            raise InputFormatError(f"{name}: a single sample needs start == stop, got {text!r}")
        return np.array([a])
    if n < 1:
        raise InputFormatError(f"{name}: count must be a positive integer, got {text!r}")
    if a >= b:
        raise InputFormatError(f"{name}: needs start < stop for count > 1, got {text!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        values = a + (b - a) * np.arange(n) / (n - 1)
    if not np.all(np.isfinite(values)):
        raise InputFormatError(f"{name}: the samples of {text!r} overflow to non-finite values")
    return values


def parse_berger_token(token: str) -> BergerParams:
    """Parse 'berger:S,T' into parameters."""
    body = token.split(":", 1)[1]
    pieces = body.split(",")
    if len(pieces) != 2:
        raise InputFormatError(f"expected 'berger:S,T', got {token!r}")
    try:
        s, t = float(pieces[0]), float(pieces[1])
    except ValueError as exc:
        raise InputFormatError(f"expected numeric parameters in {token!r} ({exc})") from exc
    return BergerParams(s, t)


def _spec_numbers(path: str, key: str, value, ndim: int) -> np.ndarray:
    """A metric-file entry as a float array of `ndim` dimensions; an
    entry that is not that many nested lists of finite JSON numbers
    raises InputFormatError naming the file and key.  Every leaf is
    checked to be an int or a float: a bool or a numeric string is not
    a number here, though numpy would cast it to one."""
    kind = "a finite number" if ndim == 0 else f"a {ndim}-d array of finite numbers"
    try:
        leaves = np.asarray(value, dtype=object)
        bad = [x for x in leaves.flat if type(x) not in (int, float)]
        if bad:
            raise TypeError(f"{bad[0]!r} is not a JSON number")
        arr = leaves.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"metric file {path!r}: {key!r} is not numeric ({exc})") from exc
    except RuntimeError as exc:  # lists nested past the dimensions numpy supports
        raise InputFormatError(
            f"metric file {path!r}: {key!r} must be {kind}, but its lists nest too deeply ({exc})"
        ) from exc
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise InputFormatError(f"metric file {path!r}: {key!r} must be {kind}, got {value!r}")
    return arr


def load_metric_spec(path: str) -> tuple[LieAlgebraFrame, FrameMetric, BergerParams | None]:
    """Load a metric description from a UTF-8 JSON file.

    Two forms are accepted: {"berger": {"s": ..., "t": ...}} or
    {"metric": [[...]x3], "structure_constants": [[[...]]]} with the
    structure constants optional (defaulting to the su(2) frame).
    Unknown keys are rejected.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read metric file {path!r}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested past the decoder's depth
        raise InputFormatError(f"metric file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(f"metric file {path!r} must hold a JSON object")

    if "berger" in doc:
        extra = set(doc) - {"berger"}
        if extra:
            raise InputFormatError(
                f"metric file {path!r}: unknown keys {sorted(extra)} next to 'berger'"
            )
        body = doc["berger"]
        if not isinstance(body, dict) or set(body) != {"s", "t"}:
            raise InputFormatError(
                f"metric file {path!r}: 'berger' must be an object with exactly "
                "the keys 's' and 't'"
            )
        params = BergerParams(*(_spec_numbers(path, f"berger.{k}", body[k], 0) for k in "st"))
        return su2_structure_constants(), params.metric(), params

    allowed = {"metric", "structure_constants"}
    extra = set(doc) - allowed
    if extra:
        raise InputFormatError(
            f"metric file {path!r}: unknown keys {sorted(extra)}; "
            f"expected 'berger' or {sorted(allowed)}"
        )
    if "metric" not in doc:
        raise InputFormatError(f"metric file {path!r}: missing 'metric' (or 'berger') entry")
    metric = FrameMetric(_spec_numbers(path, "metric", doc["metric"], 2))
    if "structure_constants" in doc:
        c = _spec_numbers(path, "structure_constants", doc["structure_constants"], 3)
        frame = LieAlgebraFrame(c=c)
    else:
        frame = su2_structure_constants()
    return frame, metric, None


def resolve_metric_token(token: str) -> tuple[LieAlgebraFrame, FrameMetric, BergerParams | None]:
    """Resolve a metric argument: 'round', 'berger:S,T', or a JSON file path."""
    if token == "round":
        return su2_structure_constants(), FrameMetric.round(), BergerParams(1.0, 1.0)
    if token.startswith("berger:"):
        params = parse_berger_token(token)
        return su2_structure_constants(), params.metric(), params
    return load_metric_spec(token)


def resolve_geometry(token: str) -> BergerParams:
    """Geometry names accepted by grid-based subcommands."""
    if token in ("round", "round-hemisphere"):
        return BergerParams(1.0, 1.0)
    if token.startswith("berger:"):
        return parse_berger_token(token)
    raise InputFormatError(
        f"unknown geometry {token!r}; expected 'round', 'round-hemisphere', or 'berger:S,T'"
    )


# === output formatting ===================================================


def _pythonify(value):
    """A payload value as builtins, non-finite floats as None, for the
    CSV key,value lines.  Payloads hold dicts, lists, tuples, arrays,
    floats (np.float64 is one) and builtin ints, bools and strings."""
    if isinstance(value, dict):
        return {k: _pythonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pythonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _pythonify(value.tolist())
    if isinstance(value, float):
        f = float(value)
        return f if math.isfinite(f) else None
    return value


def _column_cells(col, csv: bool, prefix: str = "") -> list[str]:
    """The cells of one table column, `prefix` leading each, with every
    distinct value formatted once and fanned back out to its rows.

    A float's cell is its shortest round-trip repr, or "nan" (CSV) /
    "null" (JSON) when it is not finite; floats are told apart by their
    bit patterns, so -0.0 and 0.0 stay distinct.  Any other cell is its
    str (CSV) or its JSON text."""
    col = np.asarray(col)
    floats = col.dtype.kind == "f"
    keys = col.view(f"u{col.itemsize}") if floats else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    values = col[first].tolist()
    if floats:
        null = "nan" if csv else "null"
        text = [repr(v) if math.isfinite(v) else null for v in values]
    else:
        text = list(map(str if csv else json.dumps, values))
    return np.array([prefix + c for c in text], dtype=object)[inverse].tolist()


def _is_table(value) -> bool:
    """Whether `value` is a table: a structured array, one row per
    element, whose dtype names the columns in order."""
    return isinstance(value, np.ndarray) and value.dtype.names is not None


def render_rows_csv(table: np.ndarray) -> str:
    """CSV of a table: a header line of its column names, then one line
    per row."""
    names = table.dtype.names
    cells = [_column_cells(table[c], csv=True) for c in names]
    return "\n".join([",".join(names), *map(",".join, zip(*cells))]) + "\n"


def _rows_json(table: np.ndarray, indent: str) -> str:
    """The list of row objects, with sorted keys, of a table whose text
    starts on a line indented by `indent`: the text json.dumps(indent=2,
    sort_keys=True) gives that list there, assembled from column cells."""
    row = indent + "  "
    cells = [
        _column_cells(table[c], csv=False, prefix=f"{row}  {json.dumps(c)}: ")
        for c in sorted(table.dtype.names)
    ]
    objects = list(map(",\n".join, zip(*cells)))
    if not objects:
        return "[]"
    return f"[\n{row}{{\n" + f"\n{row}}},\n{row}{{\n".join(objects) + f"\n{row}}}\n{indent}]"


_quote = json.encoder.encode_basestring_ascii  # the string escaper json.dumps runs


def _json(value, indent: str = "") -> str:
    """The text json.dumps(_pythonify(value), indent=2, sort_keys=True)
    gives a payload value whose text starts on a line indented by
    `indent`, with every table rendered from its columns by `_rows_json`
    as the list of its row objects.  Dict keys must be strings (any
    other key raises TypeError)."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = f",\n{inner}".join([_json(v, inner) for v in value])
        return f"[\n{inner}{items}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = f",\n{inner}".join([f"{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value)])
        return f"{{\n{inner}{items}\n{indent}}}"
    if isinstance(value, np.ndarray):
        return _rows_json(value, indent) if _is_table(value) else _json(value.tolist(), indent)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_payload(payload, fmt: str) -> str:
    """Render a dict payload, or a table (a structured array, whose dtype
    gives the column names and their order), in `fmt`, "json" or "csv".
    A table renders as CSV rows or as the JSON {"rows": [...]}; a table
    that is an entry of a dict payload renders in JSON as the list of
    its row objects."""
    if _is_table(payload):
        if fmt == "csv":
            return render_rows_csv(payload)
        payload = {"rows": payload}
    elif fmt == "csv":
        flat = _pythonify(payload)
        lines = ["key,value"]
        for key in sorted(flat):
            val = flat[key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
                val = '"' + val.replace('"', '""') + '"'
            elif val is None:
                val = "nan"
            lines.append(f"{key},{val}")
        return "\n".join(lines) + "\n"
    return _json(payload) + "\n"


def emit(args: argparse.Namespace, payload, summary: str) -> None:
    """Write the payload, rendered in --format, to the --out file or to
    stdout, then the summary line to stderr unless --quiet.  An --out
    file that cannot be opened raises InputFormatError and a failed write
    (a full disk) RelYamabeError; BrokenPipeError propagates."""
    text = render_payload(payload, args.format)
    if args.out is not None:  # an empty path is a file that cannot be opened
        try:
            out = open(args.out, "w")
        except OSError as exc:
            raise InputFormatError(f"cannot write --out file {args.out!r}: {exc}") from exc
    try:
        if args.out is not None:
            with out:
                out.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if args.out is None:  # stdout keeps the unwritten bytes: shutdown must not flush them
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise RelYamabeError(f"cannot write the payload: {exc}") from exc
    if not args.quiet:
        sys.stderr.write(summary.rstrip("\n") + "\n")


# === subcommands =========================================================


def cmd_curvature(args: argparse.Namespace) -> None:
    if args.spec is not None:
        if args.s is not None or args.t is not None:
            raise InputFormatError("--spec excludes --s/--t")
        frame, metric, params = load_metric_spec(args.spec)
    else:
        if args.s is None or args.t is None:
            raise InputFormatError("curvature needs either --s and --t, or --spec FILE")
        params = BergerParams(args.s, args.t)
        frame, metric = su2_structure_constants(), params.metric()

    rep = curvature_report(frame, metric)
    payload = {
        "metric": rep.metric.matrix,
        "ricci": rep.ricci,
        "scalar": rep.scalar,
        "ricci_eigenvalues": rep.ricci_eigenvalues,
        "einstein_deviation": rep.einstein_deviation,
    }
    summary = f"scalar curvature R = {rep.scalar:.12g}"
    if params is not None:
        closed_eigs = np.sort(berger_ricci_closed(params))
        payload["closed_form_delta"] = {  # the report's eigenvalues ascend
            "scalar": abs(rep.scalar - berger_scalar_closed(params)),
            "ricci_eigenvalues": np.abs(rep.ricci_eigenvalues - closed_eigs).max(),
        }
        payload["s"], payload["t"] = params.s, params.t
        summary += (
            f" (closed-form delta {payload['closed_form_delta']['scalar']:.3e}), "
            f"einstein deviation {rep.einstein_deviation:.3e}"
        )
    emit(args, payload, summary)


def cmd_sweep(args: argparse.Namespace) -> None:
    s_values = parse_range(args.s, "--s")
    t_values = parse_range(args.t, "--t")
    rows = crit.berger_sweep(s_values, t_values)
    n_valid = int(np.count_nonzero(rows["verdict"] != "invalid"))
    summary = f"swept {len(rows)} parameter pairs ({n_valid} in domain)"
    emit(args, rows, summary)


def cmd_criterion(args: argparse.Namespace) -> None:
    frame_g, metric_g, _ = resolve_metric_token(args.g)
    frame_h, metric_h, _ = resolve_metric_token(args.h)
    # R_g G - R_h H compares matrices, which says something only when
    # both are written in the same basis
    if not np.array_equal(frame_g.c, frame_h.c):
        raise InputFormatError(
            "--g and --h are given in frames with different structure constants; "
            "the comparison needs both metrics in one frame"
        )
    r_g, r_h = _ricci(frame_g.c, np.stack([metric_g.matrix, metric_h.matrix]))[2].tolist()
    report = crit.theorem1_check(metric_g, r_g, metric_h, r_h)
    summary = (
        f"verdict {report.verdict}: min_eig = {report.min_eig:.12g}, "
        f"gamma = {report.gamma:.12g}"
    )
    emit(args, vars(report), summary)


def cmd_yamabe(args: argparse.Namespace) -> None:
    # the grid layers load here and in cmd_dump_grid, not with the module:
    # no other subcommand uses them
    from .su2_chart import HopfGrid, chart_metric
    from .yamabe_estimator import estimate

    params = resolve_geometry(args.geometry)
    metric = chart_metric(HopfGrid.cube(args.resolution), params)
    (scalar,) = _ricci(su2_structure_constants().c, params.metric().matrix[None])[2].tolist()
    result = estimate(metric, scalar)
    summary = (
        f"quotient estimate {result.value:.8f} "
        f"(converged={result.converged}, iterations={result.iterations_used})"
    )
    payload = {
        "value": result.value,
        "converged": result.converged,
        "iterations": result.iterations_used,
        "neumann_residual": result.neumann_residual_of_minimizer,
        "trace": result.trace,
    }
    emit(args, payload, summary)


def cmd_pathcheck(args: argparse.Namespace) -> None:
    report = crit.corollary_path_check(args.s, args.t_start, args.t_end, args.steps)
    summary = (
        f"delta = {report.delta:.12g}, endpoint scalar = {report.endpoint_scalar:.3e} "
        f"over [{report.t_start:g}, {report.t_end:g}]"
    )
    # the JSON payload holds the report's fields, with the samples left
    # a table that renders from its columns
    payload = report.samples if args.format == "csv" else vars(report)
    emit(args, payload, summary)


def cmd_dump_grid(args: argparse.Namespace) -> None:
    from .su2_chart import HopfGrid, chart_metric

    params = resolve_geometry(args.geometry)
    grid = HopfGrid.cube(args.resolution)
    metric = chart_metric(grid, params)
    names = ("eta", "xi1", "xi2")
    comps = dict(zip(names, grid.meshes()), sqrt_det=metric.sqrt_det)
    for a, b in zip(*np.triu_indices(3)):  # g_eta_eta, g_eta_xi1, ..., g_xi2_xi2
        comps[f"g_{names[a]}_{names[b]}"] = metric.g[a, b]
    table = np.empty(grid.size, [(name, float) for name in comps])
    for name, values in comps.items():
        table[name] = values.reshape(-1)
    summary = f"dumped {grid.size} cells at resolution {args.resolution}"
    emit(args, table, summary)


# === argument wiring =====================================================


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing does not modify it)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and the map from each subcommand's name to
    the parser of its own arguments."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the payload to PATH instead of stdout")
    # the subparsers share this action, so set_defaults(format=...) on one would set all of them
    common.add_argument("--format", default=None, choices=("json", "csv"), help="payload format")
    common.add_argument("--quiet", action="store_true", help="suppress the stderr summary line")

    parser = argparse.ArgumentParser(
        prog="relyamabe",
        description="Curvature, comparison criterion, and conformal quotient "
        "estimation for left invariant metrics on the 3-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", parents=[common], help="curvature of one metric")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--spec", default=None, help="JSON metric description file")
    p.set_defaults(fn=cmd_curvature, default_format="json")

    p = sub.add_parser("sweep", parents=[common], help="classify a parameter grid")
    p.add_argument("--s", required=True, help="range start:stop:count")
    p.add_argument("--t", required=True, help="range start:stop:count")
    p.set_defaults(fn=cmd_sweep, default_format="csv")

    p = sub.add_parser("criterion", parents=[common], help="pairwise comparison check")
    p.add_argument("--g", required=True, help="reference: round | berger:S,T | file.json")
    p.add_argument("--h", required=True, help="candidate: round | berger:S,T | file.json")
    p.set_defaults(fn=cmd_criterion, default_format="json")

    p = sub.add_parser("yamabe", parents=[common], help="minimize the conformal quotient")
    p.add_argument("--geometry", default="round-hemisphere")
    p.add_argument("--resolution", type=int, default=32)
    p.set_defaults(fn=cmd_yamabe, default_format="json")

    p = sub.add_parser("pathcheck", parents=[common], help="terminal window along a path")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t-start", type=float, required=True)
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(fn=cmd_pathcheck, default_format="json")

    p = sub.add_parser("dump-grid", parents=[common], help="dump the discretized metric")
    p.add_argument("--geometry", default="round-hemisphere")
    p.add_argument("--resolution", type=int, default=16)
    p.set_defaults(fn=cmd_dump_grid, default_format="csv")

    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace build_parser().parse_args(argv) gives.  A request
    that names a subcommand is read by that subcommand's parser alone,
    which the top-level parser would hand the same arguments to after
    scanning them once more; an unknown flag then prints the
    subcommand's usage line."""
    parser, subcommands = _parsers()
    if argv and argv[0] in subcommands:
        return subcommands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.format is None:
        args.format = args.default_format
    try:
        args.fn(args)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RelYamabeError as exc:  # every other class is a runtime failure
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # a grid too large for this machine
        sys.stderr.write(f"error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return 1
    except BrokenPipeError:  # the reader closed stdout early (piping into head)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
