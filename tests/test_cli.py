"""Command-line surface: subcommands, exit codes, formats, determinism."""

import csv
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relyamabe.su2_chart
from relyamabe import su2_structure_constants
from relyamabe.cli import _parse_args, build_parser, main, parse_range


def run(tmp_path, *argv):
    """Run one CLI invocation writing to a scratch file; return
    (exit_code, bytes)."""
    out = tmp_path / f"out_{abs(hash(argv)) % 10**8}.dat"
    code = main(list(argv) + ["--out", str(out), "--quiet"])
    data = out.read_bytes() if out.exists() else b""
    return code, data


#: spec files with an entry that is not a finite number, and that entry's key
NON_NUMERIC_SPECS = [
    ({"berger": {"s": "a", "t": 2}}, "berger.s"),
    ({"berger": {"s": 1, "t": None}}, "berger.t"),
    ({"berger": {"s": [1, 2], "t": 3}}, "berger.s"),
    ({"metric": [[1, 0, 0], [0, "x", 0], [0, 0, 1]]}, "metric"),
    ({"metric": [[1, 0, 0], [0, None, 0], [0, 0, 1]]}, "metric"),
    ({"metric": np.eye(3).tolist(), "structure_constants": [[["q"] * 3] * 3] * 3},
     "structure_constants"),
    # numpy casts these to numbers; a metric file takes only JSON numbers
    ({"berger": {"s": True, "t": 2}}, "berger.s"),
    ({"berger": {"s": "2", "t": 3}}, "berger.s"),
    ({"metric": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}, "metric"),
    # an integer too large for a float
    ({"berger": {"s": 10 ** 400, "t": 2}}, "berger.s"),
    # lists nested past the 32 dimensions numpy supports
    ({"metric": json.loads("[" * 40 + "1" + "]" * 40)}, "metric"),
    ({"berger": {"s": json.loads("[" * 40 + "1" + "]" * 40), "t": 2}}, "berger.s"),
]


def assert_names_bad_entry(capsys, spec, key):
    err = capsys.readouterr().err
    assert str(spec) in err and repr(key) in err


def write_non_utf8(tmp_path):
    """A metric file that opens with a UTF-16 byte order mark."""
    spec = tmp_path / "utf16.json"
    spec.write_bytes(b"\xff\xfe{}")
    return spec


def assert_cannot_read(capsys, spec):
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read metric file {str(spec)!r}")
    assert err.count("\n") == 1


class TestParseRange:
    def test_linear_range(self):
        vals = parse_range("1:4:4", "s")
        assert np.allclose(vals, [1.0, 2.0, 3.0, 4.0])

    def test_singleton(self):
        assert list(parse_range("2:2:1", "s")) == [2.0]

    def test_malformed(self):
        from relyamabe import InputFormatError

        for bad in ("1:4", "4:1:5", "1:4:0", "1:2:1", "a:b:c"):
            with pytest.raises(InputFormatError):
                parse_range(bad, "t")

    @pytest.mark.parametrize("text", ["1:1e308:3", "-1e308:1e308:2", "-1.7e308:1.7e308:5"])
    def test_overflowing_samples_rejected(self, tmp_path, capsys, text):
        from relyamabe import InputFormatError

        with pytest.raises(InputFormatError, match="overflow"):
            parse_range(text, "--s")
        code, data = run(tmp_path, "sweep", f"--s={text}", "--t", "1:2:2")
        assert (code, data) == (2, b"")
        assert capsys.readouterr().err.startswith("error: --s: ")


class TestCurvature:
    def test_berger_point(self, tmp_path):
        code, data = run(tmp_path, "curvature", "--s", "1", "--t", "3")
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {
            "metric", "ricci", "scalar", "ricci_eigenvalues", "einstein_deviation",
            "closed_form_delta", "s", "t",
        }
        assert payload["scalar"] == pytest.approx(2.0, abs=1e-12)
        deltas = payload["closed_form_delta"]
        assert all(abs(v) < 1e-10 for v in deltas.values())

    def test_round_point(self, tmp_path):
        code, data = run(tmp_path, "curvature", "--s", "1", "--t", "1")
        assert code == 0
        payload = json.loads(data)
        assert payload["scalar"] == pytest.approx(6.0, abs=1e-12)
        assert payload["einstein_deviation"] <= 1e-12

    def test_spec_file_round_trip(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"berger": {"s": 1.0, "t": 3.5}}))
        code, data = run(tmp_path, "curvature", "--spec", str(spec))
        assert code == 0
        assert json.loads(data)["scalar"] == pytest.approx(1.0, abs=1e-12)

    def test_custom_metric_spec(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(
            json.dumps({"metric": [[1, 0, 0], [0, 2, 0], [0, 0, 2]]})
        )
        code, data = run(tmp_path, "curvature", "--spec", str(spec))
        assert code == 0
        # a metric given as a matrix has no closed form to compare against
        assert set(json.loads(data)) == {
            "metric", "ricci", "scalar", "ricci_eigenvalues", "einstein_deviation",
        }

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"berger": {"s": 1.0, "t": 3.0}, "oops": 1}))
        assert main(["curvature", "--spec", str(spec)]) == 2
        assert "oops" in capsys.readouterr().err

    def test_bad_structure_constants_rejected_on_every_load(self, tmp_path, capsys):
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = 2.0  # missing the antisymmetric partner
        spec = tmp_path / "bad_c.json"
        spec.write_text(
            json.dumps({"metric": np.eye(3).tolist(), "structure_constants": c.tolist()})
        )
        for _ in range(2):
            assert main(["curvature", "--spec", str(spec)]) == 2
            assert "antisymmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        # antisymmetric constants near 1e160 whose Jacobi residual is 1:
        # unnormalized, the cyclic sum is inf - inf
        ({"metric": np.eye(3).tolist(), "structure_constants": (1e160 * np.array([
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
            [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]],
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        ])).tolist()}, "violate the Jacobi identity"),
        # m - m^T overflows
        ({"metric": [[1e308, 1e308, 0], [-1e308, 1e308, 0], [0, 0, 1]]}, "must be symmetric"),
    ], ids=["jacobi", "symmetry"])
    def test_identity_violations_near_overflow_exit_2(self, tmp_path, capsys, doc, message):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        assert main(["curvature", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("doc, key", NON_NUMERIC_SPECS)
    def test_non_numeric_entry_exits_2(self, tmp_path, capsys, doc, key):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        assert main(["curvature", "--spec", str(spec)]) == 2
        assert_names_bad_entry(capsys, spec, key)

    @pytest.mark.parametrize(
        "doc", ['{"metric": %s}', '{"berger": {"s": %s, "t": 2}}'], ids=["metric", "berger"]
    )
    def test_file_nested_past_the_decoder_depth_exits_2(self, tmp_path, capsys, doc):
        # written by hand: json.dumps cannot recurse this deep either
        spec = tmp_path / "deep.json"
        spec.write_text(doc % ("[" * 100_000 + "1" + "]" * 100_000))
        assert main(["curvature", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: metric file {str(spec)!r} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["curvature", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        spec = write_non_utf8(tmp_path)
        assert main(["curvature", "--spec", str(spec)]) == 2
        assert_cannot_read(capsys, spec)

    def test_invalid_params_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "curvature", "--s", "2", "--t", "1")
        assert code == 2

    def test_requires_exactly_one_input_mode(self, tmp_path):
        code, _ = run(tmp_path, "curvature")
        assert code == 2


class TestSweep:
    def test_region_transitions_dense_line(self, tmp_path):
        code, data = run(
            tmp_path, "sweep", "--s", "1:1:1", "--t", "1:5:401", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(data.decode().splitlines()))
        assert len(rows) == 401
        ts = [float(r["t"]) for r in rows]
        step = ts[1] - ts[0]
        verdicts = [r["verdict"] for r in rows]
        changes = [
            (ts[i], verdicts[i + 1])
            for i in range(len(rows) - 1)
            if verdicts[i] != verdicts[i + 1]
        ]
        crossings3 = [t for t, v in changes if v in ("Theorem1Boundary", "Theorem1Strict")]
        crossings4 = [t for t, v in changes if v == "AutoYamabeNonpositive"]
        assert crossings3 and all(abs(t - 3.0) <= step for t in crossings3)
        assert crossings4 and all(abs(t - 4.0) <= step for t in crossings4)

    def test_grid_row_count(self, tmp_path):
        code, data = run(
            tmp_path, "sweep", "--s", "1:4:4", "--t", "1:8:8", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(data.decode().splitlines()))
        assert len(rows) == 32
        assert rows[0].keys() == {
            "s",
            "t",
            "R",
            "einstein_dev",
            "min_eig",
            "gamma",
            "verdict",
        }
        invalid = [r for r in rows if r["verdict"] == "invalid"]
        assert len(invalid) == 6  # cells with t < s

    def test_known_row(self, tmp_path):
        code, data = run(
            tmp_path, "sweep", "--s", "1:1:1", "--t", "3.5:3.5:1", "--format", "csv"
        )
        rows = list(csv.DictReader(data.decode().splitlines()))
        assert code == 0 and rows[0]["verdict"] == "Theorem1Strict"

    def test_malformed_range_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--s", "1:4", "--t", "1:8:8")
        assert code == 2

    def test_deterministic_bytes(self, tmp_path):
        args = ("sweep", "--s", "1:2:3", "--t", "1:6:11")
        _, a = run(tmp_path, *args)
        out2 = tmp_path / "again.csv"
        main(list(args) + ["--out", str(out2), "--quiet"])
        assert a == out2.read_bytes()


class TestCriterion:
    def test_boundary_pair(self, tmp_path):
        code, data = run(tmp_path, "criterion", "--g", "round", "--h", "berger:1,3")
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {"gamma", "min_eig", "strict_margin", "verdict", "notes"}
        assert payload["verdict"] == "AppliesBoundary"
        assert payload["gamma"] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_strict_pair(self, tmp_path):
        code, data = run(tmp_path, "criterion", "--g", "round", "--h", "berger:1,3.5")
        assert json.loads(data)["verdict"] == "AppliesStrict"

    def test_bad_token_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "criterion", "--g", "round", "--h", "berger:3")
        assert code == 2

    @pytest.mark.parametrize("doc, key", NON_NUMERIC_SPECS)
    def test_non_numeric_spec_exits_2(self, tmp_path, capsys, doc, key):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(doc))
        assert main(["criterion", "--g", "round", "--h", str(spec)]) == 2
        assert_names_bad_entry(capsys, spec, key)

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        spec = write_non_utf8(tmp_path)
        assert main(["criterion", "--g", "round", "--h", str(spec)]) == 2
        assert_cannot_read(capsys, spec)

    @pytest.mark.parametrize("factor", [2.0, -1.0])
    def test_metrics_in_different_frames_exit_2(self, tmp_path, capsys, factor):
        # factor * c is a Lie algebra again (both checks are homogeneous),
        # but its metric matrices are in another basis than round's
        c = (factor * su2_structure_constants().c).tolist()
        spec = tmp_path / "scaled.json"
        spec.write_text(json.dumps({"metric": np.diag([1.0, 2.0, 3.0]).tolist(),
                                    "structure_constants": c}))
        for g, h in (("round", str(spec)), (str(spec), "round")):
            code, data = run(tmp_path, "criterion", "--g", g, "--h", h)
            assert (code, data) == (2, b"")
            assert "structure constants" in capsys.readouterr().err

    def test_explicit_su2_constants_share_the_frame(self, tmp_path):
        spec = tmp_path / "explicit.json"
        spec.write_text(json.dumps({"metric": np.diag([1.0, 1.0, 3.0]).tolist(),
                                    "structure_constants": su2_structure_constants().c.tolist()}))
        assert run(tmp_path, "criterion", "--g", "round", "--h", str(spec)) == run(
            tmp_path, "criterion", "--g", "round", "--h", "berger:1,3"
        )


class TestYamabe:
    def test_round_hemisphere_value(self, tmp_path, est_round16):
        code, data = run(
            tmp_path,
            "yamabe",
            "--geometry",
            "round-hemisphere",
            "--resolution",
            "16",
        )
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {
            "value",
            "converged",
            "iterations",
            "neumann_residual",
            "trace",
        }
        assert isinstance(payload["converged"], bool)
        assert isinstance(payload["iterations"], int)
        assert isinstance(payload["trace"], list)
        target = 6.0 * np.pi ** (4.0 / 3.0)
        assert abs(payload["value"] - target) / target <= 0.05
        assert payload["value"] == est_round16.value

    def test_reruns_bit_identical(self, tmp_path):
        args = ("yamabe", "--geometry", "berger:1,3.5", "--resolution", "8")
        _, a = run(tmp_path, *args)
        out2 = tmp_path / "again.json"
        main(list(args) + ["--out", str(out2), "--quiet"])
        assert a == out2.read_bytes()

    def test_payload_unchanged_by_debug_logging(self, tmp_path, caplog):
        argv = ["yamabe", "--geometry", "berger:1,3.5", "--resolution", "8", "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "off.json")]) == 0
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="relyamabe"):
            assert main(argv + ["--out", str(tmp_path / "on.json")]) == 0
        (record,) = caplog.records  # one descent, from the constant
        assert record.args[0] == json.loads((tmp_path / "on.json").read_bytes())["iterations"]
        assert (tmp_path / "on.json").read_bytes() == (tmp_path / "off.json").read_bytes()

    def test_overflowing_line_search_trials_are_quiet(self, tmp_path, capsys):
        # the whole run at t = 1e8 (assembly, descent, residual, payload) is
        # quiet: a numpy RuntimeWarning anywhere would raise here under the
        # test configuration.  The descent from the constant meets no
        # overflowing trial; test_yamabe_estimator's loop-level test does
        code, data = run(tmp_path, "yamabe", "--geometry", "berger:1,1e8", "--resolution", "8")
        assert code == 0 and capsys.readouterr().err == ""
        assert math.isfinite(json.loads(data)["value"])

    def test_tiny_resolution_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "yamabe", "--resolution", "3")
        assert code == 2

    def test_unknown_geometry_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "yamabe", "--geometry", "flat-torus")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["yamabe", "--restarts", "2"],
            ["yamabe", "--max-iters", "5"],
            ["yamabe", "--step", "0.1"],
            ["yamabe", "--tol", "1e-6"],
            ["yamabe", "--seed", "7"],
            ["curvature", "--s", "1", "--t", "2", "--seed", "7"],
            ["sweep", "--s", "1:2:2", "--t", "1:2:2", "--seed", "7"],
            ["criterion", "--g", "round", "--h", "round", "--seed", "7"],
            ["pathcheck", "--s", "1", "--t-start", "3", "--t-end", "4", "--seed", "7"],
            ["dump-grid", "--resolution", "4", "--seed", "7"],
        ],
    )
    def test_estimator_knobs_and_seed_are_usage_errors(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPathcheck:
    def test_terminal_window(self, tmp_path):
        code, data = run(
            tmp_path,
            "pathcheck",
            "--s",
            "1",
            "--t-start",
            "3",
            "--t-end",
            "4",
            "--steps",
            "100",
        )
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {"t_start", "t_end", "steps", "samples", "delta", "endpoint_scalar"}
        assert payload["delta"] == pytest.approx(1.0, abs=1e-12)
        assert abs(payload["endpoint_scalar"]) <= 1e-10
        assert len(payload["samples"]) == 101

    def test_csv_sample_table(self, tmp_path):
        code, data = run(
            tmp_path,
            "pathcheck",
            "--s",
            "1",
            "--t-start",
            "3",
            "--t-end",
            "4",
            "--steps",
            "10",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(data.decode().splitlines()))
        assert len(rows) == 11

    def test_hypothesis_violation_exits_1(self, tmp_path, capsys):
        assert (
            main(
                [
                    "pathcheck",
                    "--s",
                    "1",
                    "--t-start",
                    "3",
                    "--t-end",
                    "3.9",
                    "--quiet",
                ]
            )
            == 1
        )
        assert "condition (4)" in capsys.readouterr().err


class TestDumpGrid:
    def test_csv_table(self, tmp_path):
        code, data = run(
            tmp_path,
            "dump-grid",
            "--geometry",
            "berger:1,3",
            "--resolution",
            "8",
            "--format",
            "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(data.decode().splitlines()))
        assert len(rows) == 512
        assert list(rows[0].keys()) == [
            "eta",
            "xi1",
            "xi2",
            "sqrt_det",
            "g_eta_eta",
            "g_eta_xi1",
            "g_eta_xi2",
            "g_xi1_xi1",
            "g_xi1_xi2",
            "g_xi2_xi2",
        ]
        assert all(float(r["sqrt_det"]) > 0.0 for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--s", "1", "--t", "1e200"],
        ["sweep", "--s", "1:1e200:3", "--t", "1:1e200:3"],
        ["pathcheck", "--s", "1", "--t-start", "3", "--t-end", "1e308", "--steps", "3"],
        ["criterion", "--g", "round", "--h", "berger:1,1e200"],
        ["criterion", "--g", "berger:1,1e200", "--h", "round"],
        ["criterion", "--g", "round", "--h", "berger:1e155,1e155"],
        ["criterion", "--g", "berger:1e155,1e155", "--h", "round"],
        # finite scalar curvatures whose pencil overflows
        ["criterion", "--g", "tiny.json", "--h", "huge.json"],
        # entries near the largest float, which no sum of two may reach
        ["curvature", "--s", "1", "--t", "1e308"],
        ["criterion", "--g", "round", "--h", "berger:1,1e308"],
        ["pathcheck", "--s", "1", "--t-start", "1e308", "--t-end", "1e308"],
    ],
)
def test_overflowing_parameters_exit_1_with_one_error_line(tmp_path, capsys, argv):
    for name, scale in (("tiny.json", 1e-200), ("huge.json", 1e200)):
        (tmp_path / name).write_text(json.dumps({"metric": (scale * np.eye(3)).tolist()}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    # a numpy RuntimeWarning would raise here under the test configuration
    code, data = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert (code, data) == (1, b"")
    assert err.startswith("error: curvature data of the metric diag(")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dump-grid", "--geometry", "berger:1,1e10", "--resolution", "4"],
        ["yamabe", "--geometry", "berger:1,1e9", "--resolution", "8"],
        ["yamabe", "--geometry", "berger:1e200,1e200", "--resolution", "4"],
    ],
)
def test_berger_chart_field_failing_in_floating_point_exits_1(tmp_path, capsys, argv):
    # in-domain Berger weights whose chart field loses its determinant to
    # cancellation or overflow: a runtime failure, not a bad request
    code, data = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert (code, data) == (1, b"")
    assert err.startswith("error: the chart field of the metric diag(1.0, ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["yamabe", "dump-grid"])
def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, command):
    # no real allocation: with memory overcommit a huge one can succeed
    # and the process is killed when its pages are touched
    def chart_metric(grid, params):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(relyamabe.su2_chart, "chart_metric", chart_metric)
    code, data = run(tmp_path, command, "--resolution", "100000")
    err = capsys.readouterr().err
    assert (code, data) == (1, b"")
    assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"


class TestOutputPlumbing:
    def test_stdout_payload_and_quiet(self, capsys):
        assert main(["curvature", "--s", "1", "--t", "3", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["scalar"] == pytest.approx(2.0, abs=1e-12)
        assert captured.err == ""

    def test_summary_line_on_stderr(self, capsys):
        assert main(["curvature", "--s", "1", "--t", "3"]) == 0
        assert captured_nonempty(capsys.readouterr().err)

    @pytest.mark.parametrize("out", ["no/such/dir/x.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_2_with_one_error_line(self, tmp_path, capsys, out):
        path = tmp_path / out
        assert main(["curvature", "--s", "1", "--t", "2", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out file {str(path)!r}")
        assert captured.err.count("\n") == 1

    def test_empty_out_path_exits_2_with_one_error_line(self, capsys):
        # an empty path names no file: the payload does not go to stdout
        assert main(["curvature", "--s", "1", "--t", "2", "--out", "", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out file ''")
        assert captured.err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "out, unbuffered",
        [([], ""), ([], "1"), (["--out", "/dev/full"], "")],
        ids=["stdout", "stdout-unbuffered", "out-file"],
    )
    def test_full_disk_exits_1_with_one_error_line(self, out, unbuffered):
        # /dev/full opens, then fails every write with ENOSPC: a runtime
        # failure, not a bad request; a fresh interpreter, because the
        # failed stdout must be the real one.  A buffered stdout keeps
        # the bytes it could not write, and interpreter shutdown flushes
        # them again unless the failure was handled
        argv = ["curvature", "--s", "1", "--t", "2", "--quiet"]
        src = str(Path(relyamabe.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=src)
        if unbuffered:
            env.update(PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "relyamabe", *argv, *out],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: cannot write the payload: [Errno 28]")
        assert proc.stderr.count("\n") == 1


def captured_nonempty(text):
    return bool(text.strip())


class TestArgumentParsing:
    """A request that names a subcommand is parsed by that subcommand's
    parser alone, into the namespace the top-level parser gives."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["curvature"],
            ["curvature", "--s=1.7", "--t", "4.6"],
            ["curvature", "--spec", "m.json", "--qui", "--format", "csv"],
            ["curvature", "--s", "1", "--t", "2", "--out", "", "--quiet"],
            ["sweep", "--s", "1:4:61", "--t", "1:4:61"],
            ["sweep", "--t=1:2:3", "--s=1:2:3", "--format", "json", "--out", "x.json"],
            ["criterion", "--g", "round", "--h", "berger:1.7,4.6"],
            ["criterion", "--h", "berger:1,2", "--g", "m.json", "--format", "csv", "--qui"],
            ["yamabe"],
            ["yamabe", "--geometry", "berger:1,3.5", "--resolution", "8", "--format", "csv"],
            ["pathcheck", "--s", "1", "--t-start", "3", "--t-end", "4"],
            ["pathcheck", "--s=1", "--t-start=3", "--t-end=4", "--steps", "7", "--format", "csv"],
            ["dump-grid"],
            ["dump-grid", "--geometry", "round", "--resolution", "4", "--qui", "--out", "g.csv"],
        ],
    )
    def test_subcommand_namespace_equals_the_top_level_one(self, argv):
        assert _parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--quiet", "curvature"]])
    def test_requests_naming_no_subcommand_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: relyamabe [-h]")

    def test_help_prints_the_top_level_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: relyamabe [-h]")

    def test_unknown_flag_prints_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", "--s", "1", "--t", "2", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: relyamabe curvature [-h]")
        assert err.endswith("relyamabe curvature: error: unrecognized arguments: --bogus\n")
