#!/usr/bin/env python3
"""relyamabe benchmark: one closed-loop client in one process runs a
workload's seeded op list against the package in ./src, checks every
output, and prints its metrics.

    python3 benchmarks/run.py --workload criterion-plane --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 it holds the per-layer metrics and the tracing overhead.  The
lines before it are a readable report, and the full record (provenance,
per-op payload digests, failures) is written to .perfbench/ at the root
of the checkout.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One client is one thread: BLAS helper threads only spin on this
# program's vector sizes, and a second busy thread makes timings depend
# on what else the machine runs.  Explicit settings are kept.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics of the result line: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ref_err": ("1", "lower"),
}
#: fresh interpreters timed for setup_s, after one untimed warm-up import
SETUP_RUNS = 7
#: the calibration kernel runs between ops at most this often (s)
CAL_EVERY = 0.2
#: seconds the calibration kernel takes on the reference host (a 2 GHz
#: Xeon vCPU in its fast stretches); times are reported at this speed
CAL_REF_S = 0.010
#: a percentile is a tail only with at least this many ops beyond it
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import relyamabe, relyamabe.cli\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0))\n"
    "print(relyamabe.__file__)\n"
)


class ProgramMissing(Exception):
    pass


def load_program():
    """Import relyamabe from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "relyamabe", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no relyamabe package at {init}")
    sys.path.insert(0, SRC)
    import relyamabe
    import relyamabe.cli

    if os.path.realpath(relyamabe.__file__) != os.path.realpath(init):
        raise ProgramMissing(f"relyamabe was imported from {relyamabe.__file__}")
    return relyamabe, relyamabe.cli


# === host speed =============================================================

_CAL_SMALL = numpy.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_CAL_A = numpy.linspace(0.0, 1.0, 32**3)
_CAL_B = numpy.linspace(1.0, 2.0, 32**3)
_CAL_BIG_A = numpy.linspace(0.0, 1.0, 2**19)
_CAL_BIG_B = numpy.linspace(1.0, 2.0, 2**19)
_CAL_BIG_OUT = numpy.empty(2**19)
_CAL_DOC = {"a": list(range(300)), "b": {str(i): 0.5 * i for i in range(300)}}


def calibrate() -> float:
    """Seconds a fixed piece of work takes right now.  It mixes the kinds
    of work the workloads spend their time in, in roughly these shares of
    its time on the reference host: interpreted arithmetic and dict updates
    (1/8), 3x3 `eigvalsh` calls (2/8), vector arithmetic over 32^3
    doubles (1/8), one pass over 4 MiB vectors that overflow a 2 MiB
    L2 (2/8), and JSON encoding and decoding (2/8).  Its buffers add
    12 MiB to the process, allocated once.  It never calls the program,
    so the program's speed does not move it; only the host's does."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(6700):
        acc += (i * i) % 7
        table[i & 255] = acc
    m = _CAL_SMALL
    for _ in range(100):
        w = numpy.linalg.eigvalsh(m)
        m = 0.5 * (m + m.T) + 1e-3 * numpy.diag(w)
    for _ in range(17):
        (_CAL_A * _CAL_B + _CAL_A).sum()
    numpy.multiply(_CAL_BIG_A, _CAL_BIG_B, out=_CAL_BIG_OUT)
    numpy.add(_CAL_BIG_OUT, _CAL_BIG_A, out=_CAL_BIG_OUT)
    _CAL_BIG_OUT.sum()
    for _ in range(10):
        json.loads(json.dumps(_CAL_DOC))
    return time.perf_counter() - t0


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import relyamabe and relyamabe.cli in fresh
    interpreters: (as measured, at reference host speed).  Each import
    is scaled by the calibration kernel timed just before and after it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    init = os.path.realpath(os.path.join(SRC, "relyamabe", "__init__.py"))
    raw, scaled = [], []
    before = calibrate()
    for k in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[1]) != init:
            raise ProgramMissing(f"import in a fresh interpreter failed: {proc.stderr[-500:]}")
        after = calibrate()
        if k > 0:
            raw.append(float(lines[0]))
            scaled.append(float(lines[0]) * 2.0 * CAL_REF_S / (before + after))
        before = after
    return raw, scaled


# === running passes =========================================================


def run_pass(ops, tracer=None) -> list[tuple[float, float, workloads.Outcome]]:
    """Run the op list once; returns (latency, scaled latency, outcome)
    per op.  The calibration kernel runs before an op whenever CAL_EVERY
    seconds have passed since it last ran, and once after the last op;
    an op's scaled latency is its latency at reference host speed, by
    the mean of the calibrations just before and just after it.  An op
    that raises or exits is a failed op, and the pass goes on."""
    state: dict = {}
    timed = []
    cals = []  # (index of the op that follows, seconds)
    last_cal = -math.inf
    for i, op in enumerate(ops):
        if time.perf_counter() - last_cal >= CAL_EVERY:
            cals.append((i, calibrate()))
            last_cal = time.perf_counter()
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.open("op:" + op.kind)
        error = None
        t0 = time.perf_counter()
        try:
            raw = op.call(state)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - the loop must go on
            raw, error = None, exc
        t1 = time.perf_counter()
        if span is not None:
            tracer.close(span)
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            outcome = workloads.Outcome([f"raised {error!r}"])
        else:
            try:
                outcome = op.check(raw, state)
            except Exception as exc:  # noqa: BLE001
                traceback.print_exc(file=sys.stderr)
                outcome = workloads.Outcome([f"check raised {exc!r}"])
        timed.append((t1 - t0, outcome))
    cals.append((len(ops), calibrate()))
    results, k = [], 0
    for i, (lat, outcome) in enumerate(timed):
        while cals[k + 1][0] <= i:
            k += 1
        speed = 2.0 * CAL_REF_S / (cals[k][1] + cals[k + 1][1])
        results.append((lat, lat * speed, outcome))
    return results


def run_passes(ops, seconds: float, tracer=None):
    """Repeat the op list until `seconds` are used.  A further pass starts
    only if it is expected to end within half a pass of the deadline.
    With a tracer, passes alternate untraced / traced, at least one each."""
    passes, traced_flags, summaries, first_spans = [], [], [], None
    durations = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                results = run_pass(ops, tracer)
            finally:
                tracer.remove()
            summaries.append(tracer.layer_summary())
            if first_spans is None:
                first_spans = tracer.spans
        else:
            results = run_pass(ops)
        durations.append(time.perf_counter() - t0)
        passes.append(results)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed + 0.5 * statistics.median(durations) > seconds:
            return passes, traced_flags, summaries, first_spans


# === metrics ================================================================


def per_op(passes, column: int) -> list[float]:
    """Each op's median latency over the given passes: column 0 as
    measured, column 1 at reference host speed."""
    return [statistics.median(v)
            for v in zip(*([r[column] for r in results] for results in passes))]


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least
    TAIL_BEYOND ops beyond it; None below 2 * TAIL_BEYOND ops."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def summarize(ops, passes):
    """End-to-end figures over all passes, plus the determinism check:
    every pass must reproduce the first pass's payload bytes."""
    first = passes[0]
    for results in passes[1:]:
        for i, (*_, outcome) in enumerate(results):
            if outcome.digest != first[i][-1].digest and not outcome.problems:
                outcome.problems.append("payload differs from the first pass")
    every = [r for results in passes for r in results]
    latencies = [r[0] for r in every]
    failed = [(i % len(ops), o.problems) for i, (*_, o) in enumerate(every) if o.problems]
    accuracy: dict[str, float] = {}
    for *_, o in every:
        for key, value in o.accuracy.items():
            pick = min if key == "quotient_floor_ratio" else max
            accuracy[key] = pick(accuracy.get(key, value), value)
    sizes: dict[str, int] = {}
    for *_, o in first:
        for key, value in o.sizes.items():
            sizes[key] = sizes.get(key, 0) + value
    digests = [(i, o.digest) for i, (*_, o) in enumerate(first) if o.digest]
    combined = hashlib.sha256(
        "".join(f"{i} {d}\n" for i, d in digests).encode()
    ).hexdigest()
    return {
        "pass_op_s": [sum(r[0] for r in results) for results in passes],
        "pass_scaled_s": [sum(r[1] for r in results) for results in passes],
        "latencies": latencies,
        "attempted": len(every),
        "failed": failed,
        "accuracy": accuracy,
        "sizes": sizes,
        "digests": digests,
        "payload_sha256": combined,
    }


# === provenance =============================================================


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, read from .git directly;
    None when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "relyamabe")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, lib, ops) -> dict:
    import numpy
    import scipy

    grids = sorted({op.grid for op in ops if op.grid is not None})
    nnz = {}
    for n in grids:
        for width in (3, 5):
            nnz[f"{n}/{width}"] = sum(m.nnz for m in lib.HopfGrid.cube(n).diff_ops(width))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, one client, one process",
        "commit": git_commit(ROOT),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cells_per_resolution": {str(n): n**3 for n in grids},
        "diff_ops_nnz_per_resolution_width": nnz,
        "input_repeat_share": workloads.repeat_share(ops),
        "op_list": [f"{op.kind}: {op.label}" for op in ops],
        "op_list_sha256": hashlib.sha256(
            "\n".join(f"{op.kind}: {op.label}" for op in ops).encode()
        ).hexdigest(),
    }


# === output =================================================================


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<48} {fmt(value):>14} {unit:<6} {note}")


def main(argv=None, mini: bool = False) -> int:
    """Run the benchmark; `mini` runs the minimal-size op list (self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    # One CPU for the whole run, the fresh interpreters of setup_s too:
    # the calibration kernel then always runs where the ops run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        lib, cli = load_program()
        setup_raw, setup = measure_setup() if args.trace == 0 else ([], [])
    except ProgramMissing as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT_DIR)
    try:
        ctx = workloads.Context(lib, cli, scratch)
        ops = workloads.build(args.workload, args.seed, ctx, mini)
        prov = provenance(args, lib, ops)
        # warm-up: the same workload at minimal size, untimed, so lazy
        # imports inside numpy/scipy are done before the first timed op
        run_pass(workloads.build(args.workload, args.seed, ctx, mini=True))
        tracer = spans.Tracer() if args.trace else None
        passes, traced, summaries, first_spans = run_passes(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    s = summarize(ops, passes)
    failed = len(s["failed"])
    correct = failed == 0
    latencies = s["latencies"]
    t = tail(latencies)
    acc = s["accuracy"]
    ref_key = workloads.REF_ERR_SOURCE[args.workload]
    untraced = [p for p, tr in zip(passes, traced) if not tr]
    scaled = per_op(untraced, 1)
    measured = per_op(untraced, 0)
    figures = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_err": acc.get(ref_key),
    }

    print(f"relyamabe benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"closed loop, one client, one process; {len(passes)} passes of "
          f"{len(ops)} ops; {s['attempted']} ops attempted, {failed} failed")
    print("seconds inside ops per pass" + (" (traced passes marked *)" if args.trace else "")
          + ": " + " ".join(f"{w:.3f}{'*' if tr else ''}"
                            for w, tr in zip(s["pass_op_s"], traced)))
    print("the same at reference host speed: " + " ".join(
        f"{w:.3f}{'*' if tr else ''}" for w, tr in zip(s["pass_scaled_s"], traced)))
    for i, problems in s["failed"][:20]:
        print(f"  FAILED op {i} {ops[i].kind}: {ops[i].label}: {'; '.join(problems)}")
    record = {"provenance": prov, "setup_runs_s": setup_raw, "setup_runs_scaled_s": setup,
              "host_speed": {"cpu": cpu, "cal_ref_s": CAL_REF_S, "cal_every_s": CAL_EVERY},
              "pass_op_s": s["pass_op_s"], "pass_scaled_s": s["pass_scaled_s"],
              "op_latencies_s": [[r[:2] for r in results] for results in passes],
              "traced_passes": traced, "failed": s["failed"], "sizes": s["sizes"],
              "payload_sha256": s["payload_sha256"], "payload_digests": s["digests"]}

    if args.trace == 0:
        rows = [(k, figures[k], END_TO_END[k][0], END_TO_END[k][1]) for k in END_TO_END]
        rows[-1] = (*rows[-1][:3], f"lower  (= {ref_key})")
        rows[1:1] = [("setup_s measured", statistics.median(setup_raw), "s", "as measured")]
        rows[3:3] = [("wall_s measured", sum(measured), "s", "as measured"),
                     ("op_p50_ms measured", 1e3 * statistics.median(measured), "ms",
                      "as measured")]
        if t is None:
            rows.append(("op_tail_ms", "omitted", "ms", f"fewer than {2 * TAIL_BEYOND} ops"))
        else:
            rows.append(("op_tail_ms", 1e3 * t[1], "ms",
                         f"lower  (p{t[0]:.2f} of {len(latencies)} ops)"))
        rows.append(("fail_ratio", failed / s["attempted"], "ratio",
                     f"lower  ({failed} of {s['attempted']})"))
        for key in ("root_abs_err", "estimate_rel_err", "mean_curv_max"):
            if key in acc:
                rows.append((key, acc[key], "1", "lower"))
        if "quotient_floor_ratio" in acc:
            rows.append(("quotient_floor_ratio", acc["quotient_floor_ratio"], "1",
                         "higher (below 1: the odd-even kernel)"))
        print("end-to-end metrics:")
        print_table(rows)
        metrics = {k: {"value": figures[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
        record["end_to_end"] = {r[0]: {"value": r[1], "unit": r[2], "note": r[3]} for r in rows}
    else:
        layer = spans.median_summary(summaries)
        traced_wall = sum(per_op([p for p, tr in zip(passes, traced) if tr], 1))
        layer["trace.overhead_s"] = traced_wall - figures["wall_s"]
        print(f"per-layer metrics (median of {len(summaries)} traced passes); tracing "
              f"overhead {layer['trace.overhead_s']:.4f} s = traced wall_s {traced_wall:.4f} s "
              f"- untraced wall_s {figures['wall_s']:.4f} s")
        print_table([(k, layer[k], *spans.LAYER_METRICS[k]) for k in spans.LAYER_METRICS])
        metrics = {k: {"value": layer[k], "unit": spans.LAYER_METRICS[k][0]}
                   for k in spans.LAYER_METRICS}
        record["per_layer"] = layer
        record["span_nesting_problems"] = spans.nesting_problems(first_spans)[:20]
        names = sorted({sp[0] for sp in first_spans})
        index = {n: i for i, n in enumerate(names)}
        with open(os.path.join(OUT_DIR, f"{args.workload}-spans.json"), "w") as fh:
            json.dump({"seed": args.seed, "fields": ["name", "start", "end", "parent", "op"],
                       "names": names,
                       "spans": [[index[sp[0]], *sp[1:]] for sp in first_spans]}, fh)

    print(f"payload_sha256 {s['payload_sha256']} over {len(s['digests'])} CLI payloads")
    print(f"provenance: commit={prov['commit']} source={prov['source_sha256'][:16]} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} "
          f"nproc={prov['nproc']} threads={prov['thread_env']} "
          f"input_repeat_share={prov['input_repeat_share']:.3f} sizes={s['sizes']}")
    record_path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": s["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
