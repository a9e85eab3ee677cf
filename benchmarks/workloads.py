"""Seeded op lists for the three benchmark workloads, with the exact
references and output checks each op is held to.

An op is one call into the program: either `relyamabe.cli.main(argv)`
writing its payload with `--out` into a scratch directory, or one public
library function.  Only `Op.call` is timed; building inputs beforehand
and checking outputs afterwards are the benchmark's own work.

Inputs come from `random.Random` seeded with the workload name and the
seed, so the same seed gives the same op list on every machine and numpy
version.  Parameters are drawn by stratified sampling (one draw per
stratum) so that the cost and the accuracy figures of an op list vary
little from seed to seed.

Every lookup into the program goes through a module attribute at call
time (`ctx.lib.<name>`, `ctx.cli.main`), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("criterion-plane", "quotient-estimate", "hemisphere-probe")

#: name of the accuracy figure each workload reports as `ref_err`
REF_ERR_SOURCE = {
    "criterion-plane": "root_abs_err",
    "quotient-estimate": "estimate_rel_err",
    "hemisphere-probe": "mean_curv_max",
}

#: tolerances the program's own tests hold these outputs to
ROOT_TOL = 1e-6
ENDPOINT_SCALAR_TOL = 1e-10
ESTIMATE_REL_TOL = 0.05
MEAN_CURV_TOL = 1e-2
PROBE_FLOOR = 0.99
#: relative slack for comparing an engine value with its closed form
CLOSED_FORM_REL = 1e-9
#: rows or samples this close to a region curve are not classified
CURVE_MARGIN = 1e-8
#: the estimator may end a hair above Q(const) by roundoff only
QCONST_SLACK = 1e-9

PI43 = math.pi ** (4.0 / 3.0)


# === exact references ====================================================


def scalar_diag(a: float, b: float, c: float) -> float:
    """Scalar curvature of the left invariant metric diag(a, b, c) on
    SU(2) in the frame with [X_i, X_j] = 2 X_k (cyclic):
    R = 2 (4 sigma_2 - sigma_1^2) / sigma_3 of the eigenvalues.  It
    depends on the eigenvalues only, so it is also the scalar curvature
    of any rotation Q diag(a, b, c) Q^T."""
    s1 = a + b + c
    s2 = a * b + b * c + c * a
    s3 = a * b * c
    return 2.0 * (4.0 * s2 - s1 * s1) / s3


def boundary_t(s: float) -> float:
    """Closed-form criterion boundary against the round sphere."""
    return s + math.sqrt(s) + 1.0


def flat_t(s: float) -> float:
    """Closed-form scalar-flat curve of diag(1, s, t)."""
    return (1.0 + math.sqrt(s)) ** 2


def discrete_volume(n: int, s: float, t: float) -> float:
    """Volume of diag(1, s, t) on the cell-centred n^3 half-sphere grid.

    The chart volume density is sqrt(st) sin(eta) cos(eta), and the
    midpoint sum of sin(2 eta) over n cells of [0, pi/2] is
    d / sin(d) with d = pi / (2n), so the grid volume is
    pi^2 sqrt(st) d / sin(d)."""
    d = math.pi / (2 * n)
    return math.pi**2 * math.sqrt(s * t) * d / math.sin(d)


def q_const(n: int, s: float, t: float) -> float:
    """Quotient of a constant trial on the n^3 grid: R Vol^(2/3)."""
    return scalar_diag(1.0, s, t) * discrete_volume(n, s, t) ** (2.0 / 3.0)


def y_ref(s: float, t: float) -> float:
    """Continuum invariant: 6 pi^(4/3) on the round hemisphere (Escobar)
    and R pi^(4/3) (st)^(1/3) in the Theorem-1 region."""
    return scalar_diag(1.0, s, t) * PI43 * (s * t) ** (1.0 / 3.0)


def rotation(rng: random.Random) -> list[list[float]]:
    """A uniformly random rotation of R^3 from a random unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in q))
    w, x, y, z = (v / norm for v in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def spd_matrix(rng: random.Random) -> tuple[list[list[float]], tuple[float, float, float]]:
    """A general SPD metric Q diag(l) Q^T with eigenvalues in [1, 4]."""
    lam = tuple(rng.uniform(1.0, 4.0) for _ in range(3))
    q = rotation(rng)
    m = [
        [sum(q[i][k] * lam[k] * q[j][k] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    for i in range(3):  # exact symmetry, as FrameMetric requires
        for j in range(i):
            m[i][j] = m[j][i]
    return m, lam


def strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw from each of k equal strata of [lo, hi]."""
    w = (hi - lo) / max(k, 1)
    return [lo + w * (i + rng.random()) for i in range(k)]


def theorem1_t(s: float, frac: float) -> float:
    """t at fraction `frac` of the way across the Theorem-1 band at s."""
    lo, hi = boundary_t(s), flat_t(s)
    return lo + frac * (hi - lo)


# === ops ==================================================================


@dataclass
class Outcome:
    """What checking one op found: problems (empty when correct), the
    payload digest of a CLI op, and accuracy figures it contributes."""

    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    accuracy: dict[str, float] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    """One call into the program.  `call(state)` is timed; `check(result,
    state)` is not.  `state` is a dict shared by the ops of one pass
    (hemisphere-probe passes a metric field from op to op through it)."""

    kind: str
    label: str
    call: Callable[[dict], Any]
    check: Callable[[Any, dict], Outcome]
    grid: int | None = None
    geometry: tuple | None = None


class Context:
    """The program's modules and a scratch directory for payloads and
    metric spec files."""

    def __init__(self, lib, cli, scratch: str):
        self.lib = lib
        self.cli = cli
        self.scratch = scratch
        self._n = 0

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.scratch, f"{self._n:04d}-{stem}")


def finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def cli_op(ctx: Context, kind: str, argv: list[str], check, label: str | None = None,
           **kw) -> Op:
    """A CLI op: main(argv + --out PATH --quiet); the check gets the
    payload bytes and its sha256.  `label` names the op where argv holds
    a scratch path."""
    out = ctx.path(kind + ".out")
    full = list(argv) + ["--out", out, "--quiet"]

    def call(state):
        return ctx.cli.main(full)

    def checked(code, state):
        if code != 0:
            return Outcome([f"exit code {code}"])
        with open(out, "rb") as fh:
            data = fh.read()
        res = Outcome(digest=hashlib.sha256(data).hexdigest())
        res.sizes["payload_bytes"] = len(data)
        try:
            check(data, res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            res.problems.append(f"unreadable payload: {exc!r}")
        return res

    return Op(kind, label or " ".join(argv), call, checked, **kw)


def lib_op(kind: str, label: str, call, check, **kw) -> Op:
    def checked(result, state):
        res = Outcome()
        check(result, state, res)
        return res

    return Op(kind, label, call, checked, **kw)


# === criterion-plane ======================================================


def _sweep_check(data: bytes, res: Outcome) -> None:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    res.sizes["sweep_points"] = len(rows)
    bad = 0
    for r in rows:
        s, t, verdict = float(r["s"]), float(r["t"]), r["verdict"]
        if t < s:
            if verdict != "invalid" or r["R"] != "nan":
                bad += 1
            continue
        lo, hi = boundary_t(s), flat_t(s)
        if s == 1.0 and t == 1.0:
            want = "Einstein"
        elif abs(t - lo) < CURVE_MARGIN or abs(t - hi) < CURVE_MARGIN:
            want = None
        elif t < lo:
            want = "PositiveScalarUnresolved"
        elif t < hi:
            want = "Theorem1Strict"
        else:
            want = "AutoYamabeNonpositive"
        r_ref = scalar_diag(1.0, s, t)
        if (want is not None and verdict != want) or abs(
            float(r["R"]) - r_ref
        ) > CLOSED_FORM_REL * max(1.0, abs(r_ref)):
            bad += 1
    if bad:
        res.problems.append(f"{bad} of {len(rows)} sweep rows disagree with the closed form")


def _pathcheck_check(s: float, t_start: float, t_end: float, steps: int):
    """Expected delta from the closed form: along diag(1, s, t) against
    diag(1, s, s), the pencil minimum is R(s, s) - R(s, t) t / s
    = (2/s^2)(t - s)(t - s - 2), so the comparison holds exactly where
    t >= s + 2."""

    def check(data: bytes, res: Outcome) -> None:
        p = json.loads(data)
        res.sizes["path_samples"] = len(p["samples"])
        if not finite(p["endpoint_scalar"]) or abs(p["endpoint_scalar"]) > ENDPOINT_SCALAR_TOL:
            res.problems.append(f"endpoint scalar {p['endpoint_scalar']} exceeds 1e-10")
        ts = [t_start + (t_end - t_start) * k / steps for k in range(steps + 1)]
        margins = [(t - s) * (t - s - 2.0) for t in ts[1:-1]]
        if any(abs(m) < CURVE_MARGIN for m in margins):
            return  # a sample sits on the crossing: either verdict is right
        holds = [True] + [m > 0.0 for m in margins]
        want = 0.0
        if holds[-1]:
            first = len(holds) - 1
            while first > 0 and holds[first - 1]:
                first -= 1
            want = t_end - ts[first]
        if not finite(p["delta"]) or abs(p["delta"] - want) > 1e-12 * max(1.0, want):
            res.problems.append(f"delta {p['delta']} != closed form {want}")

    return check


def _curvature_check(lam: tuple[float, float, float], berger: bool):
    r_ref = scalar_diag(*lam)

    def check(data: bytes, res: Outcome) -> None:
        p = json.loads(data)
        if not finite(p["scalar"]) or abs(p["scalar"] - r_ref) > CLOSED_FORM_REL * max(
            1.0, abs(r_ref)
        ):
            res.problems.append(f"scalar {p['scalar']} != closed form {r_ref}")
        if berger and not (p["closed_form_delta"]["scalar"] <= CLOSED_FORM_REL):
            res.problems.append(f"closed_form_delta {p['closed_form_delta']}")

    return check


def _criterion_check(lam: tuple[float, float, float]):
    """Against the round reference (G = I, R_g = 6) the pencil
    eigenvalues are 6 - R_h lam_i; gamma is sqrt(det H)."""
    r_h = scalar_diag(*lam)
    min_eig = min(6.0 - r_h * x for x in lam)
    gamma = math.sqrt(lam[0] * lam[1] * lam[2])
    scale = 6.0 * math.sqrt(3.0)  # ||R_g G||_F, which scales the pencil tolerances
    if r_h <= 0.0:
        want = "AutoYamabeNonpositive"
    elif min_eig > CURVE_MARGIN:
        want = "AppliesStrict"
    elif min_eig < -CURVE_MARGIN:
        want = "Fails"
    else:
        want = None

    def check(data: bytes, res: Outcome) -> None:
        p = json.loads(data)
        if want is not None and p["verdict"] != want:
            res.problems.append(f"verdict {p['verdict']} != closed form {want}")
        if not finite(p["min_eig"]) or abs(p["min_eig"] - min_eig) > CLOSED_FORM_REL * scale:
            res.problems.append(f"min_eig {p['min_eig']} != closed form {min_eig}")
        if not finite(p["gamma"]) or abs(p["gamma"] - gamma) > CLOSED_FORM_REL * gamma:
            res.problems.append(f"gamma {p['gamma']} != closed form {gamma}")

    return check


def _root_op(ctx: Context, fname: str, s: float, closed) -> Op:
    def call(state):
        return getattr(ctx.lib, fname)(s)

    def check(root, state, res: Outcome) -> None:
        err = abs(root - closed(s)) if finite(root) else math.inf
        res.accuracy["root_abs_err"] = err
        if not err <= ROOT_TOL:
            res.problems.append(f"{fname}({s}) = {root}, closed form {closed(s)}")

    return lib_op(fname, f"{fname} s={s!r}", call, check)


def criterion_plane(ctx: Context, rng: random.Random, mini: bool) -> list[Op]:
    n_sweep, n_side = (1, 5) if mini else (2, 61)
    n_path, n_root, n_query, n_spec = (1, 1, 2, 1) if mini else (4, 16, 60, 20)
    ops = []
    for _ in range(n_sweep):
        a, b = 1.0 + 0.1 * rng.random(), 4.0 - 0.1 * rng.random()
        c, d = 1.0 + 0.1 * rng.random(), 4.0 - 0.1 * rng.random()
        argv = ["sweep", "--s", f"{a!r}:{b!r}:{n_side}", "--t", f"{c!r}:{d!r}:{n_side}"]
        ops.append(cli_op(ctx, "sweep", argv, _sweep_check))
    for s in strata(rng, 1.0, 4.0, n_path):
        t_end = flat_t(s)
        argv = ["pathcheck", "--s", repr(s), "--t-start", repr(s), "--t-end", repr(t_end)]
        ops.append(
            cli_op(ctx, "pathcheck", argv, _pathcheck_check(s, s, t_end, 100), geometry=(s, s))
        )
    for s in strata(rng, 1.0, 4.0, n_root):
        ops.append(_root_op(ctx, "boundary_curve", s, boundary_t))
    for s in strata(rng, 1.0, 4.0, n_root):
        ops.append(_root_op(ctx, "scalar_sign_curve", s, flat_t))
    queries = []
    for s, u in zip(strata(rng, 1.0, 4.0, n_query), strata(rng, 0.0, 1.0, n_query)):
        queries.append((s, s + (9.0 - s) * u))  # t in [s, 9]: every region
    rng.shuffle(queries)
    for s, t in queries:
        lam = (1.0, s, t)
        ops.append(
            cli_op(ctx, "curvature", ["curvature", "--s", repr(s), "--t", repr(t)],
                   _curvature_check(lam, True), geometry=(s, t))
        )
        ops.append(
            cli_op(ctx, "criterion", ["criterion", "--g", "round", "--h", f"berger:{s!r},{t!r}"],
                   _criterion_check(lam), geometry=(s, t))
        )
    for _ in range(n_spec):
        m, lam = spd_matrix(rng)
        spec = ctx.path("metric.json")
        with open(spec, "w") as fh:
            json.dump({"metric": m}, fh)
        key = tuple(x for row in m for x in row)
        ops.append(cli_op(ctx, "curvature", ["curvature", "--spec", spec],
                          _curvature_check(lam, False), label=f"curvature --spec {m}",
                          geometry=key))
        ops.append(cli_op(ctx, "criterion", ["criterion", "--g", "round", "--h", spec],
                          _criterion_check(lam), label=f"criterion --g round --h {m}",
                          geometry=key))
    return ops


# === quotient-estimate ====================================================


def _yamabe_check(n: int, s: float, t: float):
    ref, qc = y_ref(s, t), q_const(n, s, t)

    def check(data: bytes, res: Outcome) -> None:
        p = json.loads(data)
        value, trace = p["value"], p["trace"]
        if not finite(value):
            res.problems.append(f"non-finite value {value}")
            return
        res.accuracy["estimate_rel_err"] = abs(value - ref) / ref
        if abs(value - ref) > ESTIMATE_REL_TOL * ref:
            res.problems.append(f"value {value} not within 5% of Y_ref {ref}")
        if value > qc * (1.0 + QCONST_SLACK):
            res.problems.append(f"value {value} above Q(const) {qc}")
        if not all(finite(q) for q in trace) or any(b > a for a, b in zip(trace, trace[1:])):
            res.problems.append("objective trace is not non-increasing")

    return check


def _yamabe_op(ctx: Context, n: int, s: float, t: float) -> Op:
    token = "round" if s == t == 1.0 else f"berger:{s!r},{t!r}"
    argv = ["yamabe", "--geometry", token, "--resolution", str(n)]
    return cli_op(ctx, "yamabe", argv, _yamabe_check(n, s, t), grid=n, geometry=(s, t))


def quotient_estimate(ctx: Context, rng: random.Random, mini: bool) -> list[Op]:
    resolutions = (8, 8, 12) if mini else (16, 16, 16, 24, 32)
    s_draws = strata(rng, 1.0, 4.0, len(resolutions))
    f_draws = strata(rng, 0.1, 0.6, len(resolutions))
    rng.shuffle(f_draws)
    ops = [_yamabe_op(ctx, resolutions[0], 1.0, 1.0)]
    for n, s, frac in zip(resolutions, s_draws, f_draws):
        ops.append(_yamabe_op(ctx, n, s, theorem1_t(s, frac)))
    return ops


# === hemisphere-probe =====================================================


def _trials(rng: random.Random, meshes, k_smooth: int, k_odd: int):
    """Seed-drawn positive trials: low-frequency ones and high-frequency
    xi2 odd-even ones, 1 + a (-1)^k with a near 1."""
    import numpy as np

    e, x1, x2 = meshes
    out = []
    for _ in range(k_smooth):
        a = [rng.uniform(-0.25, 0.25) for _ in range(3)]
        m, ph = rng.randint(1, 2), rng.uniform(0.0, 2.0 * math.pi)
        out.append(
            1.0 + a[0] * np.cos(m * x1)
            + np.sin(x1) ** 2 * (a[1] * np.cos(2 * e) + a[2] * np.cos(x2 + ph))
        )
    n2 = x2.shape[2]
    sign = np.where(np.arange(n2) % 2 == 0, 1.0, -1.0)
    for _ in range(k_odd):
        amp = rng.uniform(0.9, 0.999)
        out.append(1.0 + amp * np.broadcast_to(sign, x2.shape).copy())
    return out


def _geometry_ops(ctx: Context, rng: random.Random, n: int, s: float, t: float,
                  n_trials: int, k_smooth: int, k_odd: int) -> list[Op]:
    import numpy as np

    lib = ctx.lib
    key = f"metric:{s!r},{t!r}"
    r = scalar_diag(1.0, s, t)
    qc, ref = q_const(n, s, t), y_ref(s, t)
    grid = lib.HopfGrid.cube(n)
    meshes = grid.meshes()
    eta = meshes[0]
    density = math.sqrt(s * t) * np.sin(eta) * np.cos(eta)
    smooth = 1.0 + 0.1 * np.cos(eta) + 0.05 * np.sin(meshes[1]) ** 2 * np.cos(meshes[2])
    trials = _trials(rng, meshes, k_smooth, k_odd)
    probe_seed = rng.randrange(2**31)
    g = dict(grid=n, geometry=(s, t))
    where = f"n={n} s={s!r} t={t!r}"

    def chart(state):
        state[key] = lib.chart_metric(lib.HopfGrid.cube(n), lib.BergerParams(s, t))
        return state[key]

    def chart_check(m, state, res):
        res.sizes["cells"] = m.grid.size
        dev = float(np.abs(m.sqrt_det - density).max() / density.max())
        if not (m.chart_residual <= 1e-10 and dev <= 1e-10):
            res.problems.append(f"chart residual {m.chart_residual}, density deviation {dev}")

    def bsf_check(rep, state, res):
        h = rep.max_abs_mean_curvature
        res.accuracy["mean_curv_max"] = h if finite(h) else math.inf
        if not (finite(h) and h <= MEAN_CURV_TOL):
            res.problems.append(f"max |H| = {h}")

    def probe_check(rep, state, res):
        res.sizes["probe_trials"] = rep.n_trials
        if not (rep.min_over_trials <= rep.energy and rep.min_over_trials >= PROBE_FLOOR * qc):
            res.problems.append(
                f"probe minimum {rep.min_over_trials} outside [{PROBE_FLOOR} Q(const), E]"
            )

    def scalar_check(rbar, state, res):
        if not np.all(np.isfinite(rbar)):
            res.problems.append("conformal scalar has non-finite cells")

    def residual_check(v, state, res):
        if not (finite(v) and v >= 0.0):
            res.problems.append(f"neumann residual {v}")

    def quotient_check(q, state, res):
        if not (finite(q) and q > 0.0):
            res.problems.append(f"quotient {q}")
            return
        res.accuracy["quotient_floor_ratio"] = q / ref

    def energy_check(rep, state, res):
        if abs(rep.energy - qc) > 1e-12 * qc:
            res.problems.append(f"energy {rep.energy} != R Vol^(2/3) = {qc}")

    ops = [
        lib_op("chart_metric", where, chart, chart_check, **g),
        lib_op("boundary_second_form", where,
               lambda st: lib.boundary_second_form(st[key]), bsf_check, **g),
        lib_op("yamabe_property_probe", where,
               lambda st: lib.yamabe_property_probe(st[key], r, n_trials, probe_seed),
               probe_check, **g),
        lib_op("conformal_scalar", where,
               lambda st: lib.conformal_scalar(smooth, st[key], r), scalar_check, **g),
        lib_op("neumann_residual", where,
               lambda st: lib.neumann_residual(smooth, st[key]), residual_check, **g),
    ]
    for k, u in enumerate(trials):
        ops.append(lib_op(
            "rayleigh_quotient", f"{where} trial={k}",
            lambda st, u=u: lib.rayleigh_quotient(lib.QuotientInput(u, st[key], r)),
            quotient_check, **g))
    ops.append(lib_op("einstein_hilbert", where,
                      lambda st: lib.einstein_hilbert(st[key], r), energy_check, **g))
    return ops


def _dump_grid_check(n: int, s: float, t: float):
    def check(data: bytes, res: Outcome) -> None:
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != n**3:
            res.problems.append(f"{len(rows)} rows, expected {n**3}")
            return
        worst = 0.0
        for r in rows:
            e = float(r["eta"])
            want = math.sqrt(s * t) * math.sin(e) * math.cos(e)
            worst = max(worst, abs(float(r["sqrt_det"]) - want))
        if not worst <= 1e-10:
            res.problems.append(f"sqrt_det deviates from the closed form by {worst}")

    return check


def hemisphere_probe(ctx: Context, rng: random.Random, mini: bool) -> list[Op]:
    # Two classical Berger spheres (s = 1) in the upper and lower half of
    # the band, then general ones; |H| is largest at s = 1, so the max
    # over the pass is set by the first geometry and stays steady.
    n, n_dump, n_trials, k_smooth, k_odd = (32, 6, 5, 1, 1) if mini else (32, 24, 100, 6, 3)
    n_general = 0 if mini else 2
    geoms = [(1.0, theorem1_t(1.0, rng.uniform(0.35, 0.6)))]
    if not mini:
        geoms.append((1.0, theorem1_t(1.0, rng.uniform(0.1, 0.35))))
    for s in strata(rng, 1.25, 4.0, n_general):
        geoms.append((s, theorem1_t(s, rng.uniform(0.1, 0.6))))
    ops = []
    for s, t in geoms:
        ops.extend(_geometry_ops(ctx, rng, n, s, t, n_trials, k_smooth, k_odd))
    s, t = geoms[-1]
    argv = ["dump-grid", "--geometry", f"berger:{s!r},{t!r}", "--resolution", str(n_dump),
            "--format", "csv"]
    ops.append(cli_op(ctx, "dump-grid", argv, _dump_grid_check(n_dump, s, t),
                      grid=n_dump, geometry=(s, t)))
    return ops


OP_LISTS = {
    "criterion-plane": criterion_plane,
    "quotient-estimate": quotient_estimate,
    "hemisphere-probe": hemisphere_probe,
}


def build(workload: str, seed: int, ctx: Context, mini: bool = False) -> list[Op]:
    """The fixed op list of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return OP_LISTS[workload](ctx, rng, mini)


def repeat_share(ops: list[Op]) -> float:
    """Fraction of ops whose grid resolution or geometry already occurred
    in an earlier op of the same list."""
    seen_grid, seen_geom, repeats = set(), set(), 0
    for op in ops:
        if (op.grid is not None and op.grid in seen_grid) or (
            op.geometry is not None and op.geometry in seen_geom
        ):
            repeats += 1
        if op.grid is not None:
            seen_grid.add(op.grid)
        if op.geometry is not None:
            seen_geom.add(op.geometry)
    return repeats / len(ops)
