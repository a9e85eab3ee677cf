"""Frame algebra, connection, and curvature of left invariant metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relyamabe import (
    BergerParams,
    FrameMetric,
    InputFormatError,
    InvalidMetricError,
    LieAlgebraFrame,
    berger_ricci_closed,
    berger_scalar_closed,
    curvature_report,
    levi_civita,
    su2_structure_constants,
)
from relyamabe import lie_curvature
from relyamabe.lie_curvature import _FRAME_MAPS

# Independent oracle: the three 2x2 anti-Hermitian generators, written out
# here from scratch so the bracket table is cross-checked against direct
# matrix commutators rather than against the library's own constants.
X1 = np.array([[1j, 0], [0, -1j]])
X2 = np.array([[0, 1], [-1, 0]], dtype=complex)
X3 = np.array([[0, 1j], [1j, 0]])


# c[k, i, j] of [X0, X1] = X1 + X2, [X1, X2] = X0, [X0, X2] = X1:
# antisymmetric, with a Jacobi residual of 1
JACOBI_VIOLATING = np.array([
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]],
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
], dtype=float)


def comm(a, b):
    return a @ b - b @ a


class TestStructureConstants:
    def test_matrix_commutators_are_cyclic_with_factor_two(self):
        assert np.allclose(comm(X1, X2), 2 * X3, atol=1e-15)
        assert np.allclose(comm(X2, X3), 2 * X1, atol=1e-15)
        assert np.allclose(comm(X3, X1), 2 * X2, atol=1e-15)

    def test_su2_constants_match_commutator_table(self, frame):
        expected = np.zeros((3, 3, 3))
        for k, i, j in ((2, 0, 1), (0, 1, 2), (1, 2, 0)):
            expected[k, i, j] = 2.0
            expected[k, j, i] = -2.0
        assert np.abs(frame.c - expected).max() <= 1e-12

    def test_bracket_residual_is_zero(self, frame):
        basis = np.stack([X1, X2, X3])
        for i in range(3):
            for j in range(3):
                recon = np.einsum("k,kab->ab", frame.c[:, i, j], basis)
                assert np.abs(comm(basis[i], basis[j]) - recon).max() <= 1e-12

    def test_frame_maps_are_unit_quaternion_multiplications(self):
        # M_i^2 = -I, M_i M_j = -M_j M_i (i != j) and M_i^T = -M_i, exactly
        m = _FRAME_MAPS
        for i in range(3):
            assert np.array_equal(m[i] @ m[i], -np.eye(4))
            assert np.array_equal(m[i].T, -m[i])
            for j in range(3):
                if i != j:
                    assert np.array_equal(m[i] @ m[j], -(m[j] @ m[i]))

    @pytest.mark.parametrize("entry", [tuple(ix) for ix in np.argwhere(_FRAME_MAPS)])
    def test_frame_map_with_one_wrong_sign_fails_the_bracket_check(self, monkeypatch, entry):
        maps = _FRAME_MAPS.copy()
        maps[entry] = -maps[entry]
        monkeypatch.setattr(lie_curvature, "_FRAME_MAPS", maps)
        su2_structure_constants.cache_clear()
        try:
            with pytest.raises(InputFormatError, match="bracket expansion residual"):
                su2_structure_constants()
        finally:
            su2_structure_constants.cache_clear()

    def test_antisymmetry_violation_rejected(self):
        c = np.zeros((3, 3, 3))
        c[2, 0, 1] = 2.0  # missing the -2 partner
        with pytest.raises(InputFormatError):
            LieAlgebraFrame(c)

    def test_jacobi_violation_rejected(self, frame):
        c = frame.c.copy()
        # graft an extra X1 component onto [X1, X2]; antisymmetry survives but
        # the cyclic Jacobi sum picks up an uncancelled residual of 2
        c[0, 0, 1] = 1.0
        c[0, 1, 0] = -1.0
        with pytest.raises(InputFormatError):
            LieAlgebraFrame(c)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e160, 1e200])
    def test_jacobi_violation_rejected_at_any_scale(self, scale):
        # unnormalized, the Jacobi sum of constants near 1e160 is inf - inf
        with pytest.raises(InputFormatError, match="violate the Jacobi identity"):
            LieAlgebraFrame(scale * JACOBI_VIOLATING)

    def test_bad_shape_rejected(self):
        with pytest.raises(InputFormatError):
            LieAlgebraFrame(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_constants_rejected(self, frame, bad):
        # a NaN everywhere passes both identity checks (NaN > tol is False)
        with pytest.raises(InputFormatError):
            LieAlgebraFrame(np.full((3, 3, 3), bad))
        c = frame.c.copy()
        c[1, 2, 0] = bad
        with pytest.raises(InputFormatError):
            LieAlgebraFrame(c)

    def test_cached_frame_is_shared_and_read_only(self):
        frame = su2_structure_constants()
        assert su2_structure_constants() is frame
        with pytest.raises(ValueError):
            frame.c[2, 0, 1] = 0.0
        assert frame.c[2, 0, 1] == 2.0

    def test_frame_copies_the_callers_array(self, frame):
        c = frame.c.copy()
        loaded = LieAlgebraFrame(c)
        c[2, 0, 1] = 5.0  # the caller's array stays writable ...
        assert loaded.c[2, 0, 1] == 2.0  # ... and the frame keeps its own copy


class TestMetricTypes:
    def test_round_and_berger_constructors(self):
        assert np.array_equal(FrameMetric.round().matrix, np.eye(3))
        assert np.array_equal(
            FrameMetric.berger(2.0, 5.0).matrix, np.diag([1.0, 2.0, 5.0])
        )

    def test_symmetry_required(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(InvalidMetricError):
            FrameMetric(m)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_symmetry_bound_is_relative(self, scale):
        # 50% asymmetric at every scale, small entries included
        m = scale * np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidMetricError):
            FrameMetric(m)
        # a relative asymmetry of 1e-13 is roundoff and is symmetrized
        m = scale * np.diag([1.0, 2.0, 3.0])
        m[0, 1] = scale * 1e-13
        sym = FrameMetric(m).matrix
        assert np.array_equal(sym, sym.T) and sym[0, 1] == 0.5 * scale * 1e-13

    def test_asymmetry_near_overflow_rejected(self):
        # m - m^T of +-1e308 entries overflows: still "must be symmetric",
        # and no RuntimeWarning
        m = np.array([[1e308, 1e308, 0.0], [-1e308, 1e308, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidMetricError, match="must be symmetric"):
            FrameMetric(m)
        # a relative asymmetry of 1e-15 is roundoff, and is stored as the
        # sum of the halves
        m[0, 1], m[1, 0] = 5e307, 5e307 * (1.0 + 1e-15)
        assert np.array_equal(FrameMetric(m).matrix, 0.5 * m + 0.5 * m.T)

    def test_positive_definite_required(self):
        with pytest.raises(InvalidMetricError):
            FrameMetric(np.diag([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InvalidMetricError):
            FrameMetric(np.diag([bad, 1.0, 1.0]))
        m = np.eye(3)
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(InvalidMetricError):
            FrameMetric(m)

    def test_berger_params_domain(self):
        with pytest.raises(InvalidMetricError):
            BergerParams(0.5, 2.0)
        with pytest.raises(InvalidMetricError):
            BergerParams(2.0, 1.0)
        with pytest.raises(InvalidMetricError):
            BergerParams(1.0, float("inf"))
        p = BergerParams(1.0, 3.0)
        assert np.array_equal(p.metric().matrix, np.diag([1.0, 1.0, 3.0]))


def numpy_checked_metric(matrix) -> np.ndarray:
    """The FrameMetric checks written with numpy calls throughout, as
    they stood before they moved to Python floats: the stored matrix,
    or the exception."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        raise InvalidMetricError(f"frame metric must be 3x3, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMetricError("frame metric has non-finite entries")
    h = 0.5 * m
    if np.abs(h - h.T).max() > 1e-12 * np.abs(h).max():
        raise InvalidMetricError("frame metric must be symmetric")
    m = h + h.T
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise InvalidMetricError("frame metric must be positive definite")
    return m


def outcome(build, matrix):
    """The bits of the matrix `build` stores, or its exception's type
    and message."""
    try:
        stored = build(matrix)
    except Exception as exc:
        return type(exc), str(exc)
    return "stored", np.asarray(stored, dtype=float).view(np.uint64).tolist()


def with_entries(base, entries) -> np.ndarray:
    m = np.array(base, dtype=float)
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


def metric_edge_corpus() -> list:
    """Matrices on each side of every FrameMetric check."""
    corpus = []
    # asymmetry at the relative bound 1e-12 max|h| and one and two ulps
    # either side, for each off-diagonal pair in both orientations, with
    # the largest entry on or off the diagonal, at several scales
    for scale in (1e-300, 1e-3, 1.0, 1e200, 1e307):
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for big in (1.0, 4.0):
                base = scale * np.diag([1.0, 2.0, big])
                bound = 1e-12 * (0.5 * scale * big)  # the bound on the halves
                for offset in (0.0, 0.375 * scale):
                    at = offset + 2.0 * bound  # |h_ij - h_ji| lands on the bound
                    for steps in range(-2, 3):
                        x = at
                        for _ in range(abs(steps)):
                            x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
                        corpus.append(with_entries(base, {(i, j): x, (j, i): offset}))
                        corpus.append(with_entries(base, {(j, i): x, (i, j): offset}))
    # entries near +-1e308, where the halving first matters
    top = np.finfo(float).max
    for a, b in ((1e308, 1e308), (1e308, -1e308), (top, top), (top, -top), (top, np.nextafter(top, 0.0)),
                 (-top, -top), (1.7e308, 1.7e308 * (1.0 - 1e-15)), (5e307, 5e307 * (1.0 + 1e-15))):
        corpus.append(with_entries(np.diag([top, top, 1.0]), {(0, 1): a, (1, 0): b}))
        corpus.append(with_entries(np.diag([1e308, 1e308, 1e308]), {(0, 2): a, (2, 0): b}))
    corpus.append(np.diag([top, top, top]))
    corpus.append(-np.diag([top, top, top]))
    # NaN and infinities anywhere, and signed zeros
    for bad in (np.nan, -np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (0, 1), (2, 1), (2, 2)):
            corpus.append(with_entries(np.eye(3), {(i, j): bad}))
    corpus.append(with_entries(np.eye(3), {(0, 1): -0.0, (1, 0): 0.0, (2, 1): -0.0}))
    corpus.append(with_entries(np.eye(3), {(0, 1): -0.0, (1, 0): -0.0}))
    corpus.append(np.zeros((3, 3)))
    corpus.append(-np.zeros((3, 3)))
    corpus.append(np.diag([-0.0, 1.0, 1.0]))
    # shapes other than 3x3, and ragged lists
    corpus += [np.eye(2), np.eye(4), np.ones((3, 4)), np.ones(9), np.float64(1.0), np.ones((1, 3, 3))]
    corpus += [[[1, 0, 0], [0, 1], [0, 0, 1]], [[1, 0, 0], [0, 1, 0, 0], [0, 0, 1]], [[1, 0], [0, 1]]]
    # singular, indefinite and negative definite
    corpus += [np.diag([1.0, 1.0, 0.0]), np.ones((3, 3)), np.diag([1.0, -1.0, 1.0]),
               -np.eye(3), np.diag([1.0, 1.0, -1e-300]), np.diag([1.0, 1.0, 5e-324]),
               np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    # random symmetric, nearly symmetric and asymmetric matrices
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.standard_normal((3, 3))
        spd = a @ a.T + 1e-3 * np.eye(3)
        corpus += [spd, spd + 1e-13 * rng.standard_normal((3, 3)), a, 0.5 * (a + a.T)]
    return corpus


class TestMetricChecks:
    """FrameMetric runs its finiteness and symmetry checks on Python
    floats: each accepts and rejects what the numpy checks did."""

    def test_accepts_and_rejects_as_numpy_checks(self):
        outcomes = set()
        for matrix in metric_edge_corpus():
            want = outcome(numpy_checked_metric, matrix)
            assert outcome(lambda m: FrameMetric(m).matrix, matrix) == want, matrix
            kind, detail = want
            outcomes.add(kind if kind in ("stored", ValueError) else detail.split(",")[0])
        # the corpus reaches every outcome (ragged lists fail in numpy)
        assert outcomes == {
            "stored",
            ValueError,
            "frame metric has non-finite entries",
            "frame metric must be symmetric",
            "frame metric must be positive definite",
            "frame metric must be 3x3",
        }

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e307])
    def test_asymmetry_bound_is_inclusive(self, scale):
        # |h_01 - h_10| equal to 1e-12 max|h| is accepted, one ulp more is not
        bound = 1e-12 * (0.5 * scale * 4.0)
        m = with_entries(scale * np.diag([1.0, 2.0, 4.0]), {(0, 1): 2.0 * bound})
        assert FrameMetric(m).matrix[0, 1] == bound
        m[0, 1] = np.nextafter(m[0, 1], np.inf)
        with pytest.raises(InvalidMetricError, match="must be symmetric"):
            FrameMetric(m)

    def test_matrix_is_read_only_and_the_callers_array_is_not(self):
        m = np.diag([1.0, 2.0, 3.0])
        metric = FrameMetric(m)
        with pytest.raises(ValueError):
            metric.matrix[0, 0] = 5.0
        assert metric.matrix[0, 0] == 1.0
        m[0, 0] = 5.0  # the caller's array stays writable ...
        assert metric.matrix[0, 0] == 1.0  # ... and the metric keeps its own copy

    def test_round_metric_is_shared_and_read_only(self):
        metric = FrameMetric.round()
        assert FrameMetric.round() is metric
        with pytest.raises(ValueError):
            metric.matrix[1, 1] = 0.0
        assert np.array_equal(metric.matrix, np.eye(3))


class TestConnection:
    def test_round_connection_is_half_bracket(self, frame):
        gamma = levi_civita(frame, FrameMetric.round())
        assert np.abs(gamma - 0.5 * frame.c).max() <= 1e-14
        # nabla_{X1} X2 = X3 on the unit round sphere
        assert gamma[2, 0, 1] == pytest.approx(1.0, abs=1e-14)

    def test_abelian_connection_vanishes(self):
        flat = LieAlgebraFrame(np.zeros((3, 3, 3)))
        gamma = levi_civita(flat, FrameMetric(np.diag([1.0, 2.0, 3.0])))
        assert np.abs(gamma).max() == 0.0

    @pytest.mark.parametrize("diag", [(1.0, 1.0, 3.0), (1.0, 2.0, 7.0)])
    def test_torsion_free(self, frame, diag):
        gamma = levi_civita(frame, FrameMetric(np.diag(diag)))
        torsion = gamma - np.transpose(gamma, (0, 2, 1)) - frame.c
        assert np.abs(torsion).max() <= 1e-12

    def test_metric_compatibility_random(self, frame):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            G = FrameMetric(a @ a.T + 3 * np.eye(3))
            gamma = levi_civita(frame, G)
            # <nabla_i X_j, X_k> + <X_j, nabla_i X_k> must vanish
            comp = np.einsum("lij,lk->ijk", gamma, G.matrix) + np.einsum(
                "lik,jl->ijk", gamma, G.matrix
            )
            assert np.abs(comp).max() <= 1e-12 * np.abs(G.matrix).max()


class TestCurvatureReport:
    def test_round_sphere(self, frame):
        rep = curvature_report(frame, FrameMetric.round())
        assert rep.scalar == pytest.approx(6.0, abs=1e-12)
        assert np.abs(rep.ricci - 2.0 * np.eye(3)).max() <= 1e-12
        assert np.abs(np.sort(rep.ricci_eigenvalues) - 2.0).max() <= 1e-12
        assert rep.einstein_deviation <= 1e-13

    def test_berger_1_3(self, frame):
        rep = curvature_report(frame, FrameMetric.berger(1.0, 3.0))
        assert rep.scalar == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(
            np.sort(rep.ricci_eigenvalues), [-2.0, -2.0, 6.0], atol=1e-12
        )
        assert rep.einstein_deviation > 1e-2

    def test_riemann_symmetries_random_metrics(self, frame):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            G = FrameMetric(a @ a.T + 3 * np.eye(3))
            rep = curvature_report(frame, G)
            r = rep.riemann
            rl = np.einsum("la,akij->lkij", G.matrix, r)
            scale = max(np.abs(rl).max(), 1.0)
            assert np.abs(rl + rl.transpose(0, 1, 3, 2)).max() <= 1e-12 * scale
            assert np.abs(rl + rl.transpose(1, 0, 2, 3)).max() <= 1e-12 * scale
            assert np.abs(rl - rl.transpose(3, 2, 1, 0)).max() <= 1e-12 * scale
            bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
            assert np.abs(bianchi).max() <= 1e-12 * scale

    def test_report_dict_serializable(self, frame, tmp_path):
        # the CLI lays the report out as a payload of its five data fields
        import json

        from relyamabe.cli import main

        rep = curvature_report(frame, FrameMetric.berger(1.0, 3.0))
        spec, out = tmp_path / "m.json", tmp_path / "payload.json"
        spec.write_text(json.dumps({"metric": rep.metric.matrix.tolist(),
                                    "structure_constants": frame.c.tolist()}))
        assert main(["curvature", "--spec", str(spec), "--out", str(out), "--quiet"]) == 0
        assert json.loads(out.read_text()) == {
            "metric": rep.metric.matrix.tolist(),
            "ricci": rep.ricci.tolist(),
            "scalar": rep.scalar,
            "ricci_eigenvalues": rep.ricci_eigenvalues.tolist(),
            "einstein_deviation": rep.einstein_deviation,
        }


#: an orthogonal matrix, the Q factor of a 3x3 matrix with entries in [-1, 1]
ROTATION = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda a: np.linalg.qr(np.reshape(a, (3, 3)))[0]
)
#: eigenvalues of a metric, log-uniform over [1e-3, 1e3]
EIGENVALUES = st.tuples(*(st.floats(-3.0, 3.0).map(lambda e: 10.0**e),) * 3)


class TestReportTracesItsTensor:
    """curvature_report traces its own Riemann tensor; the stacked
    `_ricci`, which forms only the diagonal that trace reads, has the
    same bits."""

    def assert_same_bits(self, frame, metric):
        rep = curvature_report(frame, metric)
        _, ricci, scalar = lie_curvature._ricci(frame.c, metric.matrix[None])
        assert np.array_equal(rep.ricci, ricci[0])
        assert rep.scalar == scalar[0]
        trace = np.einsum("ikij->jk", rep.riemann)
        assert np.array_equal(0.5 * (trace + trace.T), rep.ricci)

    def test_berger_band(self, frame):
        values = 1.0 + 3.0 * np.arange(61) / 60
        points = [(s, t) for s in values for t in values if s <= t]
        assert len(points) == 1891
        for s, t in points:
            self.assert_same_bits(frame, FrameMetric.berger(s, t))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(EIGENVALUES, ROTATION)
    def test_rotated_metrics(self, frame, eigs, o):
        m = o @ np.diag(eigs) @ o.T
        self.assert_same_bits(frame, FrameMetric(0.5 * (m + m.T)))


class TestClosedForms:
    def test_reference_values(self):
        assert berger_scalar_closed(BergerParams(1.0, 1.0)) == pytest.approx(6.0)
        assert berger_scalar_closed(BergerParams(1.0, 3.0)) == pytest.approx(2.0)
        assert berger_scalar_closed(BergerParams(1.0, 4.0)) == pytest.approx(
            0.0, abs=1e-14
        )
        assert np.allclose(
            berger_ricci_closed(BergerParams(1.0, 1.0)), [2.0, 2.0, 2.0]
        )
        assert np.allclose(
            berger_ricci_closed(BergerParams(1.0, 3.0)), [-2.0, -2.0, 6.0]
        )

    def test_trace_identity(self):
        # the closed-form entries are endomorphism (mixed-index) eigenvalues,
        # so the scalar curvature is their plain sum
        for s, t in [(2.0, 2.0), (1.0, 3.0), (1.5, 4.0)]:
            p = BergerParams(s, t)
            r = berger_ricci_closed(p)
            assert berger_scalar_closed(p) == pytest.approx(
                r.sum(), rel=1e-12, abs=1e-12
            )

    def test_engine_matches_closed_forms_on_grid(self, frame):
        vals = np.linspace(1.0, 4.0, 10)
        for s in vals:
            for t in vals:
                metric = FrameMetric(np.diag([1.0, s, t]))
                rep = curvature_report(frame, metric)
                # closed forms are stated for normalized s <= t; the
                # metric is symmetric under swapping the last two weights
                p = BergerParams(min(s, t), max(s, t))
                r_exp = berger_scalar_closed(p)
                assert rep.scalar == pytest.approx(r_exp, rel=1e-10, abs=1e-10)
                eig_exp = np.sort(berger_ricci_closed(p))
                eig_got = np.sort(rep.ricci_eigenvalues)
                assert np.abs(eig_got - eig_exp).max() <= 1e-10 * max(
                    1.0, np.abs(eig_exp).max()
                )

    def test_weight_swap_symmetry(self, frame):
        rng = np.random.default_rng(3)
        for _ in range(5):
            s, t = rng.uniform(1.0, 5.0, 2)
            a = curvature_report(frame, FrameMetric(np.diag([1.0, s, t])))
            b = curvature_report(frame, FrameMetric(np.diag([1.0, t, s])))
            assert a.scalar == pytest.approx(b.scalar, rel=1e-12, abs=1e-12)
            assert np.allclose(
                np.sort(a.ricci_eigenvalues),
                np.sort(b.ricci_eigenvalues),
                atol=1e-12,
                rtol=1e-12,
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scalar_scales_inversely(self, frame, lam):
        G = FrameMetric(np.diag([1.0, 1.3, 2.6]))
        base = curvature_report(frame, G).scalar
        scaled = curvature_report(frame, FrameMetric(lam * G.matrix)).scalar
        assert scaled == pytest.approx(base / lam, rel=1e-12)


def einstein_deviation(s, t):
    metric = BergerParams(s, t).metric()
    return curvature_report(su2_structure_constants(), metric).einstein_deviation


class TestEinsteinLocus:
    def test_round_is_einstein(self):
        assert einstein_deviation(1.0, 1.0) <= 1e-12

    def test_off_locus_detected(self):
        assert einstein_deviation(1.0, 1.2) > 0.01
        assert einstein_deviation(2.0, 2.0) > 0.0
        assert einstein_deviation(1.0, 3.0) > 0.01
