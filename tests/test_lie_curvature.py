"""Frame algebra, connection, and curvature of left invariant metrics."""

import numpy as np
import pytest

from relyamabe import (
    BergerParams,
    FrameMetric,
    InputFormatError,
    InvalidMetricError,
    LieAlgebraFrame,
    berger_ricci_closed,
    berger_scalar_closed,
    curvature_report,
    einstein_locus_check,
    frame_from_matrices,
    levi_civita,
    su2_structure_constants,
)

# Independent oracle: the three 2x2 anti-Hermitian generators, written out
# here from scratch so the bracket table is cross-checked against direct
# matrix commutators rather than against the library's own constants.
X1 = np.array([[1j, 0], [0, -1j]])
X2 = np.array([[0, 1], [-1, 0]], dtype=complex)
X3 = np.array([[0, 1j], [1j, 0]])


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
        assert frame.bracket_residual() <= 1e-12

    def test_frame_from_matrices_recovers_constants(self, frame):
        rebuilt = frame_from_matrices(np.stack([X1, X2, X3]))
        assert np.abs(rebuilt.c - frame.c).max() <= 1e-12

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
        with pytest.raises(ValueError):
            frame.matrices[0, 0, 0] = 0.0
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

    def test_report_dict_serializable(self, frame):
        import json

        rep = curvature_report(frame, FrameMetric.berger(1.0, 3.0))
        payload = json.dumps(rep.to_dict())
        assert "scalar" in payload


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


class TestEinsteinLocus:
    def test_round_is_einstein(self):
        assert einstein_locus_check(BergerParams(1.0, 1.0)) <= 1e-12

    def test_off_locus_detected(self):
        assert einstein_locus_check(BergerParams(1.0, 1.2)) > 0.01
        assert einstein_locus_check(BergerParams(2.0, 2.0)) > 0.0
        assert einstein_locus_check(BergerParams(1.0, 3.0)) > 0.01
