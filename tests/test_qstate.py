import math

import numpy as np
import pytest

from conftest import (
    random_density_matrix,
    random_pure_state,
    random_rotation,
    random_triad,
    random_unitary,
)
from steerqkd import (
    BlochForm,
    DensityMatrix,
    InvalidDirection,
    InvalidState,
    MeasurementTriad,
    TensorSpectrum,
    bloch_decompose,
    joint_outcome_distribution,
    make_bell_diagonal,
    make_gamma,
    matrices_close,
    reconstruct_state,
    tensor_spectrum,
)
from steerqkd.families import BellDiagonalParams, GammaParams
from steerqkd.qstate import PAULIS

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def special_states(rng):
    """Pure, rank-deficient, maximally mixed and family states."""
    ka = rng.normal(size=2) + 1j * rng.normal(size=2)
    kb = rng.normal(size=2) + 1j * rng.normal(size=2)
    u = random_unitary(rng, dim=4)
    return [
        DensityMatrix.from_ket(np.kron(ka, kb)),            # pure product
        random_pure_state(rng),                             # pure entangled
        DensityMatrix(u @ np.diag([0.6, 0.4, 0.0, 0.0]) @ u.conj().T),  # rank 2
        DensityMatrix(np.eye(4, dtype=complex) / 4),
        make_gamma(GammaParams(q=0.7, alpha=0.5)),
        make_bell_diagonal(BellDiagonalParams(0.6, 0.2, 0.1, 0.1)),
    ]


class TestDensityMatrix:
    def test_accepts_random_mixed_states(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = random_density_matrix(rng)
            assert rho.matrix.shape == (4, 4)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.eye(2) / 2)

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.3
        with pytest.raises(InvalidState):
            DensityMatrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            DensityMatrix(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(InvalidState):
            DensityMatrix(mat)

    def test_symmetrises_roundoff_hermiticity(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 1e-12          # below the rejection threshold
        rho = DensityMatrix(mat)
        assert matrices_close(rho.matrix, rho.matrix.conj().T)

    def test_matrix_is_read_only(self):
        rho = random_density_matrix(np.random.default_rng(0))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_from_ket_normalises(self):
        rho = DensityMatrix.from_ket(np.array([2.0, 0.0, 0.0, 0.0]))
        assert rho.matrix[0, 0] == pytest.approx(1.0)

    def test_from_ket_rejects_zero(self):
        with pytest.raises(InvalidState):
            DensityMatrix.from_ket(np.zeros(4))

    def test_isclose(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng)
        assert rho.isclose(rho)
        assert not rho.isclose(random_density_matrix(rng))


class TestBlochForm:
    def test_rejects_long_local_vector(self):
        with pytest.raises(InvalidState):
            BlochForm(np.array([1.0, 1.0, 0.0]), np.zeros(3), np.zeros((3, 3)))

    def test_rejects_out_of_range_correlator(self):
        w = np.zeros((3, 3))
        w[0, 0] = 1.5
        with pytest.raises(InvalidState):
            BlochForm(np.zeros(3), np.zeros(3), w)

    def test_extreme_admitted_states_pass_downstream_checks(self):
        # Trace 1 + ~STATE_TOL and three eigenvalues at ~PSD_FLOOR: the
        # largest Pauli expectations and the most negative outcome
        # probabilities an admitted state can give.  Every later check
        # must accept them.
        rng = np.random.default_rng(61)
        lam = np.diag([1.0 + 3.09e-9, -0.999e-9, -0.999e-9, -0.999e-9])
        frames = [np.eye(4)] + [random_unitary(rng, dim=4) for _ in range(20)]
        for u in frames:
            bf = bloch_decompose(DensityMatrix(u @ lam @ u.conj().T))
            tensor_spectrum(bf)
            for _ in range(10):
                t = random_triad(rng)
                p = joint_outcome_distribution(bf, t.dirs[0], t.dirs[1])
                assert p.min() >= 0.0
        bf = bloch_decompose(DensityMatrix(np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0])))
        assert tensor_spectrum(bf).sigma[0] > 1.0
        assert joint_outcome_distribution(bf, [0, 0, 1], [0, 0, 1])[0, 1] == 0.0

    def test_arrays_read_only(self):
        bf = bloch_decompose(random_density_matrix(np.random.default_rng(1)))
        with pytest.raises(ValueError):
            bf.w[0, 0] = 0.0


class TestDecomposition:
    def test_roundtrip_on_random_states(self):
        rng = np.random.default_rng(21)
        states = [random_density_matrix(rng) for _ in range(300)]
        for rho in states + special_states(rng):
            again = reconstruct_state(bloch_decompose(rho))
            assert rho.isclose(again, tol=1e-10)

    def test_components_are_pauli_expectations(self):
        # independent route: a_i = tr(rho (s_i x I)) etc.
        rng = np.random.default_rng(22)
        states = [random_density_matrix(rng) for _ in range(5)]
        eye = np.eye(2)
        for rho in states + special_states(rng):
            bf = bloch_decompose(rho)
            for i in range(3):
                a_i = np.trace(rho.matrix @ np.kron(PAULIS[i], eye)).real
                b_i = np.trace(rho.matrix @ np.kron(eye, PAULIS[i])).real
                assert bf.a_vec[i] == pytest.approx(a_i, abs=1e-12)
                assert bf.b_vec[i] == pytest.approx(b_i, abs=1e-12)
                for j in range(3):
                    w_ij = np.trace(rho.matrix @ np.kron(PAULIS[i], PAULIS[j])).real
                    assert bf.w[i, j] == pytest.approx(w_ij, abs=1e-12)

    def test_maximally_mixed(self):
        bf = bloch_decompose(DensityMatrix(np.eye(4, dtype=complex) / 4))
        assert np.allclose(bf.a_vec, 0) and np.allclose(bf.b_vec, 0)
        assert np.allclose(bf.w, 0)

    def test_singlet_tensor(self):
        bf = bloch_decompose(DensityMatrix.from_ket(PSI_MINUS))
        assert np.allclose(bf.a_vec, 0, atol=1e-12)
        assert np.allclose(bf.b_vec, 0, atol=1e-12)
        assert np.allclose(bf.w, -np.eye(3), atol=1e-12)

    def test_product_state_tensor_is_outer_product(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            ka = rng.normal(size=2) + 1j * rng.normal(size=2)
            kb = rng.normal(size=2) + 1j * rng.normal(size=2)
            ka /= np.linalg.norm(ka)
            kb /= np.linalg.norm(kb)
            rho = DensityMatrix(np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj())))
            bf = bloch_decompose(rho)
            assert np.allclose(bf.w, np.outer(bf.a_vec, bf.b_vec), atol=1e-10)

    def test_reconstruct_rejects_unphysical(self):
        # correlator box outside the quantum set: perfect correlation on
        # all three axes simultaneously with positive sign
        with pytest.raises(InvalidState):
            reconstruct_state(BlochForm(np.zeros(3), np.zeros(3), np.eye(3)))


class TestTensorSpectrum:
    def test_from_matrix_matches_svd(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            bf = bloch_decompose(random_density_matrix(rng))
            spec = tensor_spectrum(bf)
            ref = np.linalg.svd(bf.w, compute_uv=False)
            assert np.allclose(spec.sigma, ref, atol=1e-12)
            assert spec.sigma[0] >= spec.sigma[1] >= spec.sigma[2] >= 0
            det = np.linalg.det(bf.w)
            assert np.sign(spec.signed[2]) in (0.0, np.sign(det))
            assert np.allclose(np.abs(spec.signed), spec.sigma, atol=1e-12)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            rho = random_density_matrix(rng)
            ua, ub = random_unitary(rng), random_unitary(rng)
            u = np.kron(ua, ub)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            s1 = tensor_spectrum(bloch_decompose(rho))
            s2 = tensor_spectrum(bloch_decompose(rotated))
            assert np.allclose(s1.sigma, s2.sigma, atol=1e-9)

    def test_from_diagonal(self):
        spec = TensorSpectrum.from_diagonal(-0.2, 0.5, -0.1)
        assert spec.sigma == pytest.approx((0.5, 0.2, 0.1))
        # two sign flips cancel in the determinant
        assert spec.signed[2] == pytest.approx(0.1)

    def test_rejects_unsorted_sigma(self):
        with pytest.raises(InvalidState):
            TensorSpectrum((0.1, 0.5, 0.2), (0.1, 0.5, 0.2))

    @pytest.mark.parametrize("i", range(3))
    def test_rejects_nan_signed(self, i):
        signed = [0.5, 0.4, 0.3]
        signed[i] = math.nan
        with pytest.raises(InvalidState, match="signed triple"):
            TensorSpectrum((0.5, 0.4, 0.3), tuple(signed))


class TestMeasurementTriad:
    def test_rejects_non_orthonormal(self):
        dirs = np.array([[1.0, 0, 0], [0.9, 0.1, 0], [0, 0, 1.0]])
        with pytest.raises(InvalidDirection):
            MeasurementTriad(dirs)

    def test_axes_and_negated(self):
        triad = MeasurementTriad.axes()
        assert np.allclose(triad.dirs, np.eye(3))
        assert np.allclose(triad.negated().dirs, -np.eye(3))

    def test_accepts_any_rotation(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            MeasurementTriad(random_rotation(rng))

    def test_iteration_yields_rows(self):
        rows = list(MeasurementTriad.axes())
        assert len(rows) == 3
        assert np.allclose(rows[2], [0, 0, 1])


class TestJointOutcomes:
    def test_matches_projector_computation(self):
        # oracle: build the four projectors explicitly and take traces
        rng = np.random.default_rng(51)
        eye = np.eye(2)
        for _ in range(100):
            rho = random_density_matrix(rng)
            bf = bloch_decompose(rho)
            u = random_rotation(rng)[0]
            v = random_rotation(rng)[1]
            got = joint_outcome_distribution(bf, u, v)
            pa = [(eye + s * sum(u[k] * PAULIS[k] for k in range(3))) / 2 for s in (1, -1)]
            pb = [(eye + s * sum(v[k] * PAULIS[k] for k in range(3))) / 2 for s in (1, -1)]
            for a in range(2):
                for b in range(2):
                    want = np.trace(rho.matrix @ np.kron(pa[a], pb[b])).real
                    assert got[a, b] == pytest.approx(want, abs=1e-12)

    def test_distribution_is_normalised(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            bf = bloch_decompose(random_density_matrix(rng))
            t = random_triad(rng)
            p = joint_outcome_distribution(bf, t.dirs[0], t.dirs[1])
            assert p.min() >= 0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation_on_singlet(self):
        bf = bloch_decompose(DensityMatrix.from_ket(PSI_MINUS))
        p = joint_outcome_distribution(bf, [0, 0, 1], [0, 0, 1])
        assert p[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert p[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert p[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_unphysical_bloch_form(self):
        # a valid BlochForm whose p(1, 1) is -1/2
        bf = BlochForm(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]),
                       np.diag([0.0, 0.0, -1.0]))
        with pytest.raises(InvalidState):
            joint_outcome_distribution(bf, [0, 0, 1], [0, 0, 1])

    def test_rejects_non_unit_direction(self):
        bf = bloch_decompose(DensityMatrix(np.eye(4, dtype=complex) / 4))
        with pytest.raises(InvalidDirection):
            joint_outcome_distribution(bf, [0, 0, 2.0], [0, 0, 1.0])
