import math

import numpy as np
import pytest

from steerqkd import (
    BadParam,
    BadRange,
    BadWeights,
    bloch_decompose,
    classify_usefulness,
    is_f3_steerable,
    make_bell_diagonal,
    make_gamma,
    make_werner,
    tensor_spectrum,
)
from steerqkd.families import (
    BELL_KETS,
    BellDiagonalParams,
    GammaParams,
    WernerParams,
    belldiag_predicates,
    belldiag_reference_triple,
    gamma_correlation_diag,
    gamma_predicates,
    scan_rows,
    werner_correlation_diag,
)
from steerqkd.filtering import FilterPair

SQRT3 = math.sqrt(3.0)


class TestBellKets:
    def test_orthonormal(self):
        g = np.array(BELL_KETS)
        assert np.allclose(g @ g.conj().T, np.eye(4), atol=1e-12)

    def test_singlet_antisymmetry(self):
        # first listed ket is the singlet: swapping the qubits negates it
        singlet = BELL_KETS[0]
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(swap @ singlet, -singlet, atol=1e-12)
        for ket in BELL_KETS[1:]:
            assert np.allclose(swap @ ket, ket, atol=1e-12)


class TestParamValidation:
    def test_bell_diagonal_simplex(self):
        BellDiagonalParams(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(BadWeights):
            BellDiagonalParams(0.5, 0.5, 0.25, -0.25)
        with pytest.raises(BadWeights):
            BellDiagonalParams(0.3, 0.3, 0.3, 0.3)

    def test_werner_range(self):
        WernerParams(0.0)
        WernerParams(1.0)
        with pytest.raises(BadParam):
            WernerParams(-0.1)
        with pytest.raises(BadParam):
            WernerParams(1.1)

    def test_gamma_ranges(self):
        GammaParams(q=0.5, alpha=0.3)
        GammaParams(q=0.0, alpha=0.0)
        GammaParams(q=1.0, alpha=math.pi / 4)
        with pytest.raises(BadParam):
            GammaParams(q=1.2, alpha=0.3)
        with pytest.raises(BadParam):
            GammaParams(q=0.5, alpha=-0.1)
        with pytest.raises(BadParam):
            GammaParams(q=0.5, alpha=1.0)

    @pytest.mark.parametrize("cls, args, error", [
        pytest.param(FilterPair, (0.5,), BadParam, id="FilterPair"),
        pytest.param(WernerParams, (), BadParam, id="WernerParams"),
        pytest.param(GammaParams, (0.3,), BadParam, id="GammaParams"),
        pytest.param(BellDiagonalParams, (0.0, 0.0, 0.0), BadWeights,
                     id="BellDiagonalParams"),
    ])
    @pytest.mark.parametrize("flag", [True, np.bool_(True), "0.5"],
                             ids=["bool", "numpy_bool", "str"])
    def test_rejects_booleans(self, cls, args, error, flag):
        # float() maps True to 1.0 and parses "0.5", both valid for every field here
        with pytest.raises(error, match="must be a number"):
            cls(flag, *args)

    def test_werner_embedding(self):
        p = WernerParams(0.6).as_bell_diagonal() if hasattr(WernerParams(0.6), "as_bell_diagonal") else None
        q = BellDiagonalParams.from_werner(0.6)
        assert q.w1 == pytest.approx((1 + 3 * 0.6) / 4, abs=1e-12)
        assert q.w2 == q.w3 == q.w4
        assert q.w2 == pytest.approx((1 - 0.6) / 4, abs=1e-12)
        if p is not None:
            assert p == q


class TestGenerators:
    def test_bell_diagonal_density(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = BellDiagonalParams(*rng.dirichlet(np.ones(4)))
            rho = make_bell_diagonal(p)
            # eigenvalues are exactly the weights
            evs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            assert np.allclose(evs, np.sort(p.weights)[::-1], atol=1e-10)
            bf = bloch_decompose(rho)
            assert np.allclose(bf.a_vec, 0, atol=1e-12)
            assert np.allclose(bf.b_vec, 0, atol=1e-12)
            assert np.allclose(bf.w, np.diag(np.diagonal(bf.w)), atol=1e-12)

    def test_werner_is_isotropic_noise_plus_singlet(self):
        for omega in (0.0, 0.37, 1.0):
            rho = make_werner(WernerParams(omega))
            singlet = np.outer(BELL_KETS[0], BELL_KETS[0].conj())
            want = omega * singlet + (1 - omega) * np.eye(4) / 4
            assert np.allclose(rho.matrix, want, atol=1e-12)

    def test_werner_correlation_diag(self):
        for omega in (0.0, 0.4, 0.8, 1.0):
            bf = bloch_decompose(make_werner(WernerParams(omega)))
            diag = werner_correlation_diag(WernerParams(omega))
            assert np.allclose(np.diagonal(bf.w), diag, atol=1e-12)
            assert np.allclose(diag, -omega * np.ones(3), atol=1e-15)

    def test_gamma_correlation_diag_exact(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            q = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.0, math.pi / 4)
            bf = bloch_decompose(make_gamma(GammaParams(q=q, alpha=alpha)))
            want = gamma_correlation_diag(GammaParams(q=q, alpha=alpha))
            assert np.allclose(np.diagonal(bf.w), want, atol=1e-12)
            assert np.allclose(bf.w, np.diag(np.diagonal(bf.w)), atol=1e-12)
            s2a = math.sin(2 * alpha)
            assert want[0] == pytest.approx(q * s2a, abs=1e-12)
            assert want[1] == pytest.approx(q * s2a, abs=1e-12)
            assert want[2] == pytest.approx(1 - 2 * q, abs=1e-12)

    def test_gamma_local_vectors(self):
        # a_z = (1-q) - q cos(2a), b_z = (1-q) + q cos(2a), x/y vanish
        rng = np.random.default_rng(103)
        for _ in range(100):
            q = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.0, math.pi / 4)
            bf = bloch_decompose(make_gamma(GammaParams(q=q, alpha=alpha)))
            c2a = math.cos(2 * alpha)
            assert bf.a_vec[2] == pytest.approx((1 - q) - q * c2a, abs=1e-12)
            assert bf.b_vec[2] == pytest.approx((1 - q) + q * c2a, abs=1e-12)
            assert np.allclose(bf.a_vec[:2], 0, atol=1e-12)
            assert np.allclose(bf.b_vec[:2], 0, atol=1e-12)

    def test_gamma_limits(self):
        # q=0 leaves the product state |00><00|
        rho = make_gamma(GammaParams(q=0.0, alpha=0.3))
        assert rho.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)
        # q=1, alpha=pi/4 is a maximally entangled state
        spec = tensor_spectrum(bloch_decompose(
            make_gamma(GammaParams(q=1.0, alpha=math.pi / 4))))
        assert spec.sigma_sum == pytest.approx(3.0, abs=1e-12)


class TestReferenceTriple:
    def test_matches_spectrum_as_multiset(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            p = BellDiagonalParams(*rng.dirichlet(np.ones(4)))
            ref = np.sort(np.abs(belldiag_reference_triple(p)))[::-1]
            spec = tensor_spectrum(bloch_decompose(make_bell_diagonal(p)))
            assert np.allclose(ref, spec.sigma, atol=1e-10)

    def test_vertex_values(self):
        p = BellDiagonalParams(1.0, 0.0, 0.0, 0.0)
        assert np.allclose(np.abs(belldiag_reference_triple(p)), np.ones(3),
                           atol=1e-12)


class TestPredicates:
    def test_gamma_against_generic_pipeline(self):
        rng = np.random.default_rng(105)
        for _ in range(300):
            q = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.0, math.pi / 4)
            pred = gamma_predicates(GammaParams(q=q, alpha=alpha))
            spec = tensor_spectrum(bloch_decompose(make_gamma(GammaParams(q=q, alpha=alpha))))
            f3 = math.sqrt(sum(s * s for s in spec.sigma))
            if abs(f3 - 1.0) > 1e-7:
                assert pred.steerable == is_f3_steerable(spec)
            if abs(spec.sigma_sum - SQRT3) > 1e-7:
                assert pred.useful == classify_usefulness(spec).useful

    def test_belldiag_against_generic_pipeline(self):
        rng = np.random.default_rng(106)
        for _ in range(300):
            p = BellDiagonalParams(*rng.dirichlet(np.ones(4)))
            pred = belldiag_predicates(p)
            spec = tensor_spectrum(bloch_decompose(make_bell_diagonal(p)))
            f3 = math.sqrt(sum(s * s for s in spec.sigma))
            if abs(f3 - 1.0) > 1e-7:
                assert pred.steerable == is_f3_steerable(spec)
            if abs(spec.sigma_sum - SQRT3) > 1e-7:
                assert pred.useful == classify_usefulness(spec).useful

    def test_gamma_steerability_boundary(self):
        # at alpha the flip sits at q = 2 / (2 + sin^2(2 alpha))
        for alpha in (0.24, 0.7):
            q_star = 2.0 / (2.0 + math.sin(2 * alpha) ** 2)
            assert not gamma_predicates(GammaParams(q=q_star - 1e-6, alpha=alpha)).steerable
            assert gamma_predicates(GammaParams(q=q_star + 1e-6, alpha=alpha)).steerable

    def test_useful_implies_steerable(self):
        # sum > sqrt(3) forces sum of squares > 1 on [0,1] magnitudes
        rng = np.random.default_rng(107)
        for _ in range(300):
            p = BellDiagonalParams(*rng.dirichlet(np.ones(4)))
            pred = belldiag_predicates(p)
            if pred.useful:
                assert pred.steerable


class TestScanRanges:
    @pytest.mark.parametrize("bounds", [
        (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1), (0.0, 1.0, math.nan),
        (math.inf, 1.0, 0.1), (-math.inf, 1.0, 0.1), (0.0, math.inf, 0.1),
        (0.0, -math.inf, 0.1), (0.0, 1.0, math.inf), (0.0, 1.0, -math.inf),
    ])
    def test_non_finite_range_is_bad_range(self, bounds):
        lo, hi, step = bounds
        with pytest.raises(BadRange, match=f"range omega={lo!r}:{hi!r}:{step!r} "):
            scan_rows("werner", [("omega", lo, hi, step)])

    @pytest.mark.parametrize("bounds, reason", [
        ((0.0, 1.0, 0.0), "positive step"), ((0.0, 1.0, -0.1), "positive step"),
        ((0.5, 0.4, 0.1), "reversed"),
    ])
    def test_bad_step_or_order_is_bad_range(self, bounds, reason):
        with pytest.raises(BadRange, match=reason):
            scan_rows("gamma", [("q", 0.0, 1.0, 0.5), ("alpha", *bounds)])
