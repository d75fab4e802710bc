import math

import numpy as np
import pytest

from conftest import random_density_matrix
from steerqkd import filtering
from steerqkd import (
    BadParam,
    DensityMatrix,
    FilterAnnihilates,
    FilterPair,
    apply_local_filters,
    bloch_decompose,
    critical_qber,
    filter_search,
    make_gamma,
    modified_protocol_useful,
    qber_min,
    tensor_spectrum,
)
from steerqkd.families import GammaParams
from steerqkd.filtering import filter_branch_probabilities, useful_q_start


def gamma_filter_transfer(q, alpha, eps1, eps2):
    """Closed-form image of a gamma state under the local filters.

    Success renormalisation keeps the state in the gamma family with
    n^2 = e1^2 sin^2(a) + e2^2 cos^2(a),
    p  = q n^2 + (1-q) e1^2 e2^2,
    q' = q n^2 / p,
    sin(2a') = 2 e1 e2 sin(a) cos(a) / n^2.
    """
    n2 = (eps1 * math.sin(alpha)) ** 2 + (eps2 * math.cos(alpha)) ** 2
    p = q * n2 + (1 - q) * (eps1 * eps2) ** 2
    q_new = q * n2 / p
    sin2a = 2 * eps1 * eps2 * math.sin(alpha) * math.cos(alpha) / n2
    return p, q_new, sin2a


class TestFilterPair:
    def test_validation(self):
        FilterPair(0.5, 1.0)
        with pytest.raises(BadParam):
            FilterPair(-0.1, 0.5)
        with pytest.raises(BadParam):
            FilterPair(0.5, 1.2)

    def test_success_operator_diagonal(self):
        f = FilterPair(0.3, 0.7)
        m = f.success_operator()
        assert np.allclose(m, np.diag([0.21, 0.3, 0.7, 1.0]), atol=1e-15)


class TestBranchProbabilities:
    def test_four_branches_sum_to_one(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            rho = random_density_matrix(rng)
            f = FilterPair(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
            probs = filter_branch_probabilities(rho, f)
            assert probs.shape == (2, 2)
            assert probs.min() >= -1e-12
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_identity_filter_always_succeeds(self):
        rho = random_density_matrix(np.random.default_rng(112))
        probs = filter_branch_probabilities(rho, FilterPair(1.0, 1.0))
        assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestApplyLocalFilters:
    def test_matches_direct_conjugation(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            rho = random_density_matrix(rng)
            f = FilterPair(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            out = apply_local_filters(rho, f)
            m = f.success_operator()
            raw = m @ rho.matrix @ m.conj().T
            p = np.trace(raw).real
            assert out.p_succ == pytest.approx(p, abs=1e-12)
            assert np.allclose(out.filtered_state.matrix, raw / p, atol=1e-10)

    def test_gamma_family_closed_under_filtering(self):
        rng = np.random.default_rng(114)
        for _ in range(200):
            q = rng.uniform(0.05, 1.0)
            alpha = rng.uniform(0.05, math.pi / 4)
            e1, e2 = rng.uniform(0.02, 1.0, size=2)
            out = apply_local_filters(make_gamma(GammaParams(q=q, alpha=alpha)),
                                      FilterPair(e1, e2))
            p, q_new, sin2a = gamma_filter_transfer(q, alpha, e1, e2)
            assert out.p_succ == pytest.approx(p, abs=1e-12)
            diag = np.diagonal(bloch_decompose(out.filtered_state).w)
            assert diag[0] == pytest.approx(q_new * sin2a, abs=1e-19 + 1e-9 * abs(diag[0]) + 1e-12)
            assert diag[1] == pytest.approx(q_new * sin2a, abs=1e-12)
            assert diag[2] == pytest.approx(1 - 2 * q_new, abs=1e-12)

    def test_identity_filter_is_noop(self):
        rho = random_density_matrix(np.random.default_rng(115))
        out = apply_local_filters(rho, FilterPair(1.0, 1.0))
        assert out.p_succ == pytest.approx(1.0, abs=1e-12)
        assert rho.isclose(out.filtered_state, tol=1e-10)

    def test_annihilation(self):
        rho = DensityMatrix.from_ket(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(FilterAnnihilates):
            apply_local_filters(rho, FilterPair(1e-7, 1e-7))

    def test_filtering_can_reduce_error_rate(self):
        # strongly asymmetric amplitudes get rebalanced
        out = apply_local_filters(make_gamma(GammaParams(q=0.9, alpha=0.1)),
                                  FilterPair(0.2, 0.2 * math.tan(0.1)))
        before = qber_min(tensor_spectrum(bloch_decompose(
            make_gamma(GammaParams(q=0.9, alpha=0.1)))))
        assert out.q_min_filtered < before


class TestWorkedExample:
    def test_prefilter_error_rate(self):
        spec = tensor_spectrum(bloch_decompose(
            make_gamma(GammaParams(q=0.9, alpha=0.25))))
        assert qber_min(spec) == pytest.approx(0.22284, abs=1e-5)
        assert qber_min(spec) > critical_qber()

    def test_filtered_error_rate(self):
        out = apply_local_filters(make_gamma(GammaParams(q=0.9, alpha=0.25)),
                                  FilterPair(0.02119, 0.02563))
        assert out.q_min_filtered == pytest.approx(0.19862, abs=1e-3)
        assert out.q_min_filtered < critical_qber()
        assert out.p_succ == pytest.approx(5.798e-4, rel=1e-3)

    def test_example_state_becomes_useful(self):
        assert modified_protocol_useful(
            make_gamma(GammaParams(q=0.9, alpha=0.25)),
            FilterPair(0.02119, 0.02563))


class TestModifiedProtocolUseful:
    def test_definition(self):
        rng = np.random.default_rng(117)
        for _ in range(100):
            rho = random_density_matrix(rng)
            f = FilterPair(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            want = apply_local_filters(rho, f).q_min_filtered < critical_qber()
            assert modified_protocol_useful(rho, f) == want

    def test_annihilating_filter_propagates(self):
        rho = DensityMatrix.from_ket(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(FilterAnnihilates):
            modified_protocol_useful(rho, FilterPair(1e-7, 1e-7))

    def test_tabulated_filter_pair_on_gamma_states(self):
        # with (0.15, 0.02563) the filtered spectrum exceeds sqrt(3) for
        # almost every q: the success branch renormalises the entangled
        # component to q' ~ 1 and rebalances the amplitudes
        f = FilterPair(0.15, 0.02563)
        assert modified_protocol_useful(make_gamma(GammaParams(q=0.5, alpha=0.2)), f)
        assert modified_protocol_useful(make_gamma(GammaParams(q=0.85, alpha=0.24)), f)
        assert modified_protocol_useful(make_gamma(GammaParams(q=0.95, alpha=0.24)), f)
        # very small q leaves too much separable residue
        assert not modified_protocol_useful(make_gamma(GammaParams(q=0.005, alpha=0.24)), f)


class TestFilterSearch:
    def test_rejects_bad_grid(self):
        rho = make_gamma(GammaParams(q=0.6, alpha=0.7))
        with pytest.raises(BadParam):
            filter_search(rho, 0.0)
        with pytest.raises(BadParam):
            filter_search(rho, 0.7)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, 0.6, "0.5"])
    def test_grid_steps_share_one_check(self, step):
        rho = make_gamma(GammaParams(q=0.6, alpha=0.7))
        with pytest.raises(BadParam, match="grid_step"):
            filter_search(rho, step)
        with pytest.raises(BadParam, match="q_step"):
            useful_q_start(0.3, FilterPair(0.5, 0.5), step)

    def test_finds_filters_for_unsteerable_gamma_state(self):
        rho = make_gamma(GammaParams(q=0.6, alpha=0.7))
        hits = filter_search(rho, 0.05)
        assert hits
        for f in hits[:10]:
            assert modified_protocol_useful(rho, f)

    def test_empty_for_separable_states(self):
        # filtering is local, so separability survives it
        rho = make_gamma(GammaParams(q=0.0, alpha=0.3))
        assert filter_search(rho, 0.25) == []
        mixed = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert filter_search(mixed, 0.25) == []

    def test_singlet_qualifies_everywhere(self):
        singlet = DensityMatrix.from_ket(np.array([0.0, 1.0, -1.0, 0.0]))
        step = 0.25
        hits = filter_search(singlet, step)
        assert len(hits) == 16          # full (0,1] grid at step 0.25

    def test_grid_order_row_major(self):
        rho = make_gamma(GammaParams(q=0.95, alpha=0.5))
        hits = filter_search(rho, 0.25)
        keys = [(f.eps1, f.eps2) for f in hits]
        assert keys == sorted(keys)


class TestUsefulQStart:
    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-300, math.nan, math.inf, "0.1"])
    def test_rejects_bad_tol(self, tol):
        # 0, -1 and 1e-300 never close the bisection; NaN and inf skip it
        with pytest.raises(BadParam, match="tol"):
            useful_q_start(0.3, FilterPair(0.5, 0.5), 0.1, tol=tol)

    @pytest.mark.parametrize("alpha, f, q_step, onset, qs", [
        # onset inside the grid: walk down to 0.6, bisect (0.6, 0.7)
        pytest.param(0.3, FilterPair(0.5, 0.5), 0.1, 0.6328125000000001,
                     [min(i * 0.1, 1.0) for i in range(10, 5, -1)]
                     + [0.6500000000000001, 0.6250000000000001, 0.6375000000000002,
                        0.6312500000000001, 0.6343750000000001, 0.6328125000000001,
                        0.63203125],
                     id="inside_grid"),
        # onset below the first grid point: walk down to 0.02, probe 0, bisect
        pytest.param(0.24, FilterPair(0.15, 0.02563), 0.02, 0.018750000000000003,
                     [min(i * 0.02, 1.0) for i in range(50, 0, -1)]
                     + [0.0, 0.01, 0.015, 0.0175, 0.018750000000000003,
                        0.018125000000000002],
                     id="below_first_step"),
    ])
    def test_probe_sequence(self, monkeypatch, alpha, f, q_step, onset, qs):
        seen = []
        real = filtering.modified_protocol_useful

        def recording(rho, pair):
            seen.append(rho.matrix)
            return real(rho, pair)

        monkeypatch.setattr(filtering, "modified_protocol_useful", recording)
        assert useful_q_start(alpha, f, q_step) == onset
        assert len(seen) == len(qs)
        for got, q in zip(seen, qs):
            assert np.array_equal(got, make_gamma(GammaParams(q=q, alpha=alpha)).matrix)


class TestSeparabilityPreservation:
    @staticmethod
    def _ppt(rho):
        # partial transpose on the second qubit
        m = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        return float(np.linalg.eigvalsh(m).min()) >= -1e-10

    def test_filtering_preserves_ppt(self):
        rng = np.random.default_rng(118)
        checked = 0
        for _ in range(300):
            rho = random_density_matrix(rng)
            if not self._ppt(rho):
                continue
            f = FilterPair(rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0))
            out = apply_local_filters(rho, f)
            assert self._ppt(out.filtered_state)
            checked += 1
        assert checked > 20
