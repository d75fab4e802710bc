import math

import numpy as np
import pytest

from conftest import random_density_matrix, random_triad
from steerqkd import (
    BadQber,
    BadViolation,
    bloch_decompose,
    brute_force_qber_min,
    classify_usefulness,
    critical_qber,
    joint_outcome_distribution,
    make_bell_diagonal,
    make_werner,
    min_secure_key_rate,
    optimal_triads,
    qber_min,
    qber_min_two_settings,
    qber_three_settings,
    tensor_spectrum,
    useful_region_given_violation,
)
from steerqkd.errors import BadParam
from steerqkd.families import BellDiagonalParams, WernerParams
from steerqkd.qber import certifies_useful_symmetric, pair_mismatch_probability
from steerqkd.qstate import BlochForm, TensorSpectrum, reconstruct_state

SQRT3 = math.sqrt(3.0)


class TestMismatchProbability:
    def test_matches_outcome_distribution(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            bf = bloch_decompose(random_density_matrix(rng))
            u = random_triad(rng).dirs[0]
            v = random_triad(rng).dirs[0]
            p = joint_outcome_distribution(bf, u, v)
            assert pair_mismatch_probability(bf, u, v) == pytest.approx(
                p[0, 1] + p[1, 0], abs=1e-12)

    def test_three_setting_rate_is_mean_mismatch(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            bf = bloch_decompose(random_density_matrix(rng))
            ta, tb = random_triad(rng), random_triad(rng)
            mean = np.mean([pair_mismatch_probability(bf, u, v)
                            for u, v in zip(ta.dirs, tb.dirs)])
            assert qber_three_settings(bf, ta, tb) == pytest.approx(mean, abs=1e-12)


class TestQberMin:
    def test_optimal_triads_attain_it(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            bf = bloch_decompose(random_density_matrix(rng))
            spec = tensor_spectrum(bf)
            ta, tb = optimal_triads(bf)
            assert qber_three_settings(bf, ta, tb) == pytest.approx(
                qber_min(spec), abs=1e-10)

    def test_no_triad_does_better(self):
        rng = np.random.default_rng(84)
        for _ in range(50):
            bf = bloch_decompose(random_density_matrix(rng))
            floor = qber_min(tensor_spectrum(bf))
            for _ in range(40):
                q = qber_three_settings(bf, random_triad(rng), random_triad(rng))
                assert q >= floor - 1e-9

    def test_werner_closed_form(self):
        for omega in (0.0, 0.25, 0.6, 1.0):
            spec = tensor_spectrum(bloch_decompose(make_werner(WernerParams(omega))))
            assert qber_min(spec) == pytest.approx((1.0 - omega) / 2.0, abs=1e-10)
            assert qber_min_two_settings(spec) == pytest.approx(
                (1.0 - omega) / 2.0, abs=1e-10)

    def test_two_setting_rate_never_above_three_setting(self):
        # keeping only the two strongest correlators can only help the
        # average: sigma1 + sigma2 >= 2 sigma3
        rng = np.random.default_rng(85)
        for _ in range(200):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            assert qber_min_two_settings(spec) <= qber_min(spec) + 1e-12


class TestBruteForceOracle:
    def test_agrees_with_closed_form_on_diagonal_tensors(self):
        # magnitudes inside the separable octahedron stay physical for
        # every sign pattern
        rng = np.random.default_rng(86)
        for _ in range(100):
            mags = rng.uniform(0.0, 1.0, size=3)
            mags *= rng.uniform(0.0, 0.99) / mags.sum()
            for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1),
                          (-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
                t = mags * np.array(signs, dtype=float)
                spec = TensorSpectrum.from_diagonal(*t)
                got, ta, tb = brute_force_qber_min(spec)
                assert got == pytest.approx(qber_min(spec), abs=1e-12)
                # the reported triads achieve the value on the signed
                # diagonal tensor the search ran over
                bf = BlochForm(np.zeros(3), np.zeros(3), np.diag(spec.signed))
                assert qber_three_settings(bf, ta, tb) == pytest.approx(got, abs=1e-12)

    def test_on_bell_diagonal_family(self):
        rng = np.random.default_rng(87)
        for _ in range(100):
            p = BellDiagonalParams(*rng.dirichlet(np.ones(4)))
            bf = bloch_decompose(make_bell_diagonal(p))
            spec = tensor_spectrum(bf)
            got, ta, tb = brute_force_qber_min(spec)
            assert got == pytest.approx(qber_min(spec), abs=1e-12)

    def test_deterministic_tie_break(self):
        spec = TensorSpectrum.from_diagonal(0.0, 0.0, 0.0)
        _, ta1, tb1 = brute_force_qber_min(spec)
        _, ta2, tb2 = brute_force_qber_min(spec)
        assert np.array_equal(ta1.dirs, ta2.dirs)
        assert np.array_equal(tb1.dirs, tb2.dirs)


class TestUsefulness:
    def test_critical_value(self):
        assert critical_qber() == pytest.approx((3.0 - SQRT3) / 6.0, abs=1e-15)
        assert f"{critical_qber():.3f}" == "0.211"

    def test_classification_consistency(self):
        rng = np.random.default_rng(88)
        for _ in range(300):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            v = classify_usefulness(spec)
            assert v.q_min == pytest.approx(qber_min(spec), abs=1e-12)
            assert v.critical_rate == critical_qber()
            assert v.useful == (spec.sigma_sum > SQRT3)
            assert v.useful == (v.margin > 0)
            assert v.q_min + v.margin == pytest.approx(v.critical_rate, abs=1e-12)

    def test_werner_threshold(self):
        lo = classify_usefulness(
            tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.577)))))
        hi = classify_usefulness(
            tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.578)))))
        assert not lo.useful
        assert hi.useful


class TestViolationCertification:
    def test_interval_when_implied_magnitude_inside(self):
        # lam11 = 0.9 by construction, inside ((sqrt(3)-0.8)/2, 1]
        v = math.sqrt(0.9 ** 2 + 0.8 ** 2 + 0.6 ** 2)
        got = useful_region_given_violation(v, 0.8, 0.6)
        assert got is not None
        lo, hi = got
        assert hi == 1.0
        assert lo == pytest.approx((SQRT3 - 0.8) / 2.0, abs=1e-12)

    def test_maximal_violation_certifies(self):
        got = useful_region_given_violation(SQRT3, 1.0, 1.0)
        assert got is not None
        assert got[0] == pytest.approx((SQRT3 - 1.0) / 2.0, abs=1e-12)

    def test_none_when_radicand_negative(self):
        assert useful_region_given_violation(0.5, 0.8, 0.6) is None

    def test_none_when_cap_exceeded(self):
        # implied lam11 = sqrt(2.89 - 0.98) ~ 1.382 > 1
        assert useful_region_given_violation(1.7, 0.7, 0.7) is None

    def test_none_for_weak_violation_with_small_magnitudes(self):
        # implied lam11 ~ 1.011 > 1, and the symmetric sum 1.41 < sqrt(3)
        # agrees that usefulness is not certified
        assert useful_region_given_violation(1.05, 0.2, 0.2) is None
        assert not certifies_useful_symmetric(1.05, 0.2, 0.2)

    def test_none_when_implied_magnitude_below_window(self):
        assert useful_region_given_violation(1.0, 0.7, 0.7) is None

    def test_rejects_out_of_range_violation(self):
        with pytest.raises(BadViolation):
            useful_region_given_violation(0.0, 0.5, 0.5)
        with pytest.raises(BadViolation):
            useful_region_given_violation(1.8, 0.5, 0.5)

    def test_rejects_bad_magnitudes(self):
        with pytest.raises(BadParam):
            useful_region_given_violation(1.2, -0.1, 0.5)
        with pytest.raises(BadParam):
            useful_region_given_violation(1.2, 0.5, 1.5)

    @pytest.mark.parametrize("lam22, lam33", [
        (1.5, 0.0), (-0.1, 0.5), (0.5, 1.0 + 1e-9),
        (math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5),
    ])
    def test_both_variants_reject_the_same_magnitudes(self, lam22, lam33):
        with pytest.raises(BadParam):
            useful_region_given_violation(1.7, lam22, lam33)
        with pytest.raises(BadParam):
            certifies_useful_symmetric(1.7, lam22, lam33)

    def test_symmetric_variant_matches_spectrum_sum(self):
        rng = np.random.default_rng(89)
        hits = 0
        for _ in range(300):
            lam = np.sort(rng.uniform(0.0, 1.0, size=3))[::-1]
            v = math.sqrt(float(np.sum(lam ** 2)))
            if v > SQRT3:
                continue
            want = lam.sum() > SQRT3
            assert certifies_useful_symmetric(v, lam[1], lam[2]) == want
            hits += want
        assert hits > 0

    def test_symmetric_variant_consistent_with_real_states(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            s1, s2, s3 = spec.sigma
            v = math.sqrt(s1 * s1 + s2 * s2 + s3 * s3)
            if v <= 0.0:
                continue
            useful = classify_usefulness(spec).useful
            assert certifies_useful_symmetric(v, s2, s3) == useful


class TestKeyRate:
    def test_limits(self):
        assert min_secure_key_rate(0.0) == 1.0
        assert min_secure_key_rate(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_formula_midpoint(self):
        q = 0.1
        want = 1.0 + 2 * q * math.log2(q) + 2 * (1 - 2 * q) * math.log2(1 - q)
        assert min_secure_key_rate(q) == pytest.approx(want, abs=1e-15)

    def test_decreasing_near_zero(self):
        rates = [min_secure_key_rate(q) for q in (0.0, 0.01, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(BadQber):
            min_secure_key_rate(-0.01)
        with pytest.raises(BadQber):
            min_secure_key_rate(0.51)
        with pytest.raises(BadQber):
            min_secure_key_rate(float("nan"))


class TestAgainstSampling:
    def test_qber_matches_monte_carlo(self):
        # 2e5 samples give ~1e-3 binomial resolution
        rng = np.random.default_rng(91)
        bf = bloch_decompose(make_werner(WernerParams(0.8)))
        ta, tb = optimal_triads(bf)
        n = 200_000
        mism = 0
        settings = rng.integers(0, 3, size=n)
        us = rng.uniform(size=n)
        for l in range(3):
            mask = settings == l
            p = joint_outcome_distribution(bf, ta.dirs[l], tb.dirs[l])
            p_mismatch = p[0, 1] + p[1, 0]
            mism += int(np.sum(us[mask] < p_mismatch))
        got = mism / n
        want = qber_min(tensor_spectrum(bf))
        assert got == pytest.approx(want, abs=5 * math.sqrt(want * (1 - want) / n))
