import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerqkd import (
    BadParam,
    DegenerateConfig,
    DensityMatrix,
    FilterPair,
    MeasurementTriad,
    ProtocolConfig,
    bloch_decompose,
    classify_usefulness,
    f3_bound,
    make_gamma,
    make_werner,
    optimal_triads,
    qber_min,
    round_records,
    run_protocol,
    tensor_spectrum,
    untrusted_source_demo,
)
from steerqkd.families import BellDiagonalParams, GammaParams, WernerParams
from steerqkd.filtering import apply_local_filters
from steerqkd.protocol import MAX_ROUNDS, _draw_rounds, _outcomes

SQRT3 = math.sqrt(3.0)
CHUNK = 2 ** 16  # rounds per draw chunk


def werner_config(rounds, seed, omega=0.8, **kw):
    bf = bloch_decompose(make_werner(WernerParams(omega)))
    ta, tb = optimal_triads(bf)
    return ProtocolConfig(rounds=rounds, seed=seed, alice_triad=ta,
                          bob_triad=tb, **kw)


class TestConfigValidation:
    def test_rejects_bad_rounds(self):
        with pytest.raises(BadParam):
            werner_config(0, 1)
        with pytest.raises(BadParam):
            ProtocolConfig(rounds=2.5, seed=1,
                           alice_triad=MeasurementTriad.axes(),
                           bob_triad=MeasurementTriad.axes())

    def test_rounds_numpy_cannot_index(self):
        werner_config(MAX_ROUNDS, 1)
        with pytest.raises(BadParam, match=f"rounds {MAX_ROUNDS + 1} exceeds"):
            werner_config(MAX_ROUNDS + 1, 1)

    def test_draws_beyond_memory(self):
        # numpy refuses 2**50 rounds (8 PiB of draws) before allocating.
        cfg = werner_config(2 ** 50, 1)
        with pytest.raises(BadParam, match=f"rounds {2 ** 50} do not fit in memory"):
            run_protocol(make_werner(WernerParams(0.8)), cfg)

    def test_rejects_bad_test_fraction(self):
        for bad in (0.0, 1.0, -0.2, "0.5"):
            with pytest.raises(BadParam):
                werner_config(100, 1, test_fraction=bad)

    def test_rejects_negative_seed(self):
        with pytest.raises(BadParam):
            werner_config(100, -1)

    def test_numpy_integers_match_python_ints(self):
        rho = make_werner(WernerParams(0.8))
        want = run_protocol(rho, werner_config(1000, 3))
        for rounds, seed in ((np.int64(1000), np.uint64(3)),
                             (np.int32(1000), np.int8(3))):
            cfg = werner_config(rounds, seed)
            assert type(cfg.rounds) is int and type(cfg.seed) is int
            got = run_protocol(rho, cfg)
            assert got.sifted_count == want.sifted_count
            assert got.empirical_qber == want.empirical_qber
            assert got.correlators == want.correlators
            assert np.array_equal(got.raw_key_alice, want.raw_key_alice)
            assert np.array_equal(got.raw_key_bob, want.raw_key_bob)

    @pytest.mark.parametrize("rounds, seed", [
        (True, 1), (1.0, 1), (100, True), (100, 1.0), (np.bool_(True), 1),
    ])
    def test_rejects_bool_and_float_integers(self, rounds, seed):
        with pytest.raises(BadParam):
            werner_config(rounds, seed)


class TestDeterminism:
    def test_same_seed_same_report(self):
        rho = make_werner(WernerParams(0.8))
        r1 = run_protocol(rho, werner_config(5000, 42))
        r2 = run_protocol(rho, werner_config(5000, 42))
        assert r1.sifted_count == r2.sifted_count
        assert r1.empirical_qber == r2.empirical_qber
        assert r1.empirical_cjwr == r2.empirical_cjwr
        assert r1.correlators == r2.correlators
        assert np.array_equal(r1.raw_key_alice, r2.raw_key_alice)
        assert np.array_equal(r1.raw_key_bob, r2.raw_key_bob)

    def test_different_seeds_differ(self):
        rho = make_werner(WernerParams(0.8))
        r1 = run_protocol(rho, werner_config(5000, 1))
        r2 = run_protocol(rho, werner_config(5000, 2))
        assert not np.array_equal(r1.raw_key_alice, r2.raw_key_alice)

    def test_records_consistent_with_report(self):
        rho = make_werner(WernerParams(0.8))
        cfg = werner_config(2000, 9)
        recs = round_records(rho, cfg)
        rep = run_protocol(rho, cfg)
        assert len(recs) == 2000
        assert sum(r.sifted for r in recs) == rep.sifted_count


def aggregate_records(recs, test_fraction):
    """The report fields of a run, aggregated by hand from its rounds."""
    sifted = [r for r in recs if r.kept and r.sifted]
    n_disc = math.ceil(test_fraction * len(sifted))
    disclosed, key = sifted[:n_disc], sifted[n_disc:]

    def wrong(r):
        return r.alice_outcome != r.bob_outcome

    correlators = []
    for basis in range(3):
        sel = [r for r in sifted if r.alice_basis == basis]
        agree = sum(not wrong(r) for r in sel)
        correlators.append((2 * agree - len(sel)) / len(sel) if sel else 0.0)
    return {
        "sifted_count": len(sifted),
        "disclosed_count": n_disc,
        "empirical_qber": sum(wrong(r) for r in disclosed) / n_disc,
        "empirical_cjwr": abs(sum(correlators)) / SQRT3,
        "correlators": tuple(correlators),
        "raw_key_alice": [r.alice_outcome for r in key],
        "raw_key_bob": [r.bob_outcome for r in key],
        "key_count_by_basis": tuple(
            sum(r.alice_basis == b for r in key) for b in range(3)),
        "key_mismatch_by_basis": tuple(
            sum(r.alice_basis == b and wrong(r) for r in key) for b in range(3)),
        "p_succ_empirical": sum(r.kept for r in recs) / len(recs),
    }


def assert_report_matches_records(rho, cfg):
    rep = run_protocol(rho, cfg)
    want = aggregate_records(round_records(rho, cfg), cfg.test_fraction)
    if cfg.filter is None:
        want["p_succ_empirical"] = None
    for field, value in want.items():
        got = getattr(rep, field)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.uint8, field
            got = got.tolist()
        assert got == value, field
        assert type(got) is type(value), field
    return rep


class TestReportEqualsRecords:
    """Every report field equals the hand aggregate of round_records."""

    @pytest.mark.parametrize("test_fraction", [0.1, 0.5])
    def test_unfiltered(self, test_fraction):
        rho = make_werner(WernerParams(0.8))
        assert_report_matches_records(
            rho, werner_config(3000, 19, test_fraction=test_fraction))

    @pytest.mark.parametrize("test_fraction", [0.1, 0.5])
    def test_filtered(self, test_fraction):
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        f = FilterPair(0.3, 0.25)
        ta, tb = optimal_triads(bloch_decompose(apply_local_filters(rho, f).filtered_state))
        cfg = ProtocolConfig(rounds=3000, seed=23, alice_triad=ta, bob_triad=tb,
                             filter=f, test_fraction=test_fraction)
        rep = assert_report_matches_records(rho, cfg)
        assert 0 < rep.p_succ_empirical < 1

    def test_basis_without_sifted_rounds(self):
        rho = make_werner(WernerParams(0.8))
        for seed in range(50):
            cfg = werner_config(6, seed, test_fraction=0.5)
            recs = round_records(rho, cfg)
            bases = {r.alice_basis for r in recs if r.sifted}
            if bases and len(bases) < 3:
                rep = assert_report_matches_records(rho, cfg)
                assert 0.0 in rep.correlators
                return
        pytest.fail("no seed left a basis without sifted rounds")

    def test_above_one_chunk(self):
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        f = FilterPair(0.3, 0.25)
        ta, tb = optimal_triads(bloch_decompose(apply_local_filters(rho, f).filtered_state))
        cfg = ProtocolConfig(rounds=CHUNK + 4099, seed=29, alice_triad=ta,
                             bob_triad=tb, filter=f)
        assert_report_matches_records(rho, cfg)


# Outcome weights per basis pair: small integers, so that zero-probability
# outcomes (repeated thresholds) and pure outcomes (a single nonzero weight)
# come up often.
weight_tables = st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                         min_size=9, max_size=9)


class TestOutcomeLookup:
    """``_outcomes`` against the (N, 3) gathered compare-and-sum it replaces."""

    @staticmethod
    def oracle(cdf, a_idx, b_idx, u):
        k = (u[:, None] >= cdf[a_idx, b_idx, :3]).sum(axis=1)
        return (k >> 1).astype(np.uint8), (k & 1).astype(np.uint8)

    @settings(max_examples=200, deadline=None)
    @given(weight_tables, st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_matches_gathered_compare(self, weights, seed, matched):
        w = np.array(weights, dtype=float)
        w[w.sum(axis=1) == 0, 0] = 1.0
        cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1).reshape(3, 3, 4)
        rng = np.random.default_rng(seed)
        n = 600
        a_idx = rng.integers(0, 3, size=n)
        b_idx = a_idx if matched else rng.integers(0, 3, size=n)
        u = rng.random(n)
        # a third of the uniforms sit exactly on a threshold of their round
        at = rng.integers(0, 3, size=n)
        on = rng.random(n) < 1 / 3
        u[on] = cdf[a_idx, b_idx, at][on]
        u[:3] = 0.0
        got = _outcomes(cdf.reshape(9, 4), a_idx.astype(np.uint8),
                        b_idx.astype(np.uint8), u)
        want = self.oracle(cdf, a_idx, b_idx, u)
        for g, x in zip(got, want):
            assert g.dtype == np.uint8
            assert np.array_equal(g, x)

    def test_draws_keep_the_stream(self):
        # Each stage is drawn in chunks of 2**16 rounds, with int64 indices
        # stored narrower; at and around the chunk boundaries the draws must
        # equal one whole-length draw of the stream.
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        for f, rounds, seed in itertools.product(
                (None, FilterPair(0.3, 0.25)),
                (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17), (5, 2 ** 63 - 1)):
            rng = np.random.default_rng(seed)
            want_a = rng.integers(0, 3, size=rounds)
            want_b = rng.integers(0, 3, size=rounds)
            want_kept = None
            sifted = want_a == want_b
            if f:
                want_kept = rng.random(rounds) < apply_local_filters(rho, f).p_succ
                sifted &= want_kept
            want_u = rng.random(rounds)
            cfg = werner_config(rounds, seed, filter=f)
            for every_round in (False, True):
                a_idx, b_idx, kept, rows, u, cdf, _ = _draw_rounds(rho, cfg, every_round)
                assert a_idx.dtype == b_idx.dtype == np.uint8
                assert np.array_equal(a_idx, want_a)
                assert np.array_equal(b_idx, want_b)
                if f:
                    assert np.array_equal(kept, want_kept)
                else:
                    assert kept is None
                want_rows = np.arange(rounds) if every_round else np.flatnonzero(sifted)
                assert np.array_equal(rows, want_rows)
                # bit patterns, so that even a signed zero would count
                assert np.array_equal(u.view(np.int64), want_u[want_rows].view(np.int64))
                assert cdf.shape == (9, 4)

    def test_unfiltered_records_are_all_kept(self):
        recs = round_records(make_werner(WernerParams(0.8)), werner_config(500, 4))
        assert all(r.kept is True for r in recs)


class TestStructure:
    def test_counts_and_key_lengths(self):
        rho = make_werner(WernerParams(0.8))
        rep = run_protocol(rho, werner_config(20000, 5, test_fraction=0.25))
        assert rep.disclosed_count == math.ceil(0.25 * rep.sifted_count)
        key_len = rep.sifted_count - rep.disclosed_count
        assert rep.raw_key_alice.shape == (key_len,)
        assert rep.raw_key_bob.shape == (key_len,)
        assert set(np.unique(rep.raw_key_alice)) <= {0, 1}
        assert sum(rep.key_count_by_basis) == key_len
        for n, m in zip(rep.key_count_by_basis, rep.key_mismatch_by_basis):
            assert 0 <= m <= n

    def test_sifted_fraction_near_one_third(self):
        rho = make_werner(WernerParams(0.5))
        rep = run_protocol(rho, werner_config(90000, 11))
        # 5 sigma binomial window around 1/3
        sd = math.sqrt(90000 * (1 / 3) * (2 / 3))
        assert abs(rep.sifted_count - 30000) < 5 * sd

    def test_peak_memory_of_a_million_rounds(self):
        # Whole-length draws peak at 19.4 MiB here (two int64 index draws
        # and the outcome uniforms, 8 MB each); chunked draws at ~10.8 MiB.
        rho = make_werner(WernerParams(0.8))
        cfg = werner_config(10 ** 6, 1)
        run_protocol(rho, cfg)
        tracemalloc.start()
        try:
            run_protocol(rho, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    def test_no_filter_reports_none(self):
        rho = make_werner(WernerParams(0.8))
        rep = run_protocol(rho, werner_config(1000, 3))
        assert rep.p_succ_empirical is None

    def test_degenerate_when_nothing_sifted(self):
        # with a single round, some seeds give mismatched bases
        rho = make_werner(WernerParams(0.8))
        saw_degenerate = False
        for seed in range(30):
            try:
                run_protocol(rho, werner_config(1, seed))
            except DegenerateConfig:
                saw_degenerate = True
                break
        assert saw_degenerate


class TestStatistics:
    def test_perfect_keys_on_singlet(self):
        rho = make_werner(WernerParams(1.0))
        rep = run_protocol(rho, werner_config(30000, 17))
        assert rep.empirical_qber == 0.0
        assert np.array_equal(rep.raw_key_alice, rep.raw_key_bob)
        assert rep.empirical_cjwr == pytest.approx(SQRT3, abs=1e-12)

    def test_werner_qber_matches_theory(self):
        rho = make_werner(WernerParams(0.8))
        spec = tensor_spectrum(bloch_decompose(rho))
        want = qber_min(spec)
        rep = run_protocol(rho, werner_config(100000, 23))
        sd = math.sqrt(want * (1 - want) / rep.disclosed_count)
        assert abs(rep.empirical_qber - want) < 5 * sd

    def test_werner_cjwr_matches_theory(self):
        rho = make_werner(WernerParams(0.8))
        want = f3_bound(tensor_spectrum(bloch_decompose(rho)))
        rep = run_protocol(rho, werner_config(100000, 29))
        # each correlator has variance (1-c^2)/n with n ~ sifted/3
        n = rep.sifted_count / 3
        sd = math.sqrt(3 * (1 - 0.64) / n) / SQRT3
        assert abs(rep.empirical_cjwr - want) < 5 * sd

    def test_correlators_near_singular_values(self):
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        bf = bloch_decompose(rho)
        spec = tensor_spectrum(bf)
        ta, tb = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=150000, seed=31, alice_triad=ta, bob_triad=tb)
        rep = run_protocol(rho, cfg)
        for got, want in zip(rep.correlators, spec.sigma):
            assert got == pytest.approx(want, abs=0.02)

    def test_misaligned_triads_raise_qber(self):
        # measuring the singlet along mismatched axes wastes correlation
        rho = make_werner(WernerParams(0.9))
        bf = bloch_decompose(rho)
        ta, _ = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=50000, seed=37, alice_triad=ta, bob_triad=ta)
        rep = run_protocol(rho, cfg)
        best = qber_min(tensor_spectrum(bf))
        assert rep.empirical_qber > best + 0.2


class TestFilteredRuns:
    def test_heralding_rate_matches_theory(self):
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        f = FilterPair(0.15, 0.12)
        out = apply_local_filters(rho, f)
        bf = bloch_decompose(out.filtered_state)
        ta, tb = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=200000, seed=41, alice_triad=ta,
                             bob_triad=tb, filter=f)
        rep = run_protocol(rho, cfg)
        sd = math.sqrt(out.p_succ * (1 - out.p_succ) / 200000)
        assert rep.p_succ_empirical == pytest.approx(out.p_succ, abs=5 * sd)

    def test_filtered_qber_matches_filtered_state(self):
        rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
        f = FilterPair(0.3, 0.25)
        out = apply_local_filters(rho, f)
        bf = bloch_decompose(out.filtered_state)
        ta, tb = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=400000, seed=43, alice_triad=ta,
                             bob_triad=tb, filter=f, test_fraction=0.5)
        rep = run_protocol(rho, cfg)
        want = out.q_min_filtered
        sd = math.sqrt(want * (1 - want) / max(rep.disclosed_count, 1))
        assert abs(rep.empirical_qber - want) < 5 * sd


class TestUntrustedSourceDemo:
    def test_consistent_verdicts(self):
        p = BellDiagonalParams.from_werner(0.8)
        bf = bloch_decompose(make_werner(WernerParams(0.8)))
        ta, tb = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=50000, seed=47, alice_triad=ta, bob_triad=tb)
        steer, useful, abs_local, rep = untrusted_source_demo(p, cfg)
        assert steer.steerable
        assert steer.chsh_violating
        assert useful.useful
        assert not abs_local          # violates CHSH outright
        sd = math.sqrt(0.1 * 0.9 / rep.disclosed_count)
        assert abs(rep.empirical_qber - useful.q_min) < 5 * sd

    def test_absolutely_local_but_useful_source(self):
        p = BellDiagonalParams(0.7, 0.1, 0.1, 0.1)
        bf = bloch_decompose(make_werner(WernerParams(0.6)))
        ta, tb = optimal_triads(bf)
        cfg = ProtocolConfig(rounds=20000, seed=53, alice_triad=ta, bob_triad=tb)
        steer, useful, abs_local, rep = untrusted_source_demo(p, cfg)
        assert useful.useful
        assert abs_local
        assert not steer.chsh_violating
