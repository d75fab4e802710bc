"""Acceptance gate: ten criteria, one printed verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see every verdict line;
without ``-s`` pytest shows the lines for failing criteria only.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from steerqkd import (
    FilterPair,
    ProtocolConfig,
    apply_local_filters,
    bloch_decompose,
    brute_force_qber_min,
    chsh_bound,
    cjwr_functional,
    classify_usefulness,
    critical_qber,
    f3_bound,
    is_f3_steerable,
    make_bell_diagonal,
    make_gamma,
    make_werner,
    modified_protocol_useful,
    optimal_triads,
    qber_min,
    qber_three_settings,
    run_protocol,
    tensor_spectrum,
)
from steerqkd.families import (
    BellDiagonalParams,
    GammaParams,
    WernerParams,
    gamma_correlation_diag,
    gamma_predicates,
    belldiag_predicates,
    werner_correlation_diag,
)
from steerqkd.qstate import TensorSpectrum
from steerqkd.steering import belldiag_absolutely_chsh_local, belldiag_f3_steerable
from steerqkd.filtering import useful_q_start
from conftest import random_density_matrix, random_triad

SQRT3 = math.sqrt(3.0)


def gate(num: int, label: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num:02d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_critical_rate_and_sphere_oracle():
    t0 = time.perf_counter()
    value = critical_qber()
    exact = value == (3.0 - SQRT3) / 6.0
    printed = f"{value:.3f}" == "0.211"

    # sampling oracle: on the unit sphere the correlator sum never
    # exceeds sqrt(3), the tangent-plane maximum
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    worst = float(np.abs(pts).sum(axis=1).max())
    elapsed = time.perf_counter() - t0
    gate(1, "critical error rate and sphere-sampling oracle",
         exact and printed and worst <= SQRT3 + 1e-6 and elapsed < 5.0,
         f"Q0={value:.10f}, sphere max={worst:.9f}, {elapsed:.2f}s")


def test_criterion_02_worked_filtering_example():
    rho = make_gamma(GammaParams(q=0.9, alpha=0.25))
    before = qber_min(tensor_spectrum(bloch_decompose(rho)))
    out = apply_local_filters(rho, FilterPair(0.02119, 0.02563))
    useful = modified_protocol_useful(rho, FilterPair(0.02119, 0.02563))
    ok = (abs(before - 0.22284) <= 1e-5
          and abs(out.q_min_filtered - 0.19862) <= 1e-3
          and useful)
    gate(2, "worked filtering example",
         ok, f"q_min={before:.5f}, filtered={out.q_min_filtered:.5f}, useful={useful}")


def test_criterion_03_tabulated_useful_ranges():
    expected = {0.24: 0.904, 0.7: 0.674, 0.2: 0.5, 0.6: 0.52}
    f = FilterPair(0.15, 0.02563)
    got = {}
    for alpha in expected:
        got[alpha] = useful_q_start(alpha, f, 0.02)
    ok = all(got[a] is not None and abs(got[a] - expected[a]) <= 0.005
             for a in expected)
    detail = ", ".join(
        f"alpha={a}: got {got[a]:.4f} want {expected[a]:.3f}" for a in expected)
    gate(3, "tabulated useful-q range starts", ok, detail)


def test_criterion_04_brute_force_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    signs = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    for _ in range(125):
        mags = rng.uniform(0.0, 1.0, size=3)
        mags *= rng.uniform(0.0, 0.99) / mags.sum()   # stay physical for all signs
        for s in signs:
            t = mags * np.array(s, dtype=float)
            spec = TensorSpectrum.from_diagonal(*t)
            got, _, _ = brute_force_qber_min(spec)
            worst = max(worst, abs(got - qber_min(spec)))
    elapsed = time.perf_counter() - t0
    gate(4, "brute-force oracle equals closed form",
         worst <= 1e-12 and elapsed < 10.0,
         f"max deviation {worst:.2e} over 1000 tensors, {elapsed:.2f}s")


def test_criterion_05_continuous_triads_never_beat_bounds():
    rng = np.random.default_rng(5)
    qber_viol = 0
    cjwr_viol = 0
    for _ in range(100):
        bf = bloch_decompose(random_density_matrix(rng))
        spec = tensor_spectrum(bf)
        q_floor = qber_min(spec)
        f_ceil = f3_bound(spec)
        for _ in range(100):
            ta, tb = random_triad(rng), random_triad(rng)
            if qber_three_settings(bf, ta, tb) < q_floor - 1e-9:
                qber_viol += 1
            if cjwr_functional(bf, ta, tb) > f_ceil + 1e-9:
                cjwr_viol += 1
    gate(5, "random triads never beat the closed-form bounds",
         qber_viol == 0 and cjwr_viol == 0,
         f"{qber_viol} qber / {cjwr_viol} cjwr violations in 10^4 pairs")


def test_criterion_06_werner_threshold_flips():
    target = 1.0 / SQRT3
    omegas = np.arange(0.5, 0.65, 1e-3)
    steer_flip = None
    useful_flip = None
    for omega in omegas:
        spec = tensor_spectrum(bloch_decompose(make_werner(WernerParams(float(omega)))))
        if steer_flip is None and is_f3_steerable(spec):
            steer_flip = float(omega)
        if useful_flip is None and classify_usefulness(spec).useful:
            useful_flip = float(omega)
    ok = (steer_flip is not None and useful_flip is not None
          and abs(steer_flip - target) <= 1.5e-3
          and abs(useful_flip - target) <= 1.5e-3)
    fmt = lambda x: "never" if x is None else f"{x:.3f}"
    gate(6, "werner steerable/useful flags flip at 1/sqrt(3)",
         ok, f"steerable at {fmt(steer_flip)}, useful at {fmt(useful_flip)}, "
             f"target {target:.6f}")


def test_criterion_07_family_cross_checks():
    rng = np.random.default_rng(7)
    n = 10_000
    worst = 0.0
    pred_mismatch = 0

    def check_predicates(pred, spec):
        miss = 0
        if (abs(f3_bound(spec) - 1.0) > 1e-7
                and pred.steerable != is_f3_steerable(spec)):
            miss += 1
        if (abs(spec.sigma_sum - SQRT3) > 1e-7
                and pred.useful != classify_usefulness(spec).useful):
            miss += 1
        return miss

    for omega in rng.uniform(0.0, 1.0, size=n):
        p = WernerParams(float(omega))
        bf = bloch_decompose(make_werner(p))
        dev = np.abs(bf.w - np.diag(werner_correlation_diag(p))).max()
        worst = max(worst, float(dev))

    qs = rng.uniform(0.0, 1.0, size=n)
    alphas = rng.uniform(0.0, math.pi / 4, size=n)
    for q, alpha in zip(qs, alphas):
        p = GammaParams(q=float(q), alpha=float(alpha))
        bf = bloch_decompose(make_gamma(p))
        dev = np.abs(bf.w - np.diag(gamma_correlation_diag(p))).max()
        worst = max(worst, float(dev))
        pred_mismatch += check_predicates(gamma_predicates(p), tensor_spectrum(bf))

    for weights in rng.dirichlet(np.ones(4), size=n):
        p = BellDiagonalParams(*weights)
        bf = bloch_decompose(make_bell_diagonal(p))
        want = np.diag([1 - 2 * (p.w1 + p.w3),
                        1 - 2 * (p.w1 + p.w2),
                        1 - 2 * (p.w1 + p.w4)])
        worst = max(worst, float(np.abs(bf.w - want).max()))
        spec = tensor_spectrum(bf)
        pred_mismatch += check_predicates(belldiag_predicates(p), spec)
        if (abs(f3_bound(spec) - 1.0) > 1e-7
                and belldiag_f3_steerable(p.weights) != is_f3_steerable(spec)):
            pred_mismatch += 1

    gate(7, "family closed forms match the generic pipeline",
         worst <= 1e-10 and pred_mismatch == 0,
         f"max tensor deviation {worst:.2e} on 3x10^4 draws, "
         f"predicate mismatches {pred_mismatch}")


def test_criterion_08_absolutely_local_yet_useful():
    t0 = time.perf_counter()
    hits = []
    grid = np.arange(0.0, 1.0 + 1e-12, 0.02)
    for w1 in grid:
        for w2 in grid:
            if w1 + w2 > 1.0 + 1e-12:
                break
            for w3 in grid:
                w4 = 1.0 - w1 - w2 - w3
                if w4 < -1e-9:
                    break
                w = (float(w1), float(w2), float(w3), max(float(w4), 0.0))
                if not belldiag_absolutely_chsh_local(w):
                    continue
                spec = TensorSpectrum.from_diagonal(
                    1 - 2 * (w[0] + w[2]), 1 - 2 * (w[0] + w[1]), 1 - 2 * (w[0] + w[3]))
                if classify_usefulness(spec).useful and chsh_bound(spec) <= 2.0:
                    hits.append((chsh_bound(spec), w))
    elapsed = time.perf_counter() - t0
    ok = bool(hits) and elapsed < 30.0
    detail = f"none found, {elapsed:.2f}s"
    if hits:
        _, best = min(hits)   # deepest inside the CHSH-local region
        spec = tensor_spectrum(bloch_decompose(make_bell_diagonal(
            BellDiagonalParams(*best))))
        v = classify_usefulness(spec)
        ok = (ok and belldiag_absolutely_chsh_local(best) and v.useful
              and chsh_bound(spec) <= 2.0)
        detail = (f"{len(hits)} grid hits, e.g. w={tuple(round(x, 2) for x in best)}: "
                  f"q_min={v.q_min:.4f}, chsh={chsh_bound(spec):.4f}, {elapsed:.2f}s")
    gate(8, "absolutely CHSH-local yet useful state exists", ok, detail)


def test_criterion_09_simulator_statistics():
    t0 = time.perf_counter()
    rho = make_werner(WernerParams(0.8))
    bf = bloch_decompose(rho)
    ta, tb = optimal_triads(bf)
    q_want = 0.1
    f_want = SQRT3 * 0.8
    hits = 0
    for seed in range(100):
        cfg = ProtocolConfig(rounds=1_000_000, seed=seed, alice_triad=ta,
                             bob_triad=tb)
        rep = run_protocol(rho, cfg)
        q_sd = math.sqrt(q_want * (1 - q_want) / rep.disclosed_count)
        n_per_basis = rep.sifted_count / 3.0
        f_sd = math.sqrt(3 * (1 - 0.64) / n_per_basis) / SQRT3
        if (abs(rep.empirical_qber - q_want) <= 4 * q_sd
                and abs(rep.empirical_cjwr - f_want) <= 4 * f_sd):
            hits += 1
    elapsed = time.perf_counter() - t0
    gate(9, "simulator matches closed forms across 100 seeds",
         hits >= 99 and elapsed < 60.0, f"{hits}/100 seeds in window, {elapsed:.1f}s")


def test_criterion_10_byte_determinism(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"family": "werner", "params": {"omega": 0.8}}))

    sim_cmd = [sys.executable, "-m", "steerqkd", "simulate", str(state),
               "--rounds", "20000", "--seed", "5"]
    sim1 = subprocess.run(sim_cmd, capture_output=True, check=True).stdout
    sim2 = subprocess.run(sim_cmd, capture_output=True, check=True).stdout

    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "steerqkd", "scan", "--family",
                        "gamma", "--range", "q=0:1:0.2",
                        "--range", "alpha=0:0.78:0.26", "--out", str(out)],
                       capture_output=True, check=True)
        outs.append(out.read_bytes())

    gate(10, "repeated scan/simulate runs are byte-identical",
         sim1 == sim2 and outs[0] == outs[1],
         f"simulate {len(sim1)} bytes, scan {len(outs[0])} bytes")
