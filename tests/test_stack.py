"""The stack path (one (N, 4, 4) array) equals the single-state path bit for bit.

``families.scan_rows`` evaluates a whole grid through
``qstate.validate_stack``/``bloch_tensors``/``stack_spectra`` and the array
verdicts; ``analyze`` and every other caller go through ``DensityMatrix``,
``bloch_decompose``, ``tensor_spectrum`` and the scalar verdicts.  Both must
give the same bits, and a stack with a bad matrix must fail the way
``DensityMatrix`` fails on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from steerqkd import steering
from steerqkd.errors import InvalidState
from steerqkd.families import BellDiagonalParams, GammaParams, make_bell_diagonal, make_gamma
from steerqkd.qber import classify_usefulness, usefulness
from steerqkd.qstate import (
    DensityMatrix,
    bloch_decompose,
    bloch_tensors,
    stack_spectra,
    tensor_spectrum,
    validate_stack,
)

KINDS = ("full", "rank1", "rank2", "rank3", "pure", "gamma", "bell")


def make_matrix(kind: str, seed: int) -> np.ndarray:
    """A 4x4 state matrix of the given kind drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "full":
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    if kind.startswith("rank"):
        p = np.zeros(4)
        p[:int(kind[-1])] = rng.dirichlet(np.ones(int(kind[-1])))
        u = random_unitary(rng, dim=4)
        return u @ np.diag(p) @ u.conj().T
    if kind == "pure":
        return DensityMatrix.from_ket(rng.normal(size=4) + 1j * rng.normal(size=4)).matrix
    if kind == "gamma":
        q, alpha = rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi / 4)
        return make_gamma(GammaParams(q, alpha)).matrix
    w = rng.dirichlet(np.ones(4))
    return make_bell_diagonal(BellDiagonalParams(w[0], w[1], w[2], 1.0 - w[:3].sum())).matrix


states = st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2 ** 32 - 1)),
                  min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(states)
def test_stack_equals_single_state_path(drawn):
    mats = np.array([make_matrix(kind, seed) for kind, seed in drawn])
    stack = validate_stack(mats)
    t = bloch_tensors(stack)
    sigma, signed = stack_spectra(mats)
    f3, steerable, chsh, violating = steering.verdicts(sigma.T)
    q_min, useful, _ = usefulness(sigma.T)
    for i, mat in enumerate(mats):
        rho = DensityMatrix(mat)
        assert np.array_equal(stack[i], rho.matrix)
        bf = bloch_decompose(rho)
        assert np.array_equal(t[i, 1:, 0], bf.a_vec)
        assert np.array_equal(t[i, 0, 1:], bf.b_vec)
        assert np.array_equal(t[i, 1:, 1:], bf.w)
        spec = tensor_spectrum(bf)
        assert np.array_equal(sigma[i], spec.sigma)
        assert np.array_equal(signed[i], spec.signed)
        sv, uv = steering.verdict(spec), classify_usefulness(spec)
        assert np.array_equal(f3[i], sv.f3_bound)
        assert np.array_equal(chsh[i], sv.chsh_bound)
        assert np.array_equal(q_min[i], uv.q_min)
        assert (steerable[i], useful[i], violating[i]) == (
            sv.steerable, uv.useful, sv.chsh_violating)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, np.pi / 4)),
                min_size=1, max_size=8))
def test_gamma_stack_equals_maker(points):
    q, alpha = np.array(points).T
    stack = validate_stack(GammaParams.matrices(q, alpha))
    for i, (qi, ai) in enumerate(points):
        assert np.array_equal(stack[i], make_gamma(GammaParams(qi, ai)).matrix)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=8))
def test_bell_diagonal_stack_equals_maker(seeds):
    w = np.array([np.random.default_rng(s).dirichlet(np.ones(4)) for s in seeds])
    stack = validate_stack(BellDiagonalParams.matrices(*w.T))
    for i, row in enumerate(w):
        assert np.array_equal(stack[i], make_bell_diagonal(BellDiagonalParams(*row)).matrix)


def non_psd(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, dim=4)
    return u @ np.diag([0.7, 0.4, -0.1, 0.0]) @ u.conj().T


def non_hermitian(seed: int) -> np.ndarray:
    mat = make_matrix("full", seed).copy()
    mat[0, 1] += 1e-6
    return mat


def error_of(make):
    with pytest.raises(InvalidState) as exc:
        make()
    return type(exc.value), str(exc.value)


@settings(max_examples=100, deadline=None)
@given(states, st.data())
def test_bad_matrix_in_stack_fails_like_density_matrix(drawn, data):
    mats = [make_matrix(kind, seed) for kind, seed in drawn]
    bad_kinds = data.draw(st.lists(st.sampled_from((non_psd, non_hermitian)),
                                   min_size=1, max_size=2))
    positions = []
    for bad in bad_kinds:
        pos = data.draw(st.integers(0, len(mats)))
        mats.insert(pos, bad(data.draw(st.integers(0, 2 ** 32 - 1))))
        positions = [p + (p >= pos) for p in positions] + [pos]
    first = min(positions)
    want = error_of(lambda: DensityMatrix(mats[first]))
    assert error_of(lambda: validate_stack(np.array(mats))) == want
    assert error_of(lambda: stack_spectra(np.array(mats))) == want


def test_non_finite_matrix_in_stack():
    good = make_matrix("full", 1)
    bad = good.copy()
    bad[2, 3] = np.nan
    want = error_of(lambda: DensityMatrix(bad))
    assert error_of(lambda: validate_stack(np.array([good, bad, good]))) == want
