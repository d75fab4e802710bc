import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_triad, random_unitary
from steerqkd import (
    BadWeights,
    bloch_decompose,
    chsh_bound,
    cjwr_functional,
    f3_bound,
    is_chsh_violating,
    is_f3_steerable,
    make_bell_diagonal,
    make_werner,
    tensor_spectrum,
    verdict,
)
from steerqkd.families import BellDiagonalParams, WernerParams
from steerqkd.qber import optimal_triads
from steerqkd.qstate import _as_real
from steerqkd.steering import (
    WEIGHT_TOL,
    belldiag_absolute_chsh_value,
    belldiag_absolutely_chsh_local,
    belldiag_f3_bound,
    belldiag_f3_steerable,
    check_weights,
)

SQRT3 = math.sqrt(3.0)


def random_simplex_weights(rng):
    w = rng.dirichlet(np.ones(4))
    return BellDiagonalParams(*w)


class TestCjwrFunctional:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            rho = random_density_matrix(rng)
            bf = bloch_decompose(rho)
            ta, tb = random_triad(rng), random_triad(rng)
            want = abs(sum(u @ bf.w @ v for u, v in zip(ta.dirs, tb.dirs))) / SQRT3
            assert cjwr_functional(rho, ta, tb) == pytest.approx(want, abs=1e-12)
            assert cjwr_functional(bf, ta, tb) == pytest.approx(want, abs=1e-12)

    def test_never_exceeds_f3_bound(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            bf = bloch_decompose(random_density_matrix(rng))
            bound = f3_bound(tensor_spectrum(bf))
            for _ in range(40):
                val = cjwr_functional(bf, random_triad(rng), random_triad(rng))
                assert val <= bound + 1e-9

    def test_singular_triads_collect_whole_spectrum(self):
        # with both triads orthonormal the singular pair is optimal and
        # yields sigma_sum / sqrt(3); the full bound sqrt(sum sigma^2)
        # needs non-orthogonal settings on one side
        rng = np.random.default_rng(63)
        for _ in range(100):
            bf = bloch_decompose(random_density_matrix(rng))
            spec = tensor_spectrum(bf)
            ta, tb = optimal_triads(bf)
            val = cjwr_functional(bf, ta, tb)
            assert val == pytest.approx(spec.sigma_sum / SQRT3, abs=1e-9)
            assert val <= f3_bound(spec) + 1e-9

    def test_bound_attained_for_isotropic_spectrum(self):
        # equal singular values make the triad optimum meet the bound
        bf = bloch_decompose(make_werner(WernerParams(0.8)))
        ta, tb = optimal_triads(bf)
        val = cjwr_functional(bf, ta, tb)
        assert val == pytest.approx(f3_bound(tensor_spectrum(bf)), abs=1e-10)


class TestF3Bound:
    def test_is_root_sum_of_squares(self):
        rng = np.random.default_rng(64)
        for _ in range(100):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            assert f3_bound(spec) == pytest.approx(
                math.sqrt(sum(s * s for s in spec.sigma)), abs=1e-12)

    def test_werner_value_and_threshold(self):
        # W = -omega * I so the bound is sqrt(3) * omega
        for omega in (0.0, 0.3, 1.0 / SQRT3, 0.8, 1.0):
            spec = tensor_spectrum(bloch_decompose(make_werner(WernerParams(omega))))
            assert f3_bound(spec) == pytest.approx(SQRT3 * omega, abs=1e-10)
        below = tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.577))))
        above = tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.578))))
        assert not is_f3_steerable(below)
        assert is_f3_steerable(above)

    def test_steerable_iff_strictly_above_one(self):
        spec = tensor_spectrum(bloch_decompose(make_werner(WernerParams(1.0 / SQRT3))))
        assert f3_bound(spec) == pytest.approx(1.0, abs=1e-10)
        assert not is_f3_steerable(spec)


class TestChshBound:
    def test_uses_two_largest_singular_values(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            want = 2.0 * math.sqrt(spec.sigma[0] ** 2 + spec.sigma[1] ** 2)
            assert chsh_bound(spec) == pytest.approx(want, abs=1e-12)

    def test_singlet_reaches_tsirelson(self):
        spec = tensor_spectrum(bloch_decompose(make_werner(WernerParams(1.0))))
        assert chsh_bound(spec) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert is_chsh_violating(spec)

    def test_werner_violation_threshold(self):
        lo = tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.707))))
        hi = tensor_spectrum(bloch_decompose(make_werner(WernerParams(0.708))))
        assert not is_chsh_violating(lo)
        assert is_chsh_violating(hi)


class TestVerdict:
    def test_flags_match_component_functions(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            rho = random_density_matrix(rng)
            spec = tensor_spectrum(bloch_decompose(rho))
            v = verdict(spec)
            assert v.f3_bound == pytest.approx(f3_bound(spec), abs=1e-12)
            assert v.steerable == is_f3_steerable(spec)
            assert v.chsh_bound == pytest.approx(chsh_bound(spec), abs=1e-12)
            assert v.chsh_violating == is_chsh_violating(spec)

    def test_chsh_violation_implies_steerable(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            spec = tensor_spectrum(bloch_decompose(random_density_matrix(rng)))
            if is_chsh_violating(spec):
                assert is_f3_steerable(spec)


class TestBellDiagonalClosedForms:
    def test_f3_bound_matches_generic_pipeline(self):
        rng = np.random.default_rng(68)
        for _ in range(300):
            p = random_simplex_weights(rng)
            closed = belldiag_f3_bound(p.weights)
            generic = f3_bound(tensor_spectrum(bloch_decompose(make_bell_diagonal(p))))
            assert closed == pytest.approx(generic, abs=1e-9)

    def test_vertices_are_maximally_steerable(self):
        for k in range(4):
            w = [0.0] * 4
            w[k] = 1.0
            assert belldiag_f3_bound(w) == pytest.approx(SQRT3, abs=1e-12)
            assert belldiag_f3_steerable(w)

    def test_maximally_mixed_is_unsteerable(self):
        assert belldiag_f3_bound([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.0, abs=1e-9)
        assert not belldiag_f3_steerable([0.25, 0.25, 0.25, 0.25])

    def test_rejects_invalid_weights(self):
        with pytest.raises(BadWeights):
            belldiag_f3_bound([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(BadWeights):
            belldiag_f3_bound([0.3, 0.3, 0.3, 0.3])


# One weight: any float (NaN, inf and out-of-range ones included), a value
# that float() accepts but the checks refuse, or a near-simplex value.
weight = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -1e-9, 1.0 + 1e-9, 0.0, 1.0]),
    st.booleans(), st.text(max_size=3), st.integers(-2, 2), st.floats(0.0, 1.0))


@st.composite
def near_simplex(draw):
    """Three weights in [0, 1] and a fourth that misses the sum 1 by a
    drawn offset, on either side of the tolerance."""
    w = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    off = draw(st.sampled_from([0.0, 5e-11, -5e-11, 2e-10, -2e-10, 0.5]))
    return [*w, 1.0 - sum(w) + off]


def outcome(check, *args):
    """The message of the BadWeights ``check`` raises, or None; any other
    exception fails the test."""
    try:
        check(*args)
    except BadWeights as exc:
        return str(exc)
    return None


def simplex_oracle(w):
    """The weight checks written out one by one, in their order."""
    ws = tuple(_as_real(x, BadWeights, "weights") for x in w)
    if len(ws) != 4:
        raise BadWeights(f"expected four weights, got {len(ws)}")
    if not all(math.isfinite(x) for x in ws):
        raise BadWeights("weights must be finite")
    if any(not -WEIGHT_TOL <= x <= 1.0 + WEIGHT_TOL for x in ws):
        raise BadWeights(f"weights outside [0, 1]: {ws}")
    if abs(((ws[0] + ws[1]) + ws[2]) + ws[3] - 1.0) > WEIGHT_TOL:
        raise BadWeights(f"weights sum to {sum(ws)!r}, expected 1")


def stack_path(w):
    """One 4-tuple through the (N, 4) stack check, behind a valid row."""
    ws = [_as_real(x, BadWeights, "weights") for x in w]
    if len(ws) != 4:
        raise BadWeights(f"expected four weights, got {len(ws)}")
    with np.errstate(invalid="ignore"):  # inf + -inf in the sum check
        check_weights(np.array([[0.25] * 4, ws]))


class TestWeightChecks:
    """The scalar 4-tuple path and the stack path refuse the same weights
    with the same error, in the same check order, and accept the same ones."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(weight, min_size=4, max_size=4), near_simplex(),
                     st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5)))
    def test_tuple_and_stack_paths_agree(self, w):
        want = outcome(simplex_oracle, w)
        assert outcome(stack_path, w) == want
        assert outcome(belldiag_f3_bound, w) == want
        assert outcome(belldiag_absolute_chsh_value, w) == want
        if len(w) == 4:
            assert outcome(BellDiagonalParams, *w) == want


class TestAbsoluteChshLocality:
    def test_value_matches_direct_cyclic_formula(self):
        rng = np.random.default_rng(69)
        for _ in range(200):
            p = random_simplex_weights(rng)
            w = [p.w1, p.w2, p.w3]
            vals = []
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                vals.append(1.0
                            - 4.0 * (w[i] - w[i] ** 2 - w[i] * w[j] - w[i] * w[k])
                            - 2.0 * (w[j] + w[k] - w[j] ** 2 - w[k] ** 2))
            want = max(vals)
            got = belldiag_absolute_chsh_value(p.weights)
            assert got == pytest.approx(want, abs=1e-12)
            assert belldiag_absolutely_chsh_local(p.weights) == (got <= 0.5)

    def test_bell_vertex_is_not_absolutely_local(self):
        assert not belldiag_absolutely_chsh_local([1.0, 0.0, 0.0, 0.0])

    def test_maximally_mixed_is_absolutely_local(self):
        assert belldiag_absolutely_chsh_local([0.25, 0.25, 0.25, 0.25])

    def test_absolute_locality_implies_no_violation_here(self):
        # weaker necessary check: if no unitary orbit member violates,
        # the state itself certainly does not
        rng = np.random.default_rng(70)
        for _ in range(300):
            p = random_simplex_weights(rng)
            if belldiag_absolutely_chsh_local(p.weights):
                spec = tensor_spectrum(bloch_decompose(make_bell_diagonal(p)))
                assert not is_chsh_violating(spec)


class TestUnitaryCovariance:
    def test_f3_bound_invariant_under_local_rotations(self):
        rng = np.random.default_rng(71)
        from steerqkd import DensityMatrix
        for _ in range(60):
            rho = random_density_matrix(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            b1 = f3_bound(tensor_spectrum(bloch_decompose(rho)))
            b2 = f3_bound(tensor_spectrum(bloch_decompose(rotated)))
            assert b1 == pytest.approx(b2, abs=1e-9)
