"""Quantum bit error rate formulas and the usefulness criterion.

The protocol measures each qubit in one of three mutually unbiased bases
(the X, Y and Z eigenbases) and keeps rounds where the basis indices
match.  The per-round mismatch probability for direction pair (u, v) is
(1 - u.W.v)/2, so with three settings the error rate is

    Q = (1/6) (3 - sum_l u_l . W . v_l).

Minimised over both parties' triads this depends only on the singular
values of W: Q_min = (3 - (sigma1+sigma2+sigma3))/6.  A state supports a
positive minimal key rate iff Q_min lies strictly below the critical rate
(3 - sqrt(3))/6, equivalently sigma1+sigma2+sigma3 > sqrt(3).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, BadQber, BadViolation
from .qstate import SQRT3, BlochForm, MeasurementTriad, TensorSpectrum, sigma_sum

#: Largest QBER attainable with an optimal triad pair on a non-steerable
#: state; states achieving a strictly lower rate are useful for key
#: generation.
CRITICAL_QBER = (3.0 - SQRT3) / 6.0

_BASE_AXES = np.array([
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
])


# All 48 triads assembled from the signed coordinate axes: a distinct axis
# (z, x or y) per measurement slot and a sign per slot, 3! orders times 2^3
# signs.  Permutations outer, sign patterns inner, so argmin results are
# deterministic.
_AXIS_TRIADS = np.array([_BASE_AXES[list(perm)] * np.array(signs)[:, None]
                         for perm in itertools.permutations(range(3))
                         for signs in itertools.product((1.0, -1.0), repeat=3)])
_AXIS_TRIADS.setflags(write=False)


def pair_mismatch_probability(bf: BlochForm, alice_dir, bob_dir) -> float:
    """Probability that the parties' outcome bits differ, (1 - u.W.v)/2."""
    u = np.asarray(alice_dir, dtype=float).reshape(3)
    v = np.asarray(bob_dir, dtype=float).reshape(3)
    return 0.5 * (1.0 - float(u @ bf.w @ v))


def qber_three_settings(bf: BlochForm,
                        alice: MeasurementTriad,
                        bob: MeasurementTriad) -> float:
    """Error rate of the three-setting protocol for given measurement triads."""
    total = sum(float(u @ bf.w @ v) for u, v in zip(alice.dirs, bob.dirs))
    return (3.0 - total) / 6.0


def usefulness(sigma):
    """``(q_min, useful, margin)``, that is ``((3 - s)/6, s > sqrt(3), (s - sqrt(3))/6)``
    with s = sigma1 + sigma2 + sigma3, from three floats or three arrays (an
    (N, 3) array transposed)."""
    s = sigma_sum(sigma)
    return (3.0 - s) / 6.0, s > SQRT3, (s - SQRT3) / 6.0


def qber_min(spec: TensorSpectrum) -> float:
    """Minimal three-setting error rate, (3 - sum of singular values)/6."""
    return usefulness(spec.sigma)[0]


def qber_min_two_settings(spec: TensorSpectrum) -> float:
    """Minimal two-setting error rate, (2 - (sigma1 + sigma2))/4."""
    return (2.0 - (spec.sigma[0] + spec.sigma[1])) / 4.0


def critical_qber() -> float:
    """The critical error rate (3 - sqrt(3))/6, about 0.2113248654."""
    return CRITICAL_QBER


def brute_force_qber_min(
        spec: TensorSpectrum) -> tuple[float, MeasurementTriad, MeasurementTriad]:
    """Minimal error rate by exhaustive search over signed-axis triads.

    Enumerates, for each party independently, all 48 assignments of the six
    signed coordinate axes to the three measurement slots (distinct axes
    per slot) and evaluates Q = (3 - sum_l u_l . T . v_l)/6 on the signed
    diagonal tensor T of ``spec``, 2304 combinations in total.  Returns the
    minimum and the first minimising triad pair in enumeration order.

    This is the finite oracle for :func:`qber_min`: the two must agree to
    1e-12 for every signed diagonal tensor.
    """
    t = np.asarray(spec.signed)
    sums = np.einsum("psk,k,qsk->pq", _AXIS_TRIADS, t, _AXIS_TRIADS)
    q = (3.0 - sums) / 6.0
    flat = int(np.argmin(q))
    p_idx, q_idx = divmod(flat, q.shape[1])
    return (
        float(q[p_idx, q_idx]),
        MeasurementTriad(_AXIS_TRIADS[p_idx]),
        MeasurementTriad(_AXIS_TRIADS[q_idx]),
    )


def optimal_triads(bf: BlochForm) -> tuple[MeasurementTriad, MeasurementTriad]:
    """A triad pair achieving the minimal error rate for this state.

    Obtained from the singular value decomposition W = U S V^T: Alice
    measures along the left singular directions and Bob along the right
    ones, so each matched pair contributes its singular value to the
    correlator sum.
    """
    u_mat, _, vt_mat = np.linalg.svd(bf.w)
    return MeasurementTriad(u_mat.T), MeasurementTriad(vt_mat)


@dataclass(frozen=True)
class UsefulnessVerdict:
    """Classification of a state's key-generation usefulness.

    ``margin`` is how far the minimal error rate sits below the critical
    rate, (sigma_sum - sqrt(3))/6; ``useful`` is strict positivity of the
    margin, equivalent to q_min < critical_rate.
    """

    q_min: float
    useful: bool
    critical_rate: float
    margin: float


def classify_usefulness(spec: TensorSpectrum) -> UsefulnessVerdict:
    """Decide usefulness from the correlation spectrum."""
    q_min, useful, margin = usefulness(spec.sigma)
    return UsefulnessVerdict(
        q_min=q_min,
        useful=useful,
        critical_rate=CRITICAL_QBER,
        margin=margin,
    )


def _implied_lam11(violation: float, lam22: float, lam33: float) -> float | None:
    """Check both tests' arguments; return the implied lam11, None if imaginary."""
    if not math.isfinite(violation) or violation <= 0.0 or violation > SQRT3 + 1e-12:
        raise BadViolation(f"violation {violation!r} outside (0, sqrt(3)]")
    for name, lam in (("lam22", lam22), ("lam33", lam33)):
        if not math.isfinite(lam) or lam < 0.0 or lam > 1.0:
            raise BadParam(f"{name} must lie in [0, 1], got {lam!r}")
    radicand = violation ** 2 - lam22 ** 2 - lam33 ** 2
    return math.sqrt(radicand) if radicand >= 0.0 else None


def useful_region_given_violation(
        violation: float, lam22: float, lam33: float,
) -> tuple[float, float] | None:
    """Certification interval for an unknown state from an observed violation.

    Given an observed three-setting steering value ``violation`` and two
    known correlation magnitudes ``lam22``, ``lam33``, the remaining
    magnitude is implied: lam11 = sqrt(violation^2 - lam22^2 - lam33^2).
    The source criterion is the (asymmetric) chain

        sqrt(3) - lam11 - lam22 < lam11 <= 1,

    evaluated literally with the implied lam11 substituted on both sides.
    Returns the lam11 interval ((sqrt(3) - lam22)/2, 1] when the implied
    value falls inside it, ``None`` otherwise (including a negative
    radicand).  See :func:`certifies_useful_symmetric` for the symmetric
    three-term usefulness test.
    """
    lam11 = _implied_lam11(violation, lam22, lam33)
    if lam11 is None:
        return None
    low = (SQRT3 - lam22) / 2.0
    if low < lam11 <= 1.0:
        return (low, 1.0)
    return None


def certifies_useful_symmetric(violation: float, lam22: float, lam33: float) -> bool:
    """Symmetric usefulness test on the implied correlation triple.

    True iff the implied lam11 is a valid magnitude (radicand >= 0,
    lam11 <= 1) and lam11 + lam22 + lam33 > sqrt(3).  Kept separate from
    :func:`useful_region_given_violation`, which preserves the asymmetric
    source form; tests document where the two disagree.
    """
    lam11 = _implied_lam11(violation, lam22, lam33)
    return lam11 is not None and lam11 <= 1.0 and lam11 + lam22 + lam33 > SQRT3


def min_secure_key_rate(q: float) -> float:
    """Minimal secure key rate at error rate ``q``.

    Evaluates r = 1 + 2 q log2(q) + 2 (1 - 2q) log2(1 - q) for q in
    [0, 1/2], taking the analytic limit r = 1 at q = 0.
    """
    if not math.isfinite(q) or q < -1e-12 or q > 0.5 + 1e-12:
        raise BadQber(f"error rate {q!r} outside [0, 1/2]")
    q = min(max(q, 0.0), 0.5)
    if q == 0.0:
        return 1.0
    return 1.0 + 2.0 * q * math.log2(q) + 2.0 * (1.0 - 2.0 * q) * math.log2(1.0 - q)
