"""Steering and nonlocality criteria for two-qubit states.

Implements the three-setting linear steering functional, its closed-form
maximum over measurement triads, the CHSH value via the singular values of
the correlation tensor, and the absolute-CHSH-locality test for
Bell-diagonal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadWeights
from .qstate import (
    SQRT3, BlochForm, DensityMatrix, MeasurementTriad, TensorSpectrum, _as_real,
    _first_failure, bloch_decompose)

#: Weights may miss the probability simplex by at most this much.
WEIGHT_TOL = 1e-10


def cjwr_functional(rho: DensityMatrix | BlochForm,
                    alice: MeasurementTriad,
                    bob: MeasurementTriad) -> float:
    """Three-setting steering functional (1/sqrt(3)) |sum_l <A_l x B_l>|.

    The correlators are ``<A_l x B_l> = u_l . W . v_l`` for the l-th pair of
    triad directions.  Values above 1 witness steering; the maximum over
    triads is :func:`f3_bound`.
    """
    bf = bloch_decompose(rho) if isinstance(rho, DensityMatrix) else rho
    total = sum(float(u @ bf.w @ v) for u, v in zip(alice.dirs, bob.dirs))
    return abs(total) / SQRT3


def verdicts(sigma):
    """The :class:`SteeringVerdict` fields from singular values ``sigma``: three
    floats or three arrays (an (N, 3) array transposed).  Squares are products,
    the same bits for floats and arrays; ``float ** 2`` calls ``pow``, which may differ."""
    s1, s2, s3 = sigma
    chsh_sq = s1 * s1 + s2 * s2
    f3 = np.sqrt(chsh_sq + s3 * s3)
    return f3, f3 > 1.0, 2.0 * np.sqrt(chsh_sq), chsh_sq > 1.0


def f3_bound(spec: TensorSpectrum) -> float:
    """Maximum of the three-setting steering functional over all triads,
    ``sqrt(sigma1^2 + sigma2^2 + sigma3^2) = sqrt(Tr W^T W)``."""
    return verdict(spec).f3_bound


def is_f3_steerable(spec: TensorSpectrum) -> bool:
    """True iff the optimal three-setting functional strictly exceeds 1."""
    return verdict(spec).steerable


def chsh_bound(spec: TensorSpectrum) -> float:
    """Maximal CHSH value 2 sqrt(sigma1^2 + sigma2^2) over local measurements."""
    return verdict(spec).chsh_bound


def is_chsh_violating(spec: TensorSpectrum) -> bool:
    """True iff some CHSH inequality is violated, i.e. sigma1^2+sigma2^2 > 1."""
    return verdict(spec).chsh_violating


def check_weights(w: np.ndarray) -> None:
    """Raise :class:`BadWeights` for the first row of ``w`` (N, 4) off the simplex."""
    hit = _first_failure(
        ~np.isfinite(w).all(axis=1),
        ((w < -WEIGHT_TOL) | (w > 1.0 + WEIGHT_TOL)).any(axis=1),
        np.abs(((w[:, 0] + w[:, 1]) + w[:, 2]) + w[:, 3] - 1.0) > WEIGHT_TOL)
    if hit is not None:
        ws = tuple(w[hit[0]].tolist())
        raise BadWeights(("weights must be finite",
                          f"weights outside [0, 1]: {ws}",
                          f"weights sum to {sum(ws)!r}, expected 1")[hit[1]])


def _validated_weights(w) -> tuple[float, float, float, float]:
    ws = tuple(_as_real(x, BadWeights, "weights") for x in w)
    if len(ws) != 4:
        raise BadWeights(f"expected four weights, got {len(ws)}")
    check_weights(np.array([ws]))
    return ws


def belldiag_f3_bound(w) -> float:
    """Closed-form steering bound for a Bell-diagonal mixture.

    Evaluates sqrt(8 (sum_{i<=j<=3} w_i w_j + w_4) - 5) with the radicand
    clamped at zero.  The pair sum runs over ordered index pairs i <= j of
    the first three weights, including the squares; with that reading the
    radicand reduces to 4 sum_i w_i^2 - 1, which matches
    ``f3_bound(tensor_spectrum(...))`` of the generated state.
    """
    w1, w2, w3, w4 = _validated_weights(w)
    pair_sum = (w1 * w1 + w2 * w2 + w3 * w3
                + w1 * w2 + w1 * w3 + w2 * w3)
    radicand = 8.0 * (pair_sum + w4) - 5.0
    return math.sqrt(max(0.0, radicand))


def belldiag_f3_steerable(w) -> bool:
    """Steerability of a Bell-diagonal state directly from its weights."""
    return belldiag_f3_bound(w) > 1.0


def absolute_chsh_values(w1, w2, w3):
    """Worst-case CHSH figure of merit over global unitary orbits.

    Maximum over the cyclic index triples (i,j,k) of

        1 - 4(w_i - w_i^2 - w_i w_j - w_i w_k) - 2(w_j + w_k - w_j^2 - w_k^2)

    for the first three Bell-diagonal weights, given as floats or as arrays
    (one value per state).  The state stays CHSH local under every global
    unitary iff this does not exceed 1/2.
    """
    ws = (w1, w2, w3)
    vals = [1.0
            - 4.0 * (wi - wi * wi - wi * wj - wi * wk)
            - 2.0 * (wj + wk - wj * wj - wk * wk)
            for wi, wj, wk in (ws, ws[1:] + ws[:1], ws[2:] + ws[:2])]
    return np.maximum(np.maximum(vals[0], vals[1]), vals[2])


def belldiag_absolute_chsh_value(w) -> float:
    """:func:`absolute_chsh_values` of a validated weight 4-tuple."""
    return float(absolute_chsh_values(*_validated_weights(w)[:3]))


def belldiag_absolutely_chsh_local(w) -> bool:
    """True iff the Bell-diagonal state is CHSH local under every global unitary."""
    return belldiag_absolute_chsh_value(w) <= 0.5


@dataclass(frozen=True)
class SteeringVerdict:
    """Bundle of the steering and CHSH figures for one spectrum.

    ``steerable`` uses strict > on ``f3_bound``; ``chsh_violating`` uses
    strict > on the CHSH value 2.  For physical states f3_bound^2 <= 3 and
    chsh_bound <= 2 sqrt(2).
    """

    f3_bound: float
    steerable: bool
    chsh_bound: float
    chsh_violating: bool


def verdict(spec: TensorSpectrum) -> SteeringVerdict:
    """Evaluate both steering and CHSH criteria on a correlation spectrum."""
    f3, steerable, chsh, violating = verdicts(spec.sigma)
    return SteeringVerdict(float(f3), bool(steerable), float(chsh), bool(violating))
