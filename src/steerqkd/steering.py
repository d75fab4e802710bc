"""Steering and nonlocality criteria for two-qubit states.

Implements the three-setting linear steering functional, its closed-form
maximum over measurement triads, the CHSH value via the singular values of
the correlation tensor, and the absolute-CHSH-locality test for
Bell-diagonal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadWeights
from .qstate import (
    BlochForm,
    DensityMatrix,
    SQRT3,
    MeasurementTriad,
    TensorSpectrum,
    _as_real,
    bloch_decompose,
)

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


def f3_bound(spec: TensorSpectrum) -> float:
    """Maximum of the three-setting steering functional over all triads.

    Equals ``sqrt(sigma1^2 + sigma2^2 + sigma3^2) = sqrt(Tr W^T W)``.
    """
    return math.sqrt(spec.sigma_sq_sum)


def is_f3_steerable(spec: TensorSpectrum) -> bool:
    """True iff the optimal three-setting functional strictly exceeds 1."""
    return f3_bound(spec) > 1.0


def chsh_bound(spec: TensorSpectrum) -> float:
    """Maximal CHSH value 2 sqrt(sigma1^2 + sigma2^2) over local measurements."""
    return 2.0 * math.sqrt(spec.sigma[0] ** 2 + spec.sigma[1] ** 2)


def is_chsh_violating(spec: TensorSpectrum) -> bool:
    """True iff some CHSH inequality is violated, i.e. sigma1^2+sigma2^2 > 1."""
    return spec.sigma[0] ** 2 + spec.sigma[1] ** 2 > 1.0


def _validated_weights(w) -> tuple[float, float, float, float]:
    ws = tuple(_as_real(x, BadWeights, "weights") for x in w)
    if len(ws) != 4:
        raise BadWeights(f"expected four weights, got {len(ws)}")
    if any(not math.isfinite(x) for x in ws):
        raise BadWeights("weights must be finite")
    if any(x < -WEIGHT_TOL or x > 1.0 + WEIGHT_TOL for x in ws):
        raise BadWeights(f"weights outside [0, 1]: {ws}")
    if abs(sum(ws) - 1.0) > WEIGHT_TOL:
        raise BadWeights(f"weights sum to {sum(ws)!r}, expected 1")
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


def belldiag_absolute_chsh_value(w) -> float:
    """Worst-case CHSH figure of merit over global unitary orbits.

    Maximum over the cyclic index triples (i,j,k) of

        1 - 4(w_i - w_i^2 - w_i w_j - w_i w_k) - 2(w_j + w_k - w_j^2 - w_k^2)

    computed from the first three weights.  The state stays CHSH local
    under every global unitary iff this does not exceed 1/2.
    """
    w1, w2, w3, _ = _validated_weights(w)
    vals = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        wi, wj, wk = (w1, w2, w3)[i], (w1, w2, w3)[j], (w1, w2, w3)[k]
        vals.append(1.0
                    - 4.0 * (wi - wi * wi - wi * wj - wi * wk)
                    - 2.0 * (wj + wk - wj * wj - wk * wk))
    return max(vals)


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
    f3 = f3_bound(spec)
    chsh = chsh_bound(spec)
    return SteeringVerdict(
        f3_bound=f3,
        steerable=f3 > 1.0,
        chsh_bound=chsh,
        chsh_violating=is_chsh_violating(spec),
    )
