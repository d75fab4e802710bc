"""Local filtering of two-qubit states and post-filter usefulness.

Each party applies the non-unitary local operation M = eps|0><0| + |1><1|
(success branch); with probability p_succ both filters click and the
shared state is replaced by the renormalised success branch

    rho' = (M_A x M_B) rho (M_A x M_B)^dagger / p_succ.

Filtering can pull initially useless (even unsteerable) states below the
critical error rate at the price of discarding the failed rounds.
:func:`useful_q_start` finds, for the gamma family, the lowest q from
which a given filter pair keeps the state useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import BadParam, FilterAnnihilates
from .families import GammaParams, _check_domain, _grid, make_gamma
from .qber import critical_qber, qber_min
from .qstate import DensityMatrix, _as_real, bloch_decompose, tensor_spectrum

#: Success probabilities below this cannot be renormalised meaningfully.
ANNIHILATION_THRESHOLD = 1e-12


@dataclass(frozen=True)
class FilterPair:
    """Filter strengths (eps1 for Alice, eps2 for Bob), both in [0, 1]."""

    DOMAIN: ClassVar = {"eps1": (0.0, 1.0), "eps2": (0.0, 1.0)}

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        _check_domain(self)

    def success_operator(self) -> np.ndarray:
        """The two-party success branch M_A x M_B = diag(e1 e2, e1, e2, 1)."""
        return np.diag([self.eps1 * self.eps2, self.eps1, self.eps2, 1.0]).astype(complex)


@dataclass(frozen=True)
class FilterOutcome:
    """Result of a successful filter application.

    ``q_min_filtered`` is the minimal three-setting error rate of the
    filtered state and is the canonical post-filter QBER.
    """

    filtered_state: DensityMatrix
    p_succ: float
    q_min_filtered: float


def filter_branch_probabilities(rho: DensityMatrix, f: FilterPair) -> np.ndarray:
    """Probabilities of the four success/failure branch combinations.

    Index [i, j]: i is Alice's branch, j Bob's, 0 = filter clicked
    (M1 = diag(eps, 1)), 1 = it did not (M2 = diag(sqrt(1 - eps^2), 0)).
    The four probabilities sum to 1: the two branches per party form a
    complete measurement, M1^dag M1 + M2^dag M2 = I.
    """
    branches_a = (np.diag([f.eps1, 1.0]), np.diag([math.sqrt(1.0 - f.eps1 ** 2), 0.0]))
    branches_b = (np.diag([f.eps2, 1.0]), np.diag([math.sqrt(1.0 - f.eps2 ** 2), 0.0]))
    probs = np.empty((2, 2))
    for i, ma in enumerate(branches_a):
        for j, mb in enumerate(branches_b):
            m = np.kron(ma, mb).astype(complex)
            probs[i, j] = np.trace(m @ rho.matrix @ m.conj().T).real
    return probs


def apply_local_filters(rho: DensityMatrix, f: FilterPair) -> FilterOutcome:
    """Apply the success branch of both parties' filters and renormalise.

    Raises
    ------
    FilterAnnihilates
        If the success probability falls below 1e-12, i.e. the filters
        remove the state's entire support.
    """
    m = f.success_operator()
    unnormalised = m @ rho.matrix @ m.conj().T
    p_succ = float(np.trace(unnormalised).real)
    if p_succ < ANNIHILATION_THRESHOLD:
        raise FilterAnnihilates(
            f"filter ({f.eps1}, {f.eps2}) succeeds with probability {p_succ:.3e}")
    filtered = DensityMatrix(unnormalised / p_succ)
    return FilterOutcome(
        filtered_state=filtered,
        p_succ=p_succ,
        q_min_filtered=qber_min(tensor_spectrum(bloch_decompose(filtered))),
    )


def modified_protocol_useful(rho: DensityMatrix, f: FilterPair) -> bool:
    """True iff the filtered state's minimal error rate beats the critical rate."""
    return apply_local_filters(rho, f).q_min_filtered < critical_qber()


def _step_grid(name: str, step) -> list[float]:
    """The grid (0, step, 2 step, ..., <= 1); ``step`` must be finite, in (0, 0.5]."""
    step = _as_real(step, BadParam, name)
    if not math.isfinite(step) or step <= 0.0 or step > 0.5:
        raise BadParam(f"{name} must lie in (0, 0.5], got {step!r}")
    return _grid(0.0, 1.0, step)


def filter_search(rho: DensityMatrix, grid_step: float) -> list[FilterPair]:
    """Scan a (eps1, eps2) grid for filters that make ``rho`` useful.

    The grid covers (0, 1]^2 at spacing ``grid_step`` (which must lie in
    (0, 0.5]), in row-major ascending order with eps1 outermost.  Grid
    points whose filters annihilate the state are skipped.  An empty list
    is a valid result.
    """
    values = _step_grid("grid_step", grid_step)[1:]
    found = []
    for e1 in values:
        for e2 in values:
            pair = FilterPair(e1, e2)
            try:
                if modified_protocol_useful(rho, pair):
                    found.append(pair)
            except FilterAnnihilates:
                continue
    return found


def useful_q_start(alpha: float, filter_pair: FilterPair, q_step: float,
                   tol: float = 1e-3) -> float | None:
    """Infimum q above which the filtered gamma state stays useful.

    Walks the q grid (0, q_step, 2 q_step, ..., 1) from the top down to
    find the contiguous useful tail, then bisects the boundary to ``tol``.
    ``q_step`` must lie in (0, 0.5] and ``tol`` in [1e-12, 0.5].  Returns
    None when even q = 1 is not useful.  Annihilating filters count as not
    useful.
    """
    def useful(q: float) -> bool:
        try:
            return modified_protocol_useful(
                make_gamma(GammaParams(q=q, alpha=alpha)), filter_pair)
        except FilterAnnihilates:
            return False

    grid = _step_grid("q_step", q_step)
    tol = _as_real(tol, BadParam, "tol")
    if not 1e-12 <= tol <= 0.5:
        raise BadParam(f"tol must lie in [1e-12, 0.5], got {tol!r}")
    if grid[-1] < 1.0 - 1e-12:
        grid.append(1.0)
    if not useful(grid[-1]):
        return None
    start_idx = len(grid) - 1
    while start_idx > 0 and useful(grid[start_idx - 1]):
        start_idx -= 1
    if start_idx == 0:
        return 0.0
    q_true, q_false = grid[start_idx], grid[start_idx - 1]
    while q_true - q_false > tol:
        mid = 0.5 * (q_true + q_false)
        if useful(mid):
            q_true = mid
        else:
            q_false = mid
    return q_true
