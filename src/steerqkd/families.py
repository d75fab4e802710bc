"""Parametrized two-qubit state families and their closed-form predicates.

Three families appear throughout the package:

* Bell-diagonal mixtures of the four Bell projectors, weights
  (w1, w2, w3, w4) on (psi-, phi+, phi-, psi+) in that order;
* Werner states omega |psi-><psi-| + (1-omega) I/4;
* the gamma family q |phi><phi| + (1-q) |00><00| with
  |phi> = cos(alpha)|10> + sin(alpha)|01>, alpha in [0, pi/4].

Each generator has a closed-form correlation tensor and closed-form
steerability/usefulness predicates; both are cross-checked against the
generic Bloch pipeline in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import steering
from .errors import BadParam, BadRange
from .qber import usefulness
from .qstate import SQRT3, DensityMatrix, _as_real, stack_spectra

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Bell kets psi-, phi+, phi-, psi+ (the weight order of BellDiagonalParams)
#: in the computational basis (|00>, |01>, |10>, |11>).
BELL_KETS = tuple(np.array(k, dtype=complex) * _INV_SQRT2 for k in (
    [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0]))

_BELL_PROJECTORS = tuple(np.outer(k, k.conj()) for k in BELL_KETS)

_GROUND = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # |00><00|


class FamilyPredicates(NamedTuple):
    steerable: bool
    useful: bool


def _check_domain(params) -> None:
    """Coerce each field of ``params`` to float and check it against DOMAIN."""
    for name, (lo, hi) in params.DOMAIN.items():
        value = _as_real(getattr(params, name), BadParam, name)
        if not math.isfinite(value) or value < lo or value > hi:
            raise BadParam(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
        object.__setattr__(params, name, value)


@dataclass(frozen=True)
class BellDiagonalParams:
    """Mixing weights on (psi-, phi+, phi-, psi+); a probability simplex point.

    Scans range over w1-w3 within DOMAIN and derive w4.
    """

    DOMAIN: ClassVar = {"w1": (0.0, 1.0), "w2": (0.0, 1.0),
                        "w3": (0.0, 1.0), "w4": (0.0, 1.0)}

    w1: float
    w2: float
    w3: float
    w4: float

    def __post_init__(self) -> None:
        ws = steering._validated_weights((self.w1, self.w2, self.w3, self.w4))
        for name, val in zip(("w1", "w2", "w3", "w4"), ws):
            object.__setattr__(self, name, val)

    @property
    def weights(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)

    @staticmethod
    def matrices(w1, w2, w3, w4) -> np.ndarray:
        """(N, 4, 4) stack of :func:`make_bell_diagonal` matrices, unvalidated,
        for weight arrays of length N."""
        ws = (np.asarray(w, dtype=float)[:, None, None] for w in (w1, w2, w3, w4))
        return sum(w * proj for w, proj in zip(ws, _BELL_PROJECTORS))

    @classmethod
    def from_werner(cls, omega: float) -> "BellDiagonalParams":
        """Werner state embedding: w1 = (1+3 omega)/4, the rest (1-omega)/4."""
        omega = WernerParams(omega).omega
        rest = (1.0 - omega) / 4.0
        return cls((1.0 + 3.0 * omega) / 4.0, rest, rest, rest)


@dataclass(frozen=True)
class WernerParams:
    DOMAIN: ClassVar = {"omega": (0.0, 1.0)}

    omega: float

    def __post_init__(self) -> None:
        _check_domain(self)

    @staticmethod
    def matrices(omega) -> np.ndarray:
        """(N, 4, 4) stack of :func:`make_werner` matrices, unvalidated."""
        omega = np.asarray(omega, dtype=float)[:, None, None]
        return omega * _BELL_PROJECTORS[0] + (1.0 - omega) * np.eye(4) / 4.0


@dataclass(frozen=True)
class GammaParams:
    """Parameters (q, alpha) with q in [0, 1] and alpha in [0, pi/4] radians.

    alpha values outside the stated domain are rejected, not wrapped.
    """

    DOMAIN: ClassVar = {"q": (0.0, 1.0), "alpha": (0.0, math.pi / 4.0)}

    q: float
    alpha: float

    def __post_init__(self) -> None:
        _check_domain(self)

    @staticmethod
    def matrices(q, alpha) -> np.ndarray:
        """(N, 4, 4) stack of :func:`make_gamma` matrices, unvalidated."""
        q = np.asarray(q, dtype=float)[:, None, None]
        alpha = np.asarray(alpha, dtype=float)
        phi = np.zeros((alpha.size, 4), dtype=complex)
        phi[:, 1], phi[:, 2] = np.sin(alpha), np.cos(alpha)
        return q * (phi[:, :, None] * phi[:, None, :].conj()) + (1.0 - q) * _GROUND


def make_bell_diagonal(p: BellDiagonalParams) -> DensityMatrix:
    """Convex mixture of the four Bell projectors with weights ``p``.

    The resulting state has vanishing local Bloch vectors and a diagonal
    correlation tensor whose entries (XX, YY, ZZ) are

        (1 - 2(w1+w3), 1 - 2(w1+w2), 1 - 2(w1+w4)).

    As an unordered magnitude multiset this coincides with
    {|1-2(w1+w3)|, |1-2(w2+w3)|, |1-2(w1+w2)|}, the triple used by the
    closed-form predicates; see :func:`belldiag_reference_triple`.
    """
    return DensityMatrix(BellDiagonalParams.matrices(*([w] for w in p.weights))[0])


def make_werner(p: WernerParams) -> DensityMatrix:
    """omega |psi-><psi-| + (1-omega) I/4; correlation tensor -omega I."""
    return DensityMatrix(WernerParams.matrices([p.omega])[0])


def make_gamma(p: GammaParams) -> DensityMatrix:
    """q |phi><phi| + (1-q) |00><00| with |phi> = cos(a)|10> + sin(a)|01>.

    Correlation tensor: diag(q sin 2a, q sin 2a, 1-2q).
    """
    return DensityMatrix(GammaParams.matrices([p.q], [p.alpha])[0])


def werner_correlation_diag(p: WernerParams) -> np.ndarray:
    """Closed-form correlation diagonal (-omega, -omega, -omega)."""
    return np.full(3, -p.omega)


def gamma_correlation_diag(p: GammaParams) -> np.ndarray:
    """Closed-form correlation diagonal (q sin 2a, q sin 2a, 1-2q)."""
    s = p.q * math.sin(2.0 * p.alpha)
    return np.array([s, s, 1.0 - 2.0 * p.q])


def belldiag_reference_triple(p: BellDiagonalParams) -> np.ndarray:
    """Diagonal correlation triple in the family's reference labeling.

    Returns (1-2(w1+w3), 1-2(w2+w3), 1-2(w1+w2)).  The generated state's
    tensor equals this triple up to an axis swap and a sign flip on one
    axis (both are local-frame conventions); the singular values agree
    exactly, which is what every predicate in this package consumes.
    """
    w1, w2, w3, _ = p.weights
    return np.array([
        1.0 - 2.0 * (w1 + w3),
        1.0 - 2.0 * (w2 + w3),
        1.0 - 2.0 * (w1 + w2),
    ])


def gamma_predicates(p: GammaParams) -> FamilyPredicates:
    """Closed-form steerability and usefulness tests for the gamma family.

    steerable iff 2 q^2 sin^2(2a) + (1-2q)^2 > 1;
    useful    iff 2 q sin(2a) + |1-2q| > sqrt(3).
    """
    s2a = math.sin(2.0 * p.alpha)
    steer = 2.0 * p.q ** 2 * s2a ** 2 + (1.0 - 2.0 * p.q) ** 2 > 1.0
    useful = 2.0 * p.q * s2a + abs(1.0 - 2.0 * p.q) > SQRT3
    return FamilyPredicates(steer, useful)


def belldiag_predicates(p: BellDiagonalParams) -> FamilyPredicates:
    """Closed-form steerability and usefulness tests for Bell-diagonal states.

    Steerability delegates to the weight-space form of the steering bound;
    usefulness sums |1-2(w_i+w_j)| over the three index pairs drawn from
    the first three weights and compares against sqrt(3).
    """
    w1, w2, w3, _ = p.weights
    steer = steering.belldiag_f3_steerable(p.weights)
    total = (abs(1.0 - 2.0 * (w1 + w2))
             + abs(1.0 - 2.0 * (w1 + w3))
             + abs(1.0 - 2.0 * (w2 + w3)))
    return FamilyPredicates(steer, total > SQRT3)


# One row per family: params class, maker, and state-file parameter names.
_FAMILY_MAKERS = {
    "werner": (WernerParams, make_werner, tuple(WernerParams.DOMAIN)),
    "gamma": (GammaParams, make_gamma, tuple(GammaParams.DOMAIN)),
    "bell_diagonal": (BellDiagonalParams, make_bell_diagonal,
                      tuple(BellDiagonalParams.DOMAIN)),
}


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi; a 1e-9 slack lets lo:hi:step reach hi."""
    count = int(math.floor((hi - lo) / step + 1e-9))
    return [min(lo + i * step, hi) for i in range(count + 1)]


def scan_rows(family: str, ranges: list[tuple[str, float, float, float]]
              ) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
    """Evaluate the generic pipeline on a grid of ``(name, lo, hi, step)`` ranges.

    Returns the column names and one row per grid point.  Rows follow
    nested-loop order, outermost range first as given.  For bell_diagonal
    scans the fourth weight is derived (w4 = 1 - w1 - w2 - w3) and grid
    points leaving the simplex are skipped.  The grid goes through the
    single-state formulas as one (N, 4, 4) stack (:func:`stack_spectra`).
    A range that is not finite, has a step <= 0, is reversed or leaves the
    family's domain raises :class:`BadRange`.
    """
    if family not in _FAMILY_MAKERS:
        raise BadRange(
            f"unknown family {family!r}; expected one of {sorted(_FAMILY_MAKERS)}")
    params_cls, _, fields = _FAMILY_MAKERS[family]
    bell = family == "bell_diagonal"
    scanned = fields[:-1] if bell else fields
    param_names = [k for k, *_ in ranges]
    if sorted(param_names) != sorted(scanned):
        raise BadRange(
            f"family {family!r} needs exactly one range per parameter "
            f"{sorted(scanned)}, got {param_names}")
    for key, lo, hi, step in ranges:
        text = f"{key}={lo!r}:{hi!r}:{step!r}"
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
            raise BadRange(f"range {text} is not finite")
        if step <= 0.0:
            raise BadRange(f"range {text} must have a positive step")
        if hi < lo:
            raise BadRange(f"range {text} is reversed (hi < lo)")
        dom_lo, dom_hi = params_cls.DOMAIN[key]
        if lo < dom_lo or hi > dom_hi:
            raise BadRange(
                f"range for {key!r} must stay within [{dom_lo:g}, {dom_hi:g}]")

    cols = ("f3_bound", "chsh_bound", "q_min", "steerable", "useful", "chsh_violating")
    header = ((*param_names, "w4", *cols, "absolutely_local") if bell
              else (*param_names, *cols))

    axes = np.ix_(*(_grid(lo, hi, step) for _, lo, hi, step in ranges))
    w4 = 1.0 - sum(axes) if bell else np.zeros([a.size for a in axes])  # 0 keeps every point
    points = np.nonzero(w4 >= -steering.WEIGHT_TOL)  # grid indices in row-major order
    columns = {k: a.ravel()[i] for k, a, i in zip(param_names, axes, points)}
    if bell:
        columns["w4"] = np.maximum(w4[points], 0.0)
        steering.check_weights(np.column_stack([columns[k] for k in fields]))
    sigma, _ = stack_spectra(params_cls.matrices(*(columns[k] for k in fields)))
    f3, steerable, chsh, violating = steering.verdicts(sigma.T)
    q_min, useful, _ = usefulness(sigma.T)
    table = [columns[k] for k in header[:len(fields)]]
    table += [f3, chsh, q_min, steerable, useful, violating]
    if bell:
        table.append(steering.absolute_chsh_values(*(columns[k] for k in fields[:3])) <= 0.5)
    return header, tuple(map(tuple, np.column_stack(table).tolist()))
