"""Seeded Monte Carlo simulation of the three-MUB key distribution protocol.

Each round the source emits one copy of the shared state; both parties
pick one of their three triad directions uniformly at random and measure.
Rounds with matching basis indices are sifted.  A deterministic prefix of
the sifted rounds (``test_fraction`` of them, rounded up) is disclosed to
estimate the error rate; every kept matched round, disclosed or not,
feeds the correlator estimates used for the steering check.  The
remaining sifted outcomes form the raw keys.

Randomness contract
-------------------
All draws come from ``numpy.random.default_rng(seed)`` (the PCG64
generator), consumed in this fixed order:

1. ``rounds`` basis indices for Alice (``integers(0, 3)``),
2. ``rounds`` basis indices for Bob,
3. in filtering mode only, ``rounds`` uniforms for filter heralding,
4. ``rounds`` uniforms for outcome sampling.

Basis indices are drawn as int64, the default dtype of ``integers`` and
part of the stream, and stored as ``uint8``, so the stream is unchanged.

Outcomes are sampled by inverse CDF over the four Born probabilities in
lexicographic (a, b) order: (0,0), (0,1), (1,0), (1,1).  Identical inputs
therefore reproduce bit-identical reports.  Outcome uniforms are drawn for
every round, but :func:`run_protocol` looks up outcome bits only for the
sifted rounds, the only ones any statistic reads; :func:`round_records`
looks them up for every round from the same stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import steering
from .errors import BadParam, DegenerateConfig
from .families import BellDiagonalParams, make_bell_diagonal
from .filtering import FilterPair, apply_local_filters
from .qber import UsefulnessVerdict, classify_usefulness
from .qstate import (
    SQRT3,
    BlochForm,
    DensityMatrix,
    MeasurementTriad,
    _as_real,
    bloch_decompose,
    joint_outcome_distribution,
    tensor_spectrum,
)


#: Most rounds one run may draw: numpy cannot index more 8-byte draws.
MAX_ROUNDS = np.iinfo(np.intp).max // 8


def _integer(value) -> int | None:
    """``value`` as a Python int if it has an integral type other than bool."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class ProtocolConfig:
    """Simulation parameters.

    ``test_fraction`` is the fraction of sifted rounds disclosed for
    parameter estimation (strictly between 0 and 1).  ``filter`` switches
    on the modified protocol: each round the local filters are applied
    first and the round is kept only when both succeed.
    """

    rounds: int
    seed: int
    alice_triad: MeasurementTriad
    bob_triad: MeasurementTriad
    test_fraction: float = 0.1
    filter: FilterPair | None = None

    def __post_init__(self) -> None:
        rounds, seed = _integer(self.rounds), _integer(self.seed)
        if rounds is None or rounds < 1:
            raise BadParam(f"rounds must be a positive integer, got {self.rounds!r}")
        if rounds > MAX_ROUNDS:
            raise BadParam(f"rounds {rounds} exceeds the {MAX_ROUNDS} one run can draw")
        if seed is None or not 0 <= seed < 2 ** 64:
            raise BadParam(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "seed", seed)
        tf = _as_real(self.test_fraction, BadParam, "test_fraction")
        if not math.isfinite(tf) or not 0.0 < tf < 1.0:
            raise BadParam(f"test_fraction must lie in (0, 1), got {tf!r}")
        object.__setattr__(self, "test_fraction", tf)


@dataclass(frozen=True)
class RoundRecord:
    """One simulated round; ``sifted`` means the basis indices matched."""

    alice_basis: int
    bob_basis: int
    alice_outcome: int
    bob_outcome: int
    kept: bool
    sifted: bool

    def __post_init__(self) -> None:
        if self.sifted != (self.alice_basis == self.bob_basis):
            raise BadParam("sifted flag contradicts the basis indices")


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated outcome of one protocol run.

    ``correlators[l]`` estimates <A_l x B_l> from all kept rounds where
    both parties chose basis l; ``empirical_cjwr`` is their steering
    functional (1/sqrt(3))|sum correlators|.  ``key_count_by_basis`` and
    ``key_mismatch_by_basis`` break the undisclosed raw key down by basis
    for statistical checks.  ``p_succ_empirical`` is the observed filter
    heralding rate (None without filtering).
    """

    sifted_count: int
    disclosed_count: int
    empirical_qber: float
    empirical_cjwr: float
    correlators: tuple[float, float, float]
    raw_key_alice: np.ndarray
    raw_key_bob: np.ndarray
    key_count_by_basis: tuple[int, int, int]
    key_mismatch_by_basis: tuple[int, int, int]
    p_succ_empirical: float | None


def _outcome_cdfs(bf: BlochForm, cfg: ProtocolConfig) -> np.ndarray:
    """Cumulative Born probabilities for each (alice basis, bob basis) pair."""
    return np.array([[np.cumsum(joint_outcome_distribution(bf, u, v))
                      for v in cfg.bob_triad.dirs] for u in cfg.alice_triad.dirs])


def _measured_state(rho: DensityMatrix, pair: FilterPair | None):
    """The state the rounds measure, ``rho`` after the filters ``pair`` when
    given, and its heralding rate (None without filtering)."""
    if pair is None:
        return rho, None
    outcome = apply_local_filters(rho, pair)
    return outcome.filtered_state, outcome.p_succ


def _draw_rounds(rho: DensityMatrix, cfg: ProtocolConfig):
    """Basis indices, heralding mask and outcome uniforms in the documented
    RNG order, plus the outcome CDF table and the analytic heralding rate.

    The mask is None without filtering: every round is kept.  The CDF table
    has one row per basis pair, row ``a * 3 + b``.
    """
    measured, p_succ = _measured_state(rho, cfg.filter)
    cdf = _outcome_cdfs(bloch_decompose(measured), cfg).reshape(9, 4)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.rounds
    try:
        a_idx = rng.integers(0, 3, size=n).astype(np.uint8)
        b_idx = rng.integers(0, 3, size=n).astype(np.uint8)
        kept = None if p_succ is None else rng.random(n) < p_succ
        u = rng.random(n)
    except MemoryError as exc:
        raise BadParam(f"rounds {n} do not fit in memory") from exc
    return a_idx, b_idx, kept, u, cdf, p_succ


def _outcomes(cdf, a_idx, b_idx, u) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF outcome bits (alice, bob) for rounds with uniforms ``u``.

    ``k``, the index of the joint outcome, counts the first three
    cumulative probabilities of the round's basis pair that ``u`` reaches.
    """
    row = a_idx * 3 + b_idx
    k = np.zeros(u.size, dtype=np.uint8)
    for threshold in cdf[:, :3].T:
        k += u >= threshold[row]
    return k >> 1, k & 1


def round_records(rho: DensityMatrix, cfg: ProtocolConfig) -> list[RoundRecord]:
    """Materialise every round of a run as records (for diagnostics/tests).

    Uses the same RNG stream as :func:`run_protocol`, so the records are
    exactly the rounds that run aggregates.  Intended for small ``rounds``.
    """
    a_idx, b_idx, kept, u, cdf, _ = _draw_rounds(rho, cfg)
    a_out, b_out = _outcomes(cdf, a_idx, b_idx, u)
    return [
        RoundRecord(
            alice_basis=int(a_idx[i]),
            bob_basis=int(b_idx[i]),
            alice_outcome=int(a_out[i]),
            bob_outcome=int(b_out[i]),
            kept=kept is None or bool(kept[i]),
            sifted=bool(a_idx[i] == b_idx[i]),
        )
        for i in range(cfg.rounds)
    ]


def run_protocol(rho: DensityMatrix, cfg: ProtocolConfig) -> SimulationReport:
    """Simulate the protocol and aggregate sifted-key statistics.

    Raises
    ------
    DegenerateConfig
        If no rounds survive sifting (and heralding, when filtering), so
        nothing can be disclosed.
    FilterAnnihilates
        Propagated from the filtering step in filtering mode.
    """
    a_idx, b_idx, kept, u, cdf, p_succ = _draw_rounds(rho, cfg)
    matched = a_idx == b_idx
    if kept is not None:
        matched &= kept
    sift = np.flatnonzero(matched)
    if sift.size == 0:
        raise DegenerateConfig(
            f"{cfg.rounds} rounds produced no sifted rounds to disclose")
    basis = a_idx[sift]
    a_out, b_out = _outcomes(cdf, basis, basis, u[sift])
    mismatch = a_out != b_out
    n_disc = math.ceil(cfg.test_fraction * sift.size)
    count = np.bincount(basis, minlength=3).tolist()
    wrong = np.bincount(basis[mismatch], minlength=3).tolist()
    correlators = tuple((c - 2 * w) / c if c else 0.0 for c, w in zip(count, wrong))
    key_basis = basis[n_disc:]
    return SimulationReport(
        sifted_count=int(sift.size),
        disclosed_count=int(n_disc),
        empirical_qber=float(np.mean(mismatch[:n_disc])),
        empirical_cjwr=abs(sum(correlators)) / SQRT3,
        correlators=correlators,
        raw_key_alice=a_out[n_disc:],
        raw_key_bob=b_out[n_disc:],
        key_count_by_basis=tuple(np.bincount(key_basis, minlength=3).tolist()),
        key_mismatch_by_basis=tuple(
            np.bincount(key_basis[mismatch[n_disc:]], minlength=3).tolist()),
        p_succ_empirical=None if p_succ is None else float(kept.mean()),
    )


def untrusted_source_demo(
        w: BellDiagonalParams, cfg: ProtocolConfig,
) -> tuple[steering.SteeringVerdict, UsefulnessVerdict, bool, SimulationReport]:
    """Analytics plus a simulation for a Bell-diagonal source.

    Models a source outside the parties' control that distributes the
    Bell-diagonal state with weights ``w``.  Returns the steering verdict,
    the usefulness verdict, whether the state is CHSH local under every
    global unitary, and the simulation report.  States with the last flag
    true and usefulness true demonstrate key generation from a state no
    unitary can make CHSH violating.
    """
    state = make_bell_diagonal(w)
    spec = tensor_spectrum(bloch_decompose(state))
    return (
        steering.verdict(spec),
        classify_usefulness(spec),
        steering.belldiag_absolutely_chsh_local(w.weights),
        run_protocol(state, cfg),
    )
