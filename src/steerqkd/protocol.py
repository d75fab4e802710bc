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

Outcomes are sampled by inverse CDF over the four Born probabilities in
lexicographic (a, b) order: (0,0), (0,1), (1,0), (1,1).  Identical inputs
therefore reproduce bit-identical reports.
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
    cdf = np.empty((3, 3, 4))
    for i, u in enumerate(cfg.alice_triad.dirs):
        for j, v in enumerate(cfg.bob_triad.dirs):
            cdf[i, j] = np.cumsum(joint_outcome_distribution(bf, u, v).ravel())
    return cdf


def _draw_rounds(rho: DensityMatrix, cfg: ProtocolConfig):
    """Vectorised draw of all per-round arrays in the documented RNG order."""
    if cfg.filter is not None:
        outcome = apply_local_filters(rho, cfg.filter)
        measured, p_succ = outcome.filtered_state, outcome.p_succ
    else:
        measured, p_succ = rho, None
    cdf = _outcome_cdfs(bloch_decompose(measured), cfg)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.rounds
    a_idx = rng.integers(0, 3, size=n)
    b_idx = rng.integers(0, 3, size=n)
    if p_succ is None:
        kept = np.ones(n, dtype=bool)
    else:
        kept = rng.random(n) < p_succ
    u = rng.random(n)
    thresholds = cdf[a_idx, b_idx]
    k = (u[:, None] >= thresholds[:, :3]).sum(axis=1)
    a_out = (k >> 1).astype(np.uint8)
    b_out = (k & 1).astype(np.uint8)
    return a_idx, b_idx, kept, a_out, b_out, p_succ


def round_records(rho: DensityMatrix, cfg: ProtocolConfig) -> list[RoundRecord]:
    """Materialise every round of a run as records (for diagnostics/tests).

    Uses the same RNG stream as :func:`run_protocol`, so the records are
    exactly the rounds that run aggregates.  Intended for small ``rounds``.
    """
    a_idx, b_idx, kept, a_out, b_out, _ = _draw_rounds(rho, cfg)
    return [
        RoundRecord(
            alice_basis=int(a_idx[i]),
            bob_basis=int(b_idx[i]),
            alice_outcome=int(a_out[i]),
            bob_outcome=int(b_out[i]),
            kept=bool(kept[i]),
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
    a_idx, b_idx, kept, a_out, b_out, p_succ = _draw_rounds(rho, cfg)
    sift_mask = kept & (a_idx == b_idx)
    sift_pos = np.flatnonzero(sift_mask)
    if sift_pos.size == 0:
        raise DegenerateConfig(
            f"{cfg.rounds} rounds produced no sifted rounds to disclose")
    n_disc = math.ceil(cfg.test_fraction * sift_pos.size)
    disclosed = sift_pos[:n_disc]
    key_rounds = sift_pos[n_disc:]

    mismatch = a_out != b_out
    empirical_qber = float(np.mean(mismatch[disclosed]))

    correlators = []
    for basis in range(3):
        sel = sift_mask & (a_idx == basis)
        count = int(sel.sum())
        if count == 0:
            correlators.append(0.0)
            continue
        agree = int((~mismatch[sel]).sum())
        correlators.append((2 * agree - count) / count)

    key_basis = a_idx[key_rounds]
    key_count = tuple(int((key_basis == l).sum()) for l in range(3))
    key_mismatch = tuple(
        int(mismatch[key_rounds[key_basis == l]].sum()) for l in range(3))

    return SimulationReport(
        sifted_count=int(sift_pos.size),
        disclosed_count=int(n_disc),
        empirical_qber=empirical_qber,
        empirical_cjwr=abs(sum(correlators)) / SQRT3,
        correlators=tuple(correlators),
        raw_key_alice=a_out[key_rounds],
        raw_key_bob=b_out[key_rounds],
        key_count_by_basis=key_count,
        key_mismatch_by_basis=key_mismatch,
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
