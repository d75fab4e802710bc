"""steerqkd: two-qubit steering analysis and steering-based QKD simulation.

The package decides, from a two-qubit state's correlation tensor, whether
the state violates the three-setting linear steering inequality and
whether it supports secure key generation in a three-MUB entanglement
based protocol; it also simulates the protocol, applies local filters,
and generates the associated parameter-region data.
"""

from .errors import (
    BadParam, BadQber, BadRange, BadViolation, BadWeights, DegenerateConfig,
    FilterAnnihilates, InvalidDirection, InvalidState, NotAState,
    NumericalError, ParseError, SteerQkdError, ValidationError)
from .families import (
    BellDiagonalParams, FamilyPredicates, GammaParams, WernerParams,
    belldiag_predicates, gamma_predicates, make_bell_diagonal, make_gamma,
    make_werner)
from .filtering import (
    FilterOutcome, FilterPair, apply_local_filters, filter_search,
    modified_protocol_useful)
from .protocol import (
    ProtocolConfig, RoundRecord, SimulationReport, round_records, run_protocol,
    untrusted_source_demo)
from .qber import (
    CRITICAL_QBER, UsefulnessVerdict, brute_force_qber_min,
    classify_usefulness, critical_qber, min_secure_key_rate, optimal_triads,
    qber_min, qber_min_two_settings, qber_three_settings,
    useful_region_given_violation)
from .qstate import (
    BlochForm, DensityMatrix, MeasurementTriad, TensorSpectrum,
    bloch_decompose, joint_outcome_distribution, matrices_close,
    reconstruct_state, tensor_spectrum)
from .steering import (
    SteeringVerdict, belldiag_absolutely_chsh_local, belldiag_f3_steerable,
    chsh_bound, cjwr_functional, f3_bound, is_chsh_violating, is_f3_steerable,
    verdict)

__version__ = "0.1.0"
