"""Two-qubit states, Bloch decompositions and correlation spectra.

Conventions used throughout the package:

* Pauli operators are ordered (X, Y, Z), indexed 1..3 in formulas and
  0..2 in code.
* A two-qubit density matrix decomposes as

      rho = 1/4 ( I + a.sigma x I + I x b.sigma + sum_jk w_jk sigma_j x sigma_k )

  where ``a`` and ``b`` are the local Bloch vectors and ``w`` is the real
  3x3 correlation tensor with entries ``w_jk = Tr[rho sigma_j x sigma_k]``.
* Measurement outcomes are bits: outcome 0 projects onto (I + n.sigma)/2
  for measurement direction ``n``, outcome 1 onto (I - n.sigma)/2.

All matrices are handled as ``numpy`` arrays.  Equality of matrices is
always tolerance-based; use :func:`matrices_close` rather than ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirection, InvalidState, NotAState, ValidationError

# Absolute tolerance for matrix equality comparisons.
DEFAULT_TOL = 1e-10

# Tolerance for Hermiticity / trace validation of density matrices.
STATE_TOL = 1e-10

# Eigenvalues of a density matrix may dip this far below zero before the
# matrix is rejected as non-positive.
PSD_FLOOR = -1e-9

# Pauli expectations, Bloch lengths and singular values of an admitted state
# are at most Tr rho + 2|sum of its (at most three) negative eigenvalues|
# <= 1 + BLOCH_TOL, and its outcome probabilities stay above -BLOCH_TOL.
BLOCH_TOL = STATE_TOL + 6 * abs(PSD_FLOOR)

# Measurement directions must be unit length / orthogonal within this.
DIRECTION_TOL = 1e-9

#: sqrt(3), the three-setting scale shared by the steering and error-rate formulas.
SQRT3 = math.sqrt(3.0)

IDENTITY_2 = np.eye(2, dtype=complex)

#: Pauli operators stacked in (X, Y, Z) order, shape (3, 2, 2).
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# The Bloch basis: _PAULI_PRODUCTS[m, n] = s_m x s_n with s = (I, X, Y, Z),
# shape (4, 4, 4, 4).  Read-only; both directions of the Bloch map use it.
_PAULI_PRODUCTS = np.array([[np.kron(sm, sn) for sn in (IDENTITY_2, *PAULIS)]
                            for sm in (IDENTITY_2, *PAULIS)])
_PAULI_PRODUCTS.setflags(write=False)

# Factors taking singular values to the signed spectrum, indexed by det w < 0.
_DET_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality of two complex matrices within absolute ``tol``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol) if a.size else True


def _as_real(value, error: type[ValidationError], name: str) -> float:
    """``float(value)``, refusing bool/numpy.bool_ (float() maps them to 0/1)
    and str/bytes (float() parses them)."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise error(f"{name} must be a number, got {value!r}")
    return float(value)


def _frozen_array(values, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise InvalidState(f"expected array of shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidState("array contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _first_failure(*failed) -> tuple[int, int] | None:
    """(row, check) of the first failed check of the first failing row, or None;
    each flag, in check order, is a boolean array over the rows or False."""
    failing = failed[0]
    for flag in failed[1:]:
        failing = failing | flag
    if not failing.any():
        return None
    row = int(np.argmax(failing))
    return row, next(k for k, f in enumerate(failed) if (f[row] if np.ndim(f) else f))


def validate_stack(mats) -> np.ndarray:
    """The symmetrised, read-only stack after :class:`DensityMatrix`'s checks on each
    (4, 4) matrix; the first failing one raises the error ``DensityMatrix`` would."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise InvalidState(f"expected an (N, 4, 4) stack, got shape {mats.shape}")
    nonfinite = False
    if not np.isfinite(mats).all():
        nonfinite = ~np.isfinite(mats).all(axis=(1, 2))
        mats = np.where(nonfinite[:, None, None], 0.0, mats)
    adjoint = mats.conj().swapaxes(1, 2)
    herm_dev = np.abs(mats - adjoint).max(axis=(1, 2))
    sym = (mats + adjoint) / 2
    trace_dev = np.abs(np.trace(sym, axis1=1, axis2=2) - 1.0)
    lo = np.linalg.eigvalsh(sym)[:, 0]  # eigenvalues come in ascending order
    hit = _first_failure(nonfinite, herm_dev > STATE_TOL, trace_dev > STATE_TOL,
                         lo < PSD_FLOOR)
    if hit is not None:
        i = hit[0]
        raise InvalidState(("matrix contains non-finite entries",
                            f"matrix is not Hermitian (deviation {herm_dev[i]:.3e})",
                            f"trace differs from 1 by {trace_dev[i]:.3e}",
                            f"matrix has negative eigenvalue {lo[i]:.3e}")[hit[1]])
    sym.setflags(write=False)
    return sym


def bloch_tensors(rho: np.ndarray) -> np.ndarray:
    """``t[..., m, n] = Tr[rho s_m x s_n]``, s = (I, X, Y, Z), of a 4x4 state or
    an (N, 4, 4) stack: ``a = t[..., 1:, 0]``, ``b = t[..., 0, 1:]`` and
    ``w = t[..., 1:, 1:]``.  The imaginary residue is discarded."""
    # matmul + trace reproduces the per-product traces bit for bit; einsum does not.
    return np.trace(rho[..., None, None, :, :] @ _PAULI_PRODUCTS, axis1=-2, axis2=-1).real


def tensor_spectra(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:class:`TensorSpectrum`'s ``sigma`` and ``signed`` of (N stacked) 3x3 tensors."""
    sigma = np.linalg.svd(w, compute_uv=False)
    return sigma, sigma * _DET_SIGNS[(np.linalg.det(w) < 0).astype(int)]


def stack_spectra(mats) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) ``sigma`` and ``signed`` of an (N, 4, 4) stack after :func:`validate_stack`.
    Admitted states keep every Bloch component and singular value within
    1 + BLOCH_TOL, and svd and det give ordered, sign-consistent spectra, so
    the checks of ``BlochForm`` and ``TensorSpectrum`` are not repeated."""
    stack = validate_stack(mats)
    t = np.empty((len(stack), 4, 4))
    for i in range(0, len(stack), 32):  # caps the (n, 4, 4, 4, 4) products at 128 KB
        t[i:i + 32] = bloch_tensors(stack[i:i + 32])
    return tensor_spectra(t[:, 1:, 1:])


def sigma_sum(sigma):
    """sigma1 + sigma2 + sigma3, in that order, of three floats or arrays."""
    s1, s2, s3 = sigma
    return s1 + s2 + s3


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 4x4 two-qubit density matrix.

    Construction symmetrises the input and enforces, within tolerance:
    Hermiticity (max deviation 1e-10), unit trace (1e-10) and positive
    semidefiniteness (eigenvalues >= -1e-9).  Violations raise
    :class:`~steerqkd.errors.InvalidState`.  The stored array is marked
    read-only, so instances are safe to share between threads.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise InvalidState(f"expected a 4x4 matrix, got shape {mat.shape}")
        object.__setattr__(self, "matrix", validate_stack(mat[None])[0])

    @classmethod
    def from_ket(cls, ket: np.ndarray) -> "DensityMatrix":
        """Pure state |k><k| from a (not necessarily normalised) 4-vector."""
        k = np.asarray(ket, dtype=complex).reshape(4)
        norm = np.linalg.norm(k)
        if norm < 1e-12:
            raise InvalidState("zero ket cannot define a state")
        k = k / norm
        return cls(np.outer(k, k.conj()))

    def isclose(self, other: "DensityMatrix", tol: float = DEFAULT_TOL) -> bool:
        return matrices_close(self.matrix, other.matrix, tol)


@dataclass(frozen=True)
class BlochForm:
    """Bloch decomposition of a two-qubit state: vectors ``a``, ``b`` and
    the 3x3 correlation tensor ``w``.

    Entries are correlators, so every component must lie in [-1, 1] and the
    local vectors inside the unit ball (all within ``BLOCH_TOL``).  A
    hand-built ``BlochForm`` may still fail to describe a physical state;
    that is only detected by :func:`reconstruct_state`.
    """

    a_vec: np.ndarray
    b_vec: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        a = _frozen_array(self.a_vec, (3,))
        b = _frozen_array(self.b_vec, (3,))
        w = _frozen_array(self.w, (3, 3))
        slack = 1.0 + BLOCH_TOL
        if np.linalg.norm(a) > slack or np.linalg.norm(b) > slack:
            raise InvalidState("local Bloch vector lies outside the unit ball")
        if np.abs(w).max() > slack:
            raise InvalidState("correlation tensor entry outside [-1, 1]")
        object.__setattr__(self, "a_vec", a)
        object.__setattr__(self, "b_vec", b)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class TensorSpectrum:
    """Singular spectrum of a correlation tensor.

    ``sigma`` holds the singular values sorted in descending order.
    ``signed`` is the same triple except that the smallest value carries
    the sign of ``det w``, so that ``prod(signed) = det w`` and rotations
    of either lab frame leave the spectrum unchanged.
    """

    sigma: tuple[float, float, float]
    signed: tuple[float, float, float]

    def __post_init__(self) -> None:
        s = tuple(float(x) for x in self.sigma)
        t = tuple(float(x) for x in self.signed)
        if len(s) != 3 or len(t) != 3:
            raise InvalidState("spectrum must contain exactly three values")
        if not (s[0] >= s[1] >= s[2] >= 0):
            raise InvalidState("singular values must be descending and non-negative")
        if s[0] > 1.0 + BLOCH_TOL:
            raise InvalidState("singular value exceeds 1")
        # written so that NaN fails it
        if not all(abs(abs(t[i]) - s[i]) <= 1e-12 for i in range(3)):
            raise InvalidState("signed triple inconsistent with singular values")
        if t[0] < 0 or t[1] < 0:
            raise InvalidState("only the smallest signed value may be negative")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "signed", t)

    @classmethod
    def from_matrix(cls, w: np.ndarray) -> "TensorSpectrum":
        """Spectrum of an arbitrary real 3x3 correlation tensor."""
        w = np.asarray(w, dtype=float)
        if w.shape != (3, 3):
            raise InvalidState(f"expected 3x3 tensor, got shape {w.shape}")
        sigma, signed = tensor_spectra(w)
        return cls(tuple(sigma.tolist()), tuple(signed.tolist()))

    @classmethod
    def from_diagonal(cls, t1: float, t2: float, t3: float) -> "TensorSpectrum":
        """Spectrum of ``diag(t1, t2, t3)`` for a signed diagonal tensor."""
        return cls.from_matrix(np.diag([float(t1), float(t2), float(t3)]))

    @property
    def sigma_sum(self) -> float:
        return sigma_sum(self.sigma)


@dataclass(frozen=True)
class MeasurementTriad:
    """Three mutually orthogonal unit measurement directions (rows of ``dirs``).

    Each row is a Bloch direction defining one dichotomic measurement; the
    rows therefore describe three mutually unbiased qubit bases.  Unit norm
    and pairwise orthogonality are enforced within 1e-9.
    """

    dirs: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.dirs, dtype=float)
        if d.shape != (3, 3):
            raise InvalidDirection(f"expected 3 direction rows, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InvalidDirection("directions contain non-finite entries")
        gram = d @ d.T
        if np.max(np.abs(np.diag(gram) - 1.0)) > DIRECTION_TOL:
            raise InvalidDirection("directions must be unit vectors")
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > DIRECTION_TOL:
            raise InvalidDirection("directions must be mutually orthogonal")
        d.setflags(write=False)
        object.__setattr__(self, "dirs", d)

    @classmethod
    def axes(cls) -> "MeasurementTriad":
        """The coordinate triad (x, y, z)."""
        return cls(np.eye(3))

    def negated(self) -> "MeasurementTriad":
        return MeasurementTriad(-self.dirs)

    def __iter__(self):
        return iter(self.dirs)


def _unit_direction(n, name: str) -> np.ndarray:
    v = np.asarray(n, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise InvalidDirection(f"{name} contains non-finite entries")
    if abs(np.linalg.norm(v) - 1.0) > DIRECTION_TOL:
        raise InvalidDirection(f"{name} must be a unit vector")
    return v


def bloch_decompose(rho: DensityMatrix) -> BlochForm:
    """Extract the Bloch vectors and correlation tensor of a state.

    Parameters
    ----------
    rho : DensityMatrix
        Validated two-qubit state.

    Returns
    -------
    BlochForm
        ``a_vec[i] = Tr[rho sigma_i x I]``, ``b_vec[j] = Tr[rho I x sigma_j]``
        and ``w[i, j] = Tr[rho sigma_i x sigma_j]``.  All traces are real for
        a Hermitian input; the imaginary residue is discarded.
    """
    t = bloch_tensors(rho.matrix)
    return BlochForm(t[1:, 0], t[0, 1:], t[1:, 1:])


def reconstruct_state(bf: BlochForm) -> DensityMatrix:
    """Rebuild the density matrix described by a Bloch decomposition.

    Raises
    ------
    NotAState
        If the decomposition does not correspond to a positive unit-trace
        matrix, i.e. the ``BlochForm`` is unphysical.
    """
    t = np.block([[1.0, bf.b_vec], [bf.a_vec[:, None], bf.w]])
    mat = np.tensordot(t, _PAULI_PRODUCTS, axes=2) / 4.0
    try:
        return DensityMatrix(mat)
    except InvalidState as exc:
        raise NotAState(f"Bloch form does not describe a state: {exc}") from exc


def tensor_spectrum(bf: BlochForm) -> TensorSpectrum:
    """Singular spectrum of the correlation tensor of ``bf``.

    The spectrum is invariant under independent rotations of either
    party's measurement frame, which makes it the natural carrier for the
    steering, nonlocality and error-rate bounds in this package.
    """
    return TensorSpectrum.from_matrix(bf.w)


def joint_outcome_distribution(bf: BlochForm, alice_dir, bob_dir) -> np.ndarray:
    """Outcome distribution for one dichotomic measurement per party.

    Parameters
    ----------
    bf : BlochForm
        State in Bloch form.
    alice_dir, bob_dir : array_like
        Unit Bloch vectors measured by the two parties.

    Returns
    -------
    numpy.ndarray
        2x2 array ``p[a, b]`` over outcome bits, from the Born rule

            p(a, b) = 1/4 [ 1 + (-1)^a u.a + (-1)^b v.b + (-1)^(a+b) u.W.v ].

        Entries no lower than ``-BLOCH_TOL``, a floor every admitted state
        clears, are clamped at zero and the table is renormalised so it
        sums to exactly 1; a more negative entry raises ``InvalidState``.
    """
    u = _unit_direction(alice_dir, "alice_dir")
    v = _unit_direction(bob_dir, "bob_dir")
    ua = float(u @ bf.a_vec)
    vb = float(v @ bf.b_vec)
    uwv = float(u @ bf.w @ v)
    s = np.array([1.0, -1.0])        # (-1)^bit
    p = 0.25 * (1.0 + s[:, None] * ua + s[None, :] * vb + np.outer(s, s) * uwv)
    if p.min() < -BLOCH_TOL:
        raise InvalidState(f"negative outcome probability {p.min():.3e}")
    total = p.sum()
    if abs(total - 1.0) > DEFAULT_TOL:
        raise InvalidState(f"outcome probabilities sum to {total!r}")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    return p
