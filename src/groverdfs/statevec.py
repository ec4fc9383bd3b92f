"""Dense complex state vectors and operators on m-qubit Hilbert spaces.

Conventions used throughout the package:

* qubit 1 is the most significant bit of a basis index, so for four qubits
  the state |0011> has index 3 and qubit 4 is the least significant bit;
* hbar = 1 and the elementary step time tau = 1, so Hamiltonians are
  dimensionless (units of hbar/tau) and times count elementary steps;
* states and operators are stored dense and immutable; only the gates and
  the reference paths build 2^m x 2^m matrices (the scenarios reach m = 16).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-10
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12

_KNOWN_FLAGS = frozenset({"unitary", "hermitian", "diagonal"})


def _readonly_complex(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of `num_qubits` qubits.

    The amplitude array has length 2**num_qubits and unit 2-norm within
    NORM_TOL; both are checked at construction.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        amps = _readonly_complex(self.amplitudes, (2**self.num_qubits,))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def probability(self, x: int) -> float:
        """Probability of measuring the computational basis state |x>."""
        return float(abs(self.amplitudes[x]) ** 2)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix on a 2**m-dimensional space with structure flags.

    Declared flags ("unitary", "hermitian", "diagonal") are verified
    numerically at construction, so a flagged operator can be trusted
    downstream.
    """

    matrix: np.ndarray
    flags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 1 or dim & (dim - 1):
            raise ValueError(f"operator dimension {dim} is not a power of two")
        flags = frozenset(self.flags) if not isinstance(self.flags, frozenset) else self.flags
        unknown = flags - _KNOWN_FLAGS
        if unknown:
            raise ValueError(f"unknown operator flags: {sorted(unknown)}")
        if "unitary" in flags:
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
            if dev > UNITARY_TOL:
                raise ValueError(f"operator flagged unitary deviates from U^dag U = 1 by {dev:g}")
        if "hermitian" in flags:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > HERMITIAN_TOL:
                raise ValueError(f"operator flagged hermitian deviates from A = A^dag by {dev:g}")
        if "diagonal" in flags:
            if np.any(mat - np.diag(np.diag(mat))):
                raise ValueError("operator flagged diagonal has nonzero off-diagonal entries")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "flags", flags)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def is_flagged(self, flag: str) -> bool:
        return flag in self.flags


def basis_state(m: int, x: int) -> StateVector:
    """Computational basis state |x> of m qubits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= x < 2**m:
        raise ValueError(f"basis index {x} out of range for {m} qubits")
    amps = np.zeros(2**m, dtype=np.complex128)
    amps[x] = 1.0
    return StateVector(m, amps)


def embed_single_qubit(op2: DenseOperator, m: int, i: int) -> DenseOperator:
    """Lift a one-qubit operator to qubit i of an m-qubit register.

    Returns 1 x ... x op2 x ... x 1 with op2 acting at position i
    (position 1 = most significant bit).  Structure flags carry over.
    """
    if op2.dim != 2:
        raise ValueError("op2 must be a one-qubit (2x2) operator")
    if not 1 <= i <= m:
        raise ValueError(f"qubit position {i} out of range 1..{m}")
    left = np.eye(2 ** (i - 1))
    right = np.eye(2 ** (m - i))
    return DenseOperator(np.kron(left, np.kron(op2.matrix, right)), op2.flags)


@lru_cache(maxsize=2)
def grid_factors(raw: bytes) -> tuple:
    """((coarse, step), (fine, step)) of the float64 grid with bytes `raw`: for
    a uniform grid t_j = j dt every B-th point and the first B, B =
    ceil(sqrt(T)), so t_{aB+b} = coarse_a + fine_b; any other grid whole, with
    fine = [0].  Each table comes with its spacing, t_1 - t_0, or None where it
    has none: a table of one time, or one from a grid that is not uniform.
    Memoized for the last two grids (fig7's two windows); read-only arrays."""
    ts = np.frombuffer(raw)
    # np.linspace sets its last point to the end of the window, up to an ulp
    # off (n - 1) dt; every other point is j dt exactly
    if ts.size > 1 and np.all(np.abs(ts - np.arange(ts.size) * ts[1])
                              <= 4 * np.finfo(float).eps * abs(ts[-1])):
        step = math.isqrt(ts.size - 1) + 1
        coarse_step = ts[step] - ts[0] if step < ts.size else None
        return (ts[::step], coarse_step), (ts[:step], ts[1] - ts[0])
    return (ts, None), (np.frombuffer(bytes(8)), None)


def evolve_grid(H: DenseOperator, times, psi0: StateVector) -> np.ndarray:
    """States exp(-i H t) psi0 for every t in `times`, as a (T, dim) array.

    H must be hermitian (units of hbar/tau).  Only the block of H that psi0
    reaches is diagonalized: starting from the support of psi0 (layer 0),
    the reachable set grows through the nonzero entries of H a layer at a
    time until it stops changing, and every amplitude outside it stays
    exactly 0 for all t.  The diagonal gauge i^layer makes a block real when
    its couplings are real within layers and imaginary between them, as in
    every search generator H_G + H_d; such a block is solved and propagated
    in real arithmetic, any other one as it is.  The block's
    eigendecomposition is computed once and reused across the whole grid,
    which is exact at the matrix sizes used here; the phase table is the
    product of the two small tables of `grid_factors`.
    """
    dev = np.max(np.abs(H.matrix - H.matrix.conj().T))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"evolution requires a hermitian operator (deviation {dev:g})")
    if H.dim != psi0.dim:
        raise ValueError(f"operator dimension {H.dim} does not match state dimension {psi0.dim}")
    ts = np.asarray(times, dtype=float)
    # both triangles: eigh reads one, and H is hermitian only to HERMITIAN_TOL
    coupled = (H.matrix != 0) | (H.matrix.T != 0)
    layer = np.where(psi0.amplitudes != 0, 0, -1)
    while (grown := (layer < 0) & coupled[:, layer >= 0].any(axis=1)).any():
        layer[grown] = layer.max() + 1
    block = np.flatnonzero(layer >= 0)
    h, psi = H.matrix[np.ix_(block, block)], psi0.amplitudes[block]
    gauge = np.array([1, 1j, -1, -1j])[layer[block] % 4]
    gauged = gauge.conj()[:, None] * h * gauge
    real = not np.any(gauged.imag)
    w, u = np.linalg.eigh(gauged.real if real else h)
    (coarse, _), (fine, _) = grid_factors(ts.tobytes())
    phases = (np.exp(-1j * np.multiply.outer(coarse, w))[:, None]
              * np.exp(-1j * np.multiply.outer(fine, w))).reshape(-1, w.size)[:ts.size]
    if real:
        phases *= u.T @ (gauge.conj() * psi)
        local = np.empty(phases.shape, dtype=np.complex128)
        local.real, local.imag = phases.real @ u.T, phases.imag @ u.T
        local *= gauge
    else:
        local = (phases * (u.conj().T @ psi)) @ u.T
    if block.size == H.dim:
        return local
    states = np.zeros((ts.size, H.dim), dtype=np.complex128)
    states[:, block] = local
    return states
