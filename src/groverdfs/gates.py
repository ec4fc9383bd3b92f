"""Constructors for the concrete quantum gates used by the search algorithm.

Hadamard transforms, controlled phase inversions, the marking oracle with
its ancilla, CNOT, Pauli matrices, and the y-conjugated Hadamard variant
used to build in-code logical gates.  Every constructor returns a full
dense matrix with verified structure flags; `walsh_hadamard` applies the
Hadamard transform to a vector without building one.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .statevec import DenseOperator

SQRT2_INV = 1.0 / np.sqrt(2.0)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def hadamard(m: int) -> DenseOperator:
    """m-qubit Hadamard transform, entry (i, j) = 2^(-m/2) (-1)^(i.j).

    The exponent i.j is the bitwise product of the row and column indices
    summed modulo 2 (popcount of i AND j).  Cached: the returned operator
    is immutable and shared.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = 2**m
    idx = np.arange(n)
    parity = (np.bitwise_count(np.bitwise_and.outer(idx, idx)) & 1).astype(np.int64)
    return DenseOperator((1 - 2 * parity) * 2.0 ** (-m / 2.0), frozenset({"unitary", "hermitian"}))


def walsh_hadamard(amps: np.ndarray) -> np.ndarray:
    """Apply the m-qubit Hadamard transform to `amps` in place and return it.

    One butterfly pass per qubit, (a, b) -> (a + b, a - b), then a single
    2^(-m/2) scale: O(m 2^m) work and no matrix.  Equals
    hadamard(m).matrix @ amps for a vector of length 2**m.
    """
    m = amps.shape[0].bit_length() - 1
    if m < 1 or amps.shape[0] != 2**m:
        raise ValueError(f"vector length {amps.shape[0]} is not a power of two >= 2")
    for k in range(m):
        pairs = amps.reshape(-1, 2, 2**k)
        pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]
    amps *= 2.0 ** (-m / 2.0)
    return amps


def phase_inversion(m: int, x: int) -> DenseOperator:
    """Diagonal operator flipping the sign of basis state |x> only."""
    if not 0 <= x < 2**m:
        raise ValueError(f"basis index {x} out of range for {m} qubits")
    diag = np.ones(2**m, dtype=complex)
    diag[x] = -1.0
    return DenseOperator(np.diag(diag), frozenset({"unitary", "hermitian", "diagonal"}))


def oracle(m: int, x0: int) -> DenseOperator:
    """Marking oracle |x, a> -> |x, a XOR [x == x0]> on m+1 qubits.

    The ancilla is appended as the least significant qubit.  The result is
    a permutation matrix (unitary, hermitian, and an involution).
    """
    if not 0 <= x0 < 2**m:
        raise ValueError(f"marked item {x0} out of range for {m} qubits")
    n = 2 ** (m + 1)
    perm = np.arange(n)
    perm[2 * x0] = 2 * x0 + 1
    perm[2 * x0 + 1] = 2 * x0
    mat = np.zeros((n, n), dtype=complex)
    mat[perm, np.arange(n)] = 1.0
    return DenseOperator(mat, frozenset({"unitary", "hermitian"}))


def phase_inversion_via_oracle(m: int, x0: int) -> DenseOperator:
    """Phase inversion of |x0> realized through the oracle and its ancilla.

    The ancilla is prepared in (|0> - |1>)/sqrt(2), the oracle applied, and
    the (unentangled) ancilla projected back out.  The result equals
    phase_inversion(m, x0) entrywise.
    """
    u = oracle(m, x0).matrix.reshape(2**m, 2, 2**m, 2)
    a0 = np.array([SQRT2_INV, -SQRT2_INV], dtype=complex)
    reduced = np.einsum("a,iajb,b->ij", a0.conj(), u, a0)
    return DenseOperator(reduced, frozenset({"unitary", "hermitian", "diagonal"}))


def cnot(m: int, control: int, target: int) -> DenseOperator:
    """Controlled-NOT flipping `target` where `control` is 1 (positions 1..m)."""
    if control == target:
        raise ValueError("control and target must differ")
    for name, pos in (("control", control), ("target", target)):
        if not 1 <= pos <= m:
            raise ValueError(f"{name} position {pos} out of range 1..{m}")
    n = 2**m
    idx = np.arange(n)
    control_bit = (idx >> (m - control)) & 1
    flipped = np.where(control_bit == 1, idx ^ (1 << (m - target)), idx)
    mat = np.zeros((n, n), dtype=complex)
    mat[flipped, idx] = 1.0
    return DenseOperator(mat, frozenset({"unitary", "hermitian"}))


def pauli(axis: str) -> DenseOperator:
    """Single-qubit Pauli matrix for axis 'x', 'y', or 'z'."""
    if axis not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return DenseOperator(_PAULI[axis], frozenset({"unitary", "hermitian"}))


def h_tilde() -> DenseOperator:
    """The 2x2 gate (-i sigma_y) H = [[-1, 1], [1, 1]] / sqrt(2).

    Conjugating the one-qubit Hadamard with -i sigma_y gives the rotation
    used in the two-physical-qubit logical Hadamard construction.
    """
    mat = (-1j * _PAULI["y"]) @ hadamard(1).matrix
    return DenseOperator(mat, frozenset({"unitary"}))
