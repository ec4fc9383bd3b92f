"""Error-avoiding codes built from balanced-weight computational basis states.

All m-bit strings with exactly m/2 ones are eigenstates of the collective
detuning operator sum_i sigma_z^(i) with eigenvalue zero, so any state
encoded in their span is untouched by equal detunings of all qubits.  This
module enumerates those codes, builds the encoding isometry, verifies the
error-free-subspace condition E|psi> = c|psi|>, constructs the
two-physical-qubit logical Hadamard with its leakage check, and compares
the code size against the quantum Hamming bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import gates
from .statevec import DenseOperator, StateVector, embed_single_qubit

CERTIFICATE_TOL = 1e-10


@dataclass(frozen=True)
class BalancedCode:
    """Balanced-weight code on m physical qubits (m even, weight q = m/2).

    basis_states lists every m-bit index with exactly q one-bits, in
    ascending order; the isometry maps 2^l logical amplitudes onto the
    first 2^l of them, where l = floor(log2 of the subspace dimension).
    """

    m: int
    q: int
    basis_states: tuple
    dimension: int
    logical_qubits: int

    @property
    def code_indices(self) -> tuple:
        """Physical basis indices actually used by the 2^l logical states."""
        return self.basis_states[: 2**self.logical_qubits]

    @cached_property
    def isometry(self) -> np.ndarray:
        """The dense, read-only 2^m x 2^l encoding matrix, built on first use."""
        cols = 2**self.logical_qubits
        iso = np.zeros((2**self.m, cols), dtype=np.complex128)
        iso[np.array(self.code_indices), np.arange(cols)] = 1.0
        iso.flags.writeable = False
        return iso


def code_dimension(m: int, q: int) -> int:
    """Number of m-bit strings with exactly q ones (exact integer binomial)."""
    if not 0 <= q <= m:
        raise ValueError(f"weight {q} out of range 0..{m}")
    return math.comb(m, q)


@lru_cache(maxsize=None)
def balanced_code(m: int) -> BalancedCode:
    """Enumerate the weight-m/2 code for an even number of physical qubits.

    Cached: the returned code is immutable and shared; its dense isometry
    is built only when first read.
    """
    if m < 2 or m % 2:
        raise ValueError(f"balanced codes need an even qubit count >= 2, got {m}")
    q = m // 2
    states = tuple(x for x in range(2**m) if x.bit_count() == q)
    dim = code_dimension(m, q)
    l = int(math.floor(math.log2(dim)))
    return BalancedCode(m, q, states, dim, l)


class LogicalQubitCount(NamedTuple):
    exact: float        # log2 of the balanced-subspace dimension
    floor: int          # usable logical qubits
    asymptotic: float   # m - (log2 m)/2 + log2 sqrt(2/pi), the large-m form


def logical_qubit_count(m: int) -> LogicalQubitCount:
    """Logical qubits encodable in the balanced subspace of m physical qubits."""
    if m < 2 or m % 2:
        raise ValueError(f"even qubit count >= 2 required, got {m}")
    exact = math.log2(code_dimension(m, m // 2))
    asymptotic = m - math.log2(m) / 2.0 + math.log2(math.sqrt(2.0 / math.pi))
    return LogicalQubitCount(exact, int(math.floor(exact)), asymptotic)


def hamming_bound_logical(m: int, t: int = 1) -> float:
    """Largest real l with 2^l sum_{r<=t} 3^r C(m,r) <= 2^m.

    For t = 1 this reduces to m - log2(3m + 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    volume = sum(3**r * math.comb(m, r) for r in range(t + 1))
    return m - math.log2(volume)


class RedundancyGap(NamedTuple):
    gap: float          # exact logical count minus the t=1 Hamming-bound count
    asymptotic: float   # (1/2) log2 m + log2(3 sqrt(2)/sqrt(pi)), the large-m form


def redundancy_gap(m: int) -> RedundancyGap:
    """Logical-qubit advantage of the balanced code over a bound-saturating code."""
    gap = logical_qubit_count(m).exact - hamming_bound_logical(m, 1)
    asymptotic = 0.5 * math.log2(m) + math.log2(3.0 * math.sqrt(2.0) / math.sqrt(math.pi))
    return RedundancyGap(gap, asymptotic)


@dataclass(frozen=True)
class ErrorFreeCertificate:
    """Outcome of checking E V = c V over all code words.

    The eigenvalue is the Rayleigh quotient of the first code word; the
    residual is the largest entry of E V - c V.  An invalid certificate is
    a result, not an error.
    """

    code: BalancedCode
    error_operator: DenseOperator
    eigenvalue: complex
    residual_norm: float
    tolerance: float = CERTIFICATE_TOL

    @property
    def is_valid(self) -> bool:
        return self.residual_norm <= self.tolerance


def verify_error_free(code: BalancedCode, error_op: DenseOperator) -> ErrorFreeCertificate:
    """Check whether every code word is an eigenstate of error_op with a common eigenvalue."""
    if error_op.dim != 2**code.m:
        raise ValueError(f"operator dimension {error_op.dim} does not match {code.m} qubits")
    v = code.isometry
    first = v[:, 0]
    c = complex(first.conj() @ error_op.matrix @ first)
    residual = float(np.max(np.abs(error_op.matrix @ v - c * v)))
    return ErrorFreeCertificate(code, error_op, c, residual)


def collective_z(m: int, omega: float = 1.0) -> DenseOperator:
    """Equal-detuning error operator omega * sum_i sigma_z^(i).

    The diagonal is omega * (m - 2 popcount(x)): the sign sum is taken in
    integer arithmetic, so balanced states map to exactly zero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    idx = np.arange(2**m)
    counts = np.bitwise_count(idx).astype(np.int64)
    return DenseOperator(np.diag(omega * (m - 2 * counts).astype(complex)),
                         frozenset({"hermitian", "diagonal"}))


def logical_hadamard_2phys() -> DenseOperator:
    """Hadamard on the two-qubit code {|01>, |10>} that never mixes it with its complement.

    Built as CNOT_21 (1 x h_tilde) CNOT_21, where CNOT_21 targets qubit 1
    with qubit 2 as control.  The product maps |01> -> (|01>+|10>)/sqrt(2)
    and |10> -> (|01>-|10>)/sqrt(2) and its code/complement off-diagonal
    blocks vanish identically, while the middle factor alone does mix the
    two subspaces.
    """
    c21 = gates.cnot(2, control=2, target=1).matrix
    middle = embed_single_qubit(gates.h_tilde(), 2, 2).matrix
    return DenseOperator(c21 @ middle @ c21, frozenset({"unitary"}))


def code_mixing_norm(op: DenseOperator, code: BalancedCode) -> float:
    """Largest off-diagonal block entry between the code span and its complement.

    Uses the full balanced span (all basis_states, not only the 2^l encoded
    ones), matching the subspace the no-mixing requirement refers to.
    """
    if op.dim != 2**code.m:
        raise ValueError(f"operator dimension {op.dim} does not match {code.m} qubits")
    inside = np.zeros(op.dim, dtype=bool)
    inside[list(code.basis_states)] = True
    upper = op.matrix[inside][:, ~inside]
    lower = op.matrix[~inside][:, inside]
    return float(max(np.max(np.abs(upper), initial=0.0), np.max(np.abs(lower), initial=0.0)))


def encode(code: BalancedCode, psi_logical: StateVector) -> StateVector:
    """Lift a logical state into the physical balanced subspace."""
    if psi_logical.num_qubits != code.logical_qubits:
        raise ValueError(
            f"logical state has {psi_logical.num_qubits} qubits, code encodes {code.logical_qubits}"
        )
    return StateVector(code.m, code.isometry @ psi_logical.amplitudes)
