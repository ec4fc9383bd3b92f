"""Gate-level Grover search: the elementary step, full runs, and the
closed-form two-level rotation analysis.

The elementary step Q = -I_s H I_x0 H rotates the start state |s> = |0...0>
toward |v> = H|x0> by twice arcsin(eps) per application, where
eps = <s|v> = 2^(-m/2).  A run is H Q^n |s>, and the marked-state amplitude
after j steps is exactly sin((2j+1) arcsin(eps)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import gates
from .statevec import DenseOperator, StateVector, basis_state


class OptimalIterations(NamedTuple):
    """Iteration count bringing the rotation closest to the marked state."""

    exact: float        # pi / (4 arcsin(2^(-m/2))) - 1/2, not an integer in general
    rounded: int        # nearest non-negative integer, ties resolved by success probability
    asymptotic: float   # (pi/4) sqrt(2^m), the large-m form


def success_amplitude(j: int, epsilon: float) -> float:
    """Marked-state amplitude sin((2j+1) theta) after j steps, theta = arcsin(epsilon).

    The small-overlap approximation sin((2j+1) epsilon) is sometimes quoted
    instead; the arcsin form used here matches the gate-level simulation
    exactly at every qubit count (at m = 2 and j = 1 the approximation
    gives 0.997 where the exact amplitude is 1).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"overlap epsilon must lie in (0, 1], got {epsilon}")
    return math.sin((2 * j + 1) * math.asin(epsilon))


def optimal_iterations(m: int) -> OptimalIterations:
    """Evaluate the optimal repetition count for an m-qubit search.

    The exact value pi/(4 arcsin(2^(-m/2))) - 1/2 is rounded to the nearest
    non-negative integer; a tie is resolved toward the candidate with the
    larger success probability (evaluated explicitly).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    epsilon = 2.0 ** (-m / 2.0)
    theta = math.asin(epsilon)
    exact = math.pi / (4.0 * theta) - 0.5
    lo = max(0, math.floor(exact))
    hi = math.ceil(exact)
    candidates = sorted({lo, hi})
    rounded = max(candidates, key=lambda n: success_amplitude(n, epsilon) ** 2)
    asymptotic = (math.pi / 4.0) * 2.0 ** (m / 2.0)
    return OptimalIterations(exact, rounded, asymptotic)


@dataclass(frozen=True)
class GroverInstance:
    """A search problem: m qubits, marked item x0, overlap eps = 2^(-m/2)."""

    m: int
    x0: int
    epsilon: float = field(init=False)
    tau: float = field(default=1.0, init=False)
    n_optimal: int = field(init=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.x0 < 2**self.m:
            raise ValueError(f"marked item {self.x0} out of range for {self.m} qubits")
        object.__setattr__(self, "epsilon", 2.0 ** (-self.m / 2.0))
        object.__setattr__(self, "n_optimal", optimal_iterations(self.m).rounded)

    @property
    def dim(self) -> int:
        return 2**self.m

    def start_state(self) -> StateVector:
        return basis_state(self.m, 0)

    def target_state(self) -> StateVector:
        """|v> = H|x0>, the rotated image of the marked state."""
        amps = np.zeros(self.dim, dtype=np.complex128)
        amps[self.x0] = 1.0
        return StateVector(self.m, gates.walsh_hadamard(amps))


def grover_step(inst: GroverInstance) -> DenseOperator:
    """Dense Q = -I_s H I_x0 H with I_x0 built through the oracle: the reference for apply_step."""
    h = gates.hadamard(inst.m).matrix
    i_x0 = np.diag(gates.phase_inversion_via_oracle(inst.m, inst.x0).matrix)
    i_s = np.ones(inst.dim)
    i_s[0] = -1.0
    q = -(i_s[:, None] * (h @ (i_x0[:, None] * h)))
    return DenseOperator(q, frozenset({"unitary"}))


def apply_step(inst: GroverInstance, amps: np.ndarray) -> np.ndarray:
    """Apply Q = -I_s H I_x0 H to `amps` in place and return it.

    No matrix is built: two Walsh-Hadamard butterflies, the sign flip of
    the marked entry, and -I_s, which negates every entry except |0...0>.
    Equals grover_step(inst).matrix @ amps.
    """
    if amps.shape != (inst.dim,):
        raise ValueError(f"state of shape {amps.shape} does not fit {inst.m} qubits")
    gates.walsh_hadamard(amps)
    amps[inst.x0] *= -1.0
    gates.walsh_hadamard(amps)
    amps[1:] *= -1.0
    return amps


def step_iterates(inst: GroverInstance, n: int) -> Iterator[np.ndarray]:
    """Yield Q^j |s> for j = 0..n.

    The same buffer is updated in place between yields: copy an iterate
    that must outlive the next step.
    """
    if n < 0:
        raise ValueError("iteration count must be >= 0")
    amps = inst.start_state().amplitudes.copy()
    yield amps
    for _ in range(n):
        yield apply_step(inst, amps)


def run_grover(inst: GroverInstance, n: int) -> StateVector:
    """H Q^n |0...0>: n elementary rotations and a final Hadamard."""
    *_, amps = step_iterates(inst, n)
    return StateVector(inst.m, gates.walsh_hadamard(amps))


def success_probability(inst: GroverInstance, n: int) -> float:
    """Gate-level probability of measuring the marked item after n steps."""
    return run_grover(inst, n).probability(inst.x0)


def success_probabilities(inst: GroverInstance, n_max: int) -> np.ndarray:
    """Gate-level success probabilities for every step count 0..n_max.

    The state is stepped with `apply_step` and no matrix is built.  Each
    probability is |<v|Q^j s>|^2, which equals |<x0|H Q^j s>|^2 because the
    Hadamard transform is hermitian.
    """
    v = inst.target_state().amplitudes
    return np.array([abs(np.vdot(v, amps)) ** 2 for amps in step_iterates(inst, n_max)])


def two_level_matrix(inst: GroverInstance) -> tuple[np.ndarray, float]:
    """Action of Q on the (|s>, |v>) pair, plus the worst residual.

    Returns a real 2x2 matrix R with Q|s> = R[0,0]|s> + R[0,1]|v> and
    Q|v> = R[1,0]|s> + R[1,1]|v>.  Because <s|v> = eps is nonzero the
    coefficients are obtained by solving the 2x2 Gram system rather than by
    orthogonal projection.  The residual is the norm of what Q|s> or Q|v>
    leaves outside span{|s>, |v>} (zero up to roundoff: the step preserves
    that plane exactly).
    """
    s = inst.start_state().amplitudes
    v = inst.target_state().amplitudes
    gram = np.array([[1.0, inst.epsilon], [inst.epsilon, 1.0]])
    coeffs = np.empty((2, 2))
    residual = 0.0
    for row, vec in enumerate((s, v)):
        image = apply_step(inst, vec.copy())
        rhs = np.array([np.vdot(s, image).real, np.vdot(v, image).real])
        coeffs[row] = np.linalg.solve(gram, rhs)
        residual = max(residual, float(np.linalg.norm(image - coeffs[row, 0] * s - coeffs[row, 1] * v)))
    return coeffs, residual


def rotation_angle(inst: GroverInstance) -> float:
    """Rotation angle of Q in the plane of |s> and |v>: arcsin(2 eps sqrt(1 - eps^2))."""
    eps = inst.epsilon
    return math.asin(2.0 * eps * math.sqrt(1.0 - eps * eps))
