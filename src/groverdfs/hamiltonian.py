"""Effective two-level Hamiltonian picture of the search dynamics.

The n-step gate sequence is reproduced (up to a small, quantified error) by
continuous evolution under the rank-2 generator

    H_G = 2 i eps (|v><s| - |s><v|),   eps = <s|v> = 2^(-m/2),

whose Rabi frequency is 2 eps / tau.  Coherent errors enter as a diagonal
detuning term H_d = sum_i omega_i sigma_z^(i).  Everything is expressed in
units of hbar/tau with hbar = tau = 1.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .grover import GroverInstance, step_iterates
from .statevec import DenseOperator

DEFAULT_GRID_POINTS = 400


@dataclass(frozen=True)
class DetuningProfile:
    """Per-qubit detunings, stored in units of the reference scale <s|v>/tau.

    The scale defaults to 2^(-m/2) for m = len(omegas), the overlap of the
    m-qubit system the profile is applied to; absolute() returns the
    detunings multiplied out.
    """

    omegas: tuple
    scale: float | None = None

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if not omegas:
            raise ValueError("a detuning profile needs at least one qubit")
        if not all(map(math.isfinite, omegas)):
            raise ValueError(f"detunings must be finite numbers, got {list(omegas)}")
        scale = self.scale
        if scale is None:
            scale = 2.0 ** (-len(omegas) / 2.0)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "scale", float(scale))

    @classmethod
    def zeros(cls, m: int) -> "DetuningProfile":
        return cls((0.0,) * m)

    @classmethod
    def equal(cls, m: int, omega: float) -> "DetuningProfile":
        return cls((float(omega),) * m)

    @property
    def num_qubits(self) -> int:
        return len(self.omegas)

    def absolute(self) -> np.ndarray:
        return np.asarray(self.omegas) * self.scale


@dataclass(frozen=True)
class GroverHamiltonian:
    """The effective generator for a search instance, with its Rabi frequency."""

    m: int
    x0: int
    operator: DenseOperator
    rabi_frequency: float


def grover_hamiltonian(inst: GroverInstance) -> GroverHamiltonian:
    """Build H_G = 2 i eps (|v><s| - |s><v|) for a search instance.

    The operator is hermitian and rank 2; its nonzero eigenvalues are
    +/- 2 eps sqrt(1 - eps^2).
    """
    v = inst.target_state().amplitudes.real
    s = np.zeros(inst.dim)
    s[0] = 1.0
    mat = 2j * inst.epsilon * (np.outer(v, s) - np.outer(s, v))
    op = DenseOperator(mat, frozenset({"hermitian"}))
    return GroverHamiltonian(inst.m, inst.x0, op, 2.0 * inst.epsilon / inst.tau)


def detuning_diagonal(profile: DetuningProfile, m: int) -> np.ndarray:
    """Diagonal of H_d: entry x is sum_i omega_i (+1 if bit i of x is 0 else -1)."""
    if profile.num_qubits != m:
        raise ValueError(f"profile has {profile.num_qubits} detunings, expected {m}")
    omegas = profile.absolute()
    idx = np.arange(2**m)
    diag = np.zeros(2**m)
    for i in range(1, m + 1):
        bit = (idx >> (m - i)) & 1
        diag += omegas[i - 1] * (1 - 2 * bit)
    return diag


def detuning_hamiltonian(profile: DetuningProfile, m: int) -> DenseOperator:
    """H_d = sum_i omega_i sigma_z^(i) as a diagonal operator on m qubits."""
    return DenseOperator(np.diag(detuning_diagonal(profile, m).astype(complex)),
                         frozenset({"hermitian", "diagonal"}))


def coupled_success_series(coupling: float, v: np.ndarray, anchor: int,
                           diag: np.ndarray, times) -> np.ndarray:
    """P(t) = |<v| exp(-i H t) |anchor>|^2 on a time grid, where

        H = coupling * i (|v><anchor| - |anchor><v|) + diag(d)

    with real v and d of length 2^m.  Via the phase i on every axis except
    the anchor, H is a real symmetric arrowhead: diag(d) plus the row and
    column -coupling * v at the anchor.  It is deflated exactly before it
    is built: basis states other than the anchor with v_j = 0 are
    decoupled and dropped, and those sharing a detuning d_j merge into one
    pole coupled with weight sqrt(sum v_j^2), because within such a group
    only the direction of v couples to the anchor.  One eigendecomposition
    of the remaining (K+1) x (K+1) arrowhead gives the amplitude
    sum_k u_ak (u_ak v_a - i w.u_k) exp(-i lambda_k t), with w the pole
    weights, propagated in real arithmetic.  Raises ValueError if the
    arrowhead and the time tables would not fit in physical memory.
    """
    v = np.asarray(v, dtype=float)
    d = np.asarray(diag, dtype=float)
    ts = np.asarray(times, dtype=float)
    rest = np.flatnonzero(v)
    rest = rest[rest != anchor]
    poles, group = np.unique(d[rest], return_inverse=True)
    weights = np.sqrt(np.bincount(group, weights=v[rest] ** 2, minlength=poles.size))
    k = poles.size + 1
    # the arrowhead and its eigenvectors, then the cos and sin tables over the grid
    need = 8 * (2 * k * k + 2 * ts.size * k)
    available = physical_memory()
    if available is not None and need > available:
        raise ValueError(
            f"the detuned series on {v.size.bit_length() - 1} qubits needs {need} bytes "
            f"({k}-level arrowhead, {ts.size} time points), more than the {available} "
            "bytes of physical memory")
    h = np.diag(np.concatenate(([d[anchor]], poles)))
    h[0, 1:] = h[1:, 0] = -coupling * weights
    lam, u = np.linalg.eigh(h)
    ua = u[0]
    coef_re = ua * ua * v[anchor]
    coef_im = -ua * (weights @ u[1:])
    phase = np.outer(ts, lam)
    sin = np.sin(phase)
    cos = np.cos(phase, out=phase)
    re = cos @ coef_re + sin @ coef_im
    im = cos @ coef_im - sin @ coef_re
    return re * re + im * im


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report it."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def time_grid(t_max: float, points: int) -> np.ndarray:
    """`points` evenly spaced times over [0, t_max]; every time-grid builder goes through here."""
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(
            f"the time window end t_max (--t-max) must be finite and >= 0, got {t_max}")
    if points < 1:
        raise ValueError(f"grid points must be >= 1, got {points}")
    return np.linspace(0.0, t_max, points)


def default_time_grid(inst: GroverInstance, points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Default grid: `points` samples over [0, 4 n_optimal tau]."""
    return time_grid(4.0 * inst.n_optimal * inst.tau, points)


def evolve_with_errors(inst: GroverInstance, profile: DetuningProfile,
                       t_grid=None) -> np.ndarray:
    """Success probability under H_G + H_d on a time grid.

    Evolves |s> = |0...0> under the single combined hermitian matrix and
    reports P(t) = |<v|psi(t)>|^2 with |v> = H|x0> (the final-Hadamard
    convention: projecting the rotated frame on |v> equals applying the
    closing Hadamard and projecting on |x0>).  Returns an array of
    (t, probability) rows.
    """
    if t_grid is None:
        t_grid = default_time_grid(inst)
    ts = np.asarray(t_grid, dtype=float)
    if ts.size and (np.any(ts < 0) or np.any(np.diff(ts) < 0)):
        raise ValueError("time grid must be non-negative and ascending")
    v = inst.target_state().amplitudes.real
    d = detuning_diagonal(profile, inst.m)
    p = coupled_success_series(2.0 * inst.epsilon, v, 0, d, ts)
    return np.column_stack([ts, p])


def trotter_error(inst: GroverInstance, n: int) -> float:
    """2-norm gap between the n-step gate sequence and exp(-i H_G n tau) on |s>.

    The gate side steps |s> n times without a matrix.  The Hamiltonian side
    is exact in closed form: in the orthonormal plane of |s> and
    |w> = (|v> - eps|s>)/sqrt(1 - eps^2), H_G acts as omega sigma_y with
    omega = 2 eps sqrt(1 - eps^2), so exp(-i H_G t)|s> = cos(omega t)|s> + sin(omega t)|w>.
    """
    *_, psi_gate = step_iterates(inst, n)
    eps = inst.epsilon
    c = math.sqrt(1.0 - eps * eps)
    s = inst.start_state().amplitudes.real
    w = (inst.target_state().amplitudes.real - eps * s) / c
    angle = 2.0 * eps * c * n * inst.tau
    psi_ham = math.cos(angle) * s + math.sin(angle) * w
    return float(np.linalg.norm(psi_gate - psi_ham))
