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
from .statevec import DenseOperator, grid_factors

DEFAULT_GRID_POINTS = 400


def require_finite_detunings(profiles) -> None:
    """Raise ValueError naming the first profile that holds a non-finite
    detuning; `profiles` is one profile's detunings or an array with a
    profile per row."""
    rows = np.atleast_2d(np.asarray(profiles, dtype=float))
    if not (finite := np.isfinite(rows).all(axis=1)).all():
        raise ValueError(f"detunings must be finite numbers, got {rows[~finite][0].tolist()}")


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
        require_finite_detunings(omegas)
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


def sign_columns(m: int, indices: np.ndarray) -> np.ndarray:
    """int8 table of s_i(x) = +1 if bit i of x is 0 else -1, a row per qubit
    (qubit 1 the most significant bit) and a column per index x.  Raises
    ValueError, before allocating, if the table and the int64 row it is
    computed in would not fit in physical memory."""
    _refuse_beyond_memory((m + 8) * indices.size, "the detuned series on {0} qubits",
                          m, indices.size, detail=" for its sign table of {1} states (--m)")
    signs = np.empty((m, indices.size), dtype=np.int8)
    for i, row in enumerate(signs, start=1):
        row[:] = 1 - 2 * ((indices >> (m - i)) & 1)
    return signs


def signed_detunings(omegas: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sum_i omega_i s_i(x) for the absolute detunings omega_i (a profile's
    absolute()) and each column x of a sign table, summed from zeros a qubit
    at a time: one reduction over the rows, which adds them in order.  Each
    omega_i s_i is exact, so an entry rounds alike on any support; a
    sign-table matrix product would round differently."""
    if len(omegas) != len(signs):
        raise ValueError(f"profile has {len(omegas)} detunings, expected {len(signs)}")
    return np.add.reduce(omegas[:, None] * signs, axis=0)


def detuning_diagonal(profile: DetuningProfile, m: int) -> np.ndarray:
    """Diagonal of H_d on all 2^m basis states, the dense reference's input."""
    return signed_detunings(profile.absolute(), sign_columns(m, np.arange(2**m)))


def detuning_hamiltonian(profile: DetuningProfile, m: int) -> DenseOperator:
    """H_d = sum_i omega_i sigma_z^(i) as a diagonal operator on m qubits."""
    return DenseOperator(np.diag(detuning_diagonal(profile, m).astype(complex)),
                         frozenset({"hermitian", "diagonal"}))


# The contour runs while N < 2K.  Eigenvalue path against contour, in ms on
# one BLAS thread, with the contour on its mirrored half: K = 7, N = 158
# (fig4) 0.11 against 0.25; K = 64, N = 89 and K = 256, N = 151 (fig6) 0.33
# against 0.19 and 4.3 against 0.50; K = 7, N = 1.9e5 (fig4 to t = 1e4) 0.13
# against 170.  At K = 64 the two now cost the same near N = 4K (2K before
# the mirror); at K = 256 the contour stays cheaper beyond N = 5K.  The
# ratio stays 2: no default scenario's problem lies between 2K and 4K nodes.
_NODES_PER_LEVEL = 2

# Fewest contour nodes.  When the spectrum is narrow against b, rho is large
# and the ellipse is nearly a circle of radius b about the spectrum; the rule
# then misses only the Taylor terms of exp(-i z t) of order N and beyond,
# about (b t)^N / N! <= 2^N / N!, which falls below 1e-15 from N = 23.  The
# floor adds the same margin of 8 nodes as the general count.
_MIN_NODES = 31


def coupled_success_series(coupling: float, v: np.ndarray, anchor: int,
                           diag: np.ndarray, times, *, qubits: int | None = None) -> np.ndarray:
    """P(t) = |<v| exp(-i H t) |anchor>|^2 on a time grid, where

        H = coupling * i (|v><anchor| - |anchor><v|) + diag(d)

    with real d and v (or one v for every state) on all 2^m basis states or
    on a support holding the anchor and every v_j != 0; a refusal names
    `qubits` or log2 len(d).  Via the phase i on every axis except the
    anchor, H is a real symmetric arrowhead: diag(d) plus the row and column
    -coupling * v at the anchor.  It is deflated exactly before it is built:
    basis states other than the anchor with v_j = 0 are decoupled and
    dropped, and those sharing a detuning d_j merge into one pole p_J coupled
    with weight w_J = sqrt(sum v_j^2), because within such a group only the
    direction of v couples to the anchor.  K levels remain.  Sorting d (stably
    for a per-state v) lets bincount sum each group's v_j^2 in index order.

    The amplitude is sum_j weight_j exp(-i node_j t) for one of two
    (nodes, weights) pairs.  By the Schur complement of the anchor it is
    (1/2 pi i) times the contour integral of exp(-i z t) G(z) around the
    spectrum, G(z) = (v_a + i coupling S(z)) / (z - d_a - coupling^2 S(z))
    with S(z) = sum_J w_J^2 / (z - p_J).  The contour path takes the
    trapezoid rule at N midpoints of a Bernstein ellipse, with nodes z_j and
    weights G(z_j) z'(theta_j) / (i N).  Its foci, min(p, d_a) - 1.02 |coupling|
    and max(p, d_a) + 1.02 |coupling|, enclose the spectrum by Weyl's bound;
    its semi-minor axis b = 2 / t_max (the focal half-width when t_max = 0)
    keeps exp(-i z t) below e^2.  The rule converges like rho^-N in the
    ellipse parameter rho, so N = ceil(ln 1e15 / ln rho) + 8, at least
    _MIN_NODES.  The midpoints theta_j and 2 pi - theta_j give conjugate
    nodes, and S(conj z) = conj S(z) since the poles and weights are real,
    so S is summed on the ceil(N/2) nodes of the upper half, in real
    arithmetic, and mirrored (for odd N the middle node, at theta = pi, is
    real).  Where N >= 2K the eigenvalue path runs instead: the arrowhead's
    eigenvalues (couplings z_J = -coupling * w_J), polished by one Newton
    step on its secular equation

        f(lam) = lam - d_a - sum_J z_J^2 / (lam - p_J) = 0,

    since LAPACK's eigenvalue-only path is about ten times less accurate
    here than the full eigensolver, and G's residues there, the weights
    rho_k (v_a + i (lam_k - d_a) / coupling) with rho = 1/f'(lam), scaled to
    sum to 1 as the anchor components of orthonormal eigenvectors square
    to.  An eigenvalue that lands exactly on a pole gets rho = 0.

    The amplitudes are one complex product of two phase tables, with rows
    and columns at the coarse and fine times of `statevec.grid_factors`
    (about sqrt(T) each on a uniform grid, split once per grid):
    (exp(-i t_{aB} node) * weight) @ exp(-i node t_b), read row by row.  On
    the contour's mirrored half each phase is the upper half's times a real
    exponential, exp(-i conj(z) t) = exp(-i z t) exp(-2 Im(z) t); on a
    uniform grid the other columns are running powers of one exponential per
    node, since both tables are then uniform themselves.  At t = 0
    nothing has left the anchor: P = v_a^2 exactly.  Raises ValueError if
    the tables of the path that runs would not fit in physical memory.
    """
    d = np.asarray(diag, dtype=float)
    ts = np.asarray(times, dtype=float)
    if isinstance(v, float) or np.ndim(v) == 0:
        v_a = np.float64(v)
        s = np.sort(np.concatenate((d[:anchor], d[anchor + 1:]))) if v_a else d[:0]
        w2 = np.full(s.size, v_a * v_a)
    else:
        v = np.asarray(v, dtype=float)
        rest = np.setdiff1d(np.flatnonzero(v), anchor)
        rest, v_a = rest[np.argsort(d[rest], kind="stable")], v[anchor]
        s, w2 = d[rest], v[rest] ** 2
    first = np.concatenate(([True], s[1:] != s[:-1]))[:s.size]
    poles, weights = s[first], np.sqrt(w2 if first.all() else np.bincount(first.cumsum() - 1, w2))
    k = poles.size + 1
    n = ts.size
    if coupling == 0 or not poles.size:
        return np.full(n, v_a ** 2)
    (coarse, coarse_step), (fine, fine_step) = grid_factors(ts.tobytes())
    d_a = d[anchor]
    lo = min(poles[0], d_a) - 1.02 * abs(coupling)
    hi = max(poles[-1], d_a) + 1.02 * abs(coupling)
    half = (hi - lo) / 2
    t_max = float(np.abs(ts).max()) if n else 0.0
    log_rho = math.asinh((2.0 / t_max if t_max > 0 else half) / half)
    # ln(1e15) / ln(rho) overflows only for windows no node count could cover
    count = math.log(1e15) / log_rho if log_rho else math.inf
    nodes = max(math.ceil(count) + 8, _MIN_NODES) if math.isfinite(count) else math.inf
    contour = nodes < _NODES_PER_LEVEL * k
    mirrored = nodes // 2 if contour else 0
    # the contour's two real ceil(N/2) x (K-1) tables of node-pole distances
    # and their reciprocal squares, or the arrowhead, LAPACK's copy and the
    # K x (K-1) secular tables; then the two complex phase tables, the real damping tables of
    # their mirrored halves and their product, the series and its temporaries
    width = nodes if contour else k
    table = 2 * (nodes - mirrored) * poles.size if contour else 2 * k * k + 2 * k * poles.size
    _refuse_beyond_memory(8 * (table + (2 * width + mirrored) * (coarse.size + fine.size)
                               + 2 * coarse.size * fine.size + 3 * n),
                          "the detuned series on {0} qubits", qubits or d.size.bit_length() - 1,
                          k, n, detail=" ({1}-level arrowhead, {2} time points)")
    if contour:
        u = log_rho + 2j * np.pi * (np.arange(nodes - mirrored) + 0.5) / nodes
        lam, dz = (lo + hi) / 2 + half * np.cosh(u), np.sinh(u)
        # an odd N's last upper node is at theta = pi; theta_{N-1-j} = 2 pi - theta_j
        lam[mirrored:].imag = dz[mirrored:].imag = 0.0
        lam, dz = (np.concatenate((a, a[:mirrored][::-1].conj())) for a in (lam, dz))
        coef = (_anchor_resolvent(lam, coupling, v_a, d_a, poles, weights)
                * (half / nodes) * dz)
    else:
        z = -coupling * weights
        h = np.diag(np.concatenate(([d_a], poles)))
        h[0, 1:] = h[1:, 0] = z
        lam = np.linalg.eigvalsh(h)
        z2 = z * z
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f, slope = _secular(lam, d_a, poles, z2)
            polished = lam - f / slope
            lam = np.where(np.isfinite(polished), polished, lam)
            rho = 1.0 / _secular(lam, d_a, poles, z2)[1]
        rho /= rho.sum()
        coef = rho * (v_a + 1j * (lam - d_a) / coupling)
    rows = _phase_table(coarse, lam, mirrored, coarse_step)
    rows *= coef
    amp = (rows @ _phase_table(fine, lam, mirrored, fine_step).T).ravel()[:n]
    p = amp.real ** 2 + amp.imag ** 2
    p[ts == 0] = v_a ** 2
    return p


def _anchor_resolvent(z: np.ndarray, coupling: float, v_a: float, d_a: float,
                      poles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """G(z) = (v_a + i coupling S(z)) / (z - d_a - coupling^2 S(z)) at each z away
    from the spectrum, with S(z) = sum_J w_J^2 / (z - p_J).  The nodes come in
    conjugate pairs, z[-1 - j] = conj z[j], and the poles and weights are real,
    so S(conj z) = conj S(z) is summed on the first ceil(len(z) / 2) nodes only,
    in real arithmetic: with x = Re z - p_J, y = Im z and q = 1 / (x^2 + y^2),
    1 / (z - p_J) = (x - i y) q, so Re S = (x q) @ w^2 and Im S = -y (q @ w^2)."""
    upper, lower = (z.size + 1) // 2, z.size // 2
    w2, y = weights * weights, z[:upper].imag
    # one allocation for both tables: as two, freed on every call, glibc's
    # malloc gave them back to the system and faulted them in again, 2.5
    # against 1.35 ms per unencoded 12-qubit series (2-vCPU x86, 1 BLAS thread)
    x, q = np.empty((2, upper, poles.size))
    np.subtract.outer(z[:upper].real, poles, out=x)
    np.multiply(x, x, out=q)
    q += (y * y)[:, None]
    np.reciprocal(q, out=q)
    s = np.empty(z.size, dtype=complex)
    s.imag[:upper] = -y * (q @ w2)
    s.real[:upper] = np.multiply(x, q, out=x) @ w2
    s[upper:] = s[:lower][::-1].conj()
    return (v_a + 1j * coupling * s) / (z - d_a - coupling * coupling * s)


def _phase_table(ts: np.ndarray, lam: np.ndarray, mirrored: int,
                 step: float | None) -> np.ndarray:
    """exp(-i t lam) with a row per t and a column per node, where the last
    `mirrored` nodes are the conjugates of the first ones in reverse order:
    exp(-i conj(z) t) = exp(-i z t) exp(-2 Im(z) t) needs only a real exponential.
    Given the `step` of a uniform ts, t_j = t_0 + j step (as grid_factors
    reports it), the other nodes' columns are powers of exp(-i lam step), one
    running product down the rows; the powers drift from the direct
    exponentials by a few ulps per row.  With step None every entry is its
    own exponential."""
    table = np.empty((ts.size, lam.size), dtype=complex)
    upper = lam.size - mirrored
    head = table[:, :upper]
    if step is not None:
        head[0] = np.exp(-1j * ts[0] * lam[:upper])
        head[1:] = np.exp(-1j * step * lam[:upper])
        np.multiply.accumulate(head, axis=0, out=head)
    else:
        np.exp(np.multiply.outer(ts, -1j * lam[:upper]), out=head)
    damping = np.exp(np.multiply.outer(ts, 2.0 * lam[upper:].imag))
    np.multiply(table[:, :mirrored][:, ::-1], damping, out=table[:, upper:])
    return table


def _secular(lam: np.ndarray, d_a: float, poles: np.ndarray, z2: np.ndarray):
    """The arrowhead's secular function f and its derivative f' at each lam."""
    r = 1.0 / np.subtract.outer(lam, poles)
    return lam - d_a - r @ z2, 1.0 + (r * r) @ z2


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report it."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def _refuse_beyond_memory(need: int, what: str, *args, detail: str = "") -> None:
    """Raise ValueError if `what` needs more than the bytes of physical memory.
    `what` and `detail` are templates that only a refusal fills from args."""
    available = physical_memory()
    if available is not None and need > available:
        raise ValueError(f"{what.format(*args)} needs {need} bytes{detail.format(*args)}, "
                         f"more than the {available} bytes of physical memory")


def time_grid(t_max: float, points: int) -> np.ndarray:
    """`points` evenly spaced times over [0, t_max]; every time-grid builder goes through here.

    Raises ValueError, before allocating, if the grid alone would not fit in
    physical memory.
    """
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(
            f"the time window end t_max (--t-max) must be finite and >= 0, got {t_max}")
    if points < 1:
        raise ValueError(f"grid points must be >= 1, got {points}")
    _refuse_beyond_memory(8 * points, "a time grid of {0} points (--grid-points)", points)
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
    closing Hadamard and projecting on |x0>).  |v> enters only through
    v^2 = eps^2 and v_s = +eps, so x0 drops out.  Returns (t, p) rows.
    """
    if t_grid is None:
        t_grid = default_time_grid(inst)
    ts = np.asarray(t_grid, dtype=float)
    if ts.size and (np.any(ts < 0) or np.any(np.diff(ts) < 0)):
        raise ValueError("time grid must be non-negative and ascending")
    d = detuning_diagonal(profile, inst.m)
    p = coupled_success_series(2.0 * inst.epsilon, inst.epsilon, 0, d, ts)
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
