"""A matrix-free Lanczos reference for the detuned search, at sizes the
dense reference cannot reach.

P(t) = |<v| exp(-i H t) |s>|^2 for H = H_G + diag(d) and
H_G = 2 i eps (|v><s| - |s><v|), applied as that rank-2 update: nothing of
size 2^m x 2^m is built.  v is GroverInstance.target_state() at a random
marked item (the butterfly Hadamard) and d comes from detuning_diagonal, so
the reference shares no gauge, deflation, constant-v shortcut or contour
with coupled_success_series.  The Krylov basis is grown from |s> with full
reorthogonalization until Saad's a posteriori bound on the state error,
beta_D t max_t |e_D^T exp(-i T_D t) e_1| (Saad, SIAM J. Numer. Anal. 29
(1992) 209-228), falls below 1e-14 over the window; P(t) then comes from
the eigendecomposition of the D x D tridiagonal T_D (Park & Light,
J. Chem. Phys. 85 (1986) 5870).
"""
import numpy as np
import pytest

from groverdfs import dfs
from groverdfs import experiments as xp
from groverdfs import hamiltonian as ham
from groverdfs.grover import GroverInstance

from test_hamiltonian import reference_search

BOUND = 1e-14


def lanczos_series(eps, v, s, d, ts, *, check_every=8):
    """(P(t) on ts, D, the bound at D) for H = 2 i eps (|v><s| - |s><v|) + diag(d)."""
    n, t_max = d.size, float(np.max(ts))
    basis = np.zeros((n + 1, n), dtype=complex)
    basis[0] = s / np.linalg.norm(s)
    alpha, beta = [], []
    for j in range(n):
        q = basis[j]
        w = d * q + 2j * eps * (v * np.vdot(s, q) - s * np.vdot(v, q))
        alpha.append(np.vdot(q, w).real)
        for _ in range(2):   # full reorthogonalization, twice is enough
            w -= basis[:j + 1].T @ (basis[:j + 1].conj() @ w)
        beta.append(np.linalg.norm(w))
        if (j + 1) % check_every and beta[-1] > BOUND and j + 1 < n:
            basis[j + 1] = w / beta[-1]
            continue
        lam, u = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        phases = np.exp(-1j * np.multiply.outer(ts, lam)) * u[0]
        bound = beta[-1] * t_max * np.max(np.abs(phases @ u[-1])) if j + 1 < n else 0.0
        if bound < BOUND:
            amp = phases @ (u.T @ (basis[:j + 1].conj() @ v)).conj()
            return np.abs(amp) ** 2, j + 1, bound
        basis[j + 1] = w / beta[-1]
    raise AssertionError("the Krylov space was exhausted without meeting the bound")


def lanczos_search(m, profile, x0, encoded, ts):
    """The reference's P(t) and dimension D for the unencoded search on m
    qubits, or for the logical search lifted onto the balanced code's words."""
    d = ham.detuning_diagonal(profile, m)
    if encoded:
        code = dfs.balanced_code(m)
        inst = GroverInstance(code.logical_qubits, x0)
        d = d[np.array(code.code_indices)]
    else:
        inst = GroverInstance(m, x0)
    p, dim, _ = lanczos_series(inst.epsilon, inst.target_state().amplitudes,
                               inst.start_state().amplitudes, d, ts)
    return p, dim


def random_profile(rng, m, sigma, mean=0.5):
    return ham.DetuningProfile(tuple(mean + sigma * mean * rng.standard_normal(m)))


@pytest.mark.parametrize("m,encoded", [(4, False), (5, False), (6, False), (7, False),
                                       (8, False), (4, True), (6, True), (8, True)])
def test_lanczos_matches_the_dense_reference(m, encoded):
    rng = np.random.default_rng([m, int(encoded), 31])
    n = dfs.balanced_code(m).logical_qubits if encoded else m
    ts = xp.search_window(n)
    for sigma in (0.0, 0.3, 1.0, 3.0):
        profile = random_profile(rng, m, sigma)
        x0 = int(rng.integers(2**n))
        p, dim = lanczos_search(m, profile, x0, encoded, ts)
        assert dim <= 2**n
        assert np.max(np.abs(p - reference_search(m, profile, x0, encoded, ts))) <= 1e-13


def test_lanczos_bound_grows_the_basis_with_the_window():
    # a longer window needs a larger Krylov basis to meet the same bound
    rng = np.random.default_rng(5)
    inst = GroverInstance(10, int(rng.integers(2**10)))
    d = ham.detuning_diagonal(random_profile(rng, 10, 1.0), 10)
    args = (inst.epsilon, inst.target_state().amplitudes, inst.start_state().amplitudes, d)
    _, short, short_bound = lanczos_series(*args, ham.time_grid(10.0, 200))
    _, long, long_bound = lanczos_series(*args, ham.time_grid(80.0, 200))
    assert short < long < 2**10
    assert short_bound < BOUND and long_bound < BOUND


@pytest.mark.parametrize("with_encoding", [False, True], ids=["unencoded", "encoded"])
def test_twelve_qubit_sweep_matches_lanczos(with_encoding):
    # one trial per spread; the reference replays the draws, at a random
    # marked item that the sweep's series does not depend on
    m, sigmas, seed = 12, [0.1, 1.0, 3.0], 2031
    result = xp.monte_carlo_sweep(m, 1, 0.5, sigmas, seed, with_encoding)
    cfg = result.config
    ts = ham.time_grid(cfg["t_max"], cfg["grid_points"])
    n = dfs.balanced_code(m).logical_qubits if with_encoding else m
    draws, picks = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for sigma, (got,) in zip(sigmas, result.summary["per_trial_max"]):
        profile = ham.DetuningProfile(tuple(0.5 + sigma * 0.5 * xp.standard_normals(draws, m)))
        p, _ = lanczos_search(m, profile, int(picks.integers(2**n)), with_encoding, ts)
        assert abs(got - p.max()) <= 1e-12
