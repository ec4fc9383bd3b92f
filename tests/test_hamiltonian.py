import math
import re

import numpy as np
import pytest

from groverdfs import dfs, gates, hamiltonian as ham
from groverdfs import experiments as xp
from groverdfs.grover import GroverInstance, grover_step
from groverdfs.statevec import (DenseOperator, StateVector, basis_state,
                                embed_single_qubit, evolve_grid)


def two_level_oracle(eps, t):
    """Independent 2x2 solution of the effective generator restricted to the
    orthonormalized plane of |s> and |v>: P(t) = sin^2(2 eps sqrt(1-eps^2) t + arcsin eps)."""
    return math.sin(2.0 * eps * math.sqrt(1.0 - eps**2) * t + math.asin(eps)) ** 2


def two_level_peak_time(eps):
    return (math.pi / 2.0 - math.asin(eps)) / (2.0 * eps * math.sqrt(1.0 - eps**2))


def gate_angle_gap(eps, n):
    """Independent oracle for the gate-vs-generator state gap: both act as plane
    rotations, by 2 arcsin(eps) and 2 eps sqrt(1-eps^2) per step respectively."""
    return 2.0 * abs(math.sin(n * (math.asin(eps) - eps * math.sqrt(1.0 - eps**2))))


def test_grover_hamiltonian_is_rank_two():
    hg = ham.grover_hamiltonian(GroverInstance(4, 7))
    w = np.linalg.eigvalsh(hg.operator.matrix)
    assert np.count_nonzero(np.abs(w) > 1e-12) == 2


def test_grover_hamiltonian_eigenvalues():
    inst = GroverInstance(5, 3)
    eps = inst.epsilon
    w = np.linalg.eigvalsh(ham.grover_hamiltonian(inst).operator.matrix)
    expected = 2.0 * eps * math.sqrt(1.0 - eps**2)
    assert w[0] == pytest.approx(-expected, abs=1e-12)
    assert w[-1] == pytest.approx(expected, abs=1e-12)


def test_grover_hamiltonian_matrix_element():
    inst = GroverInstance(3, 6)
    hg = ham.grover_hamiltonian(inst).operator.matrix
    v = inst.target_state().amplitudes
    s = inst.start_state().amplitudes
    # <v|H|s> = 2 i eps (1 - eps^2) straight from the outer-product form
    expected = 2j * inst.epsilon * (1.0 - inst.epsilon**2)
    assert complex(v.conj() @ hg @ s) == pytest.approx(expected, abs=1e-14)


def test_grover_hamiltonian_hermitian_and_rabi():
    inst = GroverInstance(4, 9)
    hg = ham.grover_hamiltonian(inst)
    assert hg.operator.is_flagged("hermitian")
    assert hg.rabi_frequency == pytest.approx(2.0 * inst.epsilon)


@pytest.mark.parametrize("m", [8, 10])
def test_rabi_transfer_peak(m):
    # at the 2x2-oracle peak time the state is |v> up to machine precision;
    # the peak sits below pi/(2 Omega) by about 2 arcsin(eps)/pi relative
    inst = GroverInstance(m, 2**m - 1)
    eps = inst.epsilon
    t_peak = two_level_peak_time(eps)
    series = ham.evolve_with_errors(inst, ham.DetuningProfile.zeros(m), [t_peak])
    assert series[0, 1] == pytest.approx(1.0, abs=1e-9)
    t_rabi = math.pi / (2.0 * ham.grover_hamiltonian(inst).rabi_frequency)
    rel = abs(t_peak - t_rabi) / t_rabi
    assert rel < (0.04 if m == 8 else 0.02)


def test_detuning_profile_units():
    profile = ham.DetuningProfile((0.5, 0.3, 0.2))
    assert profile.scale == pytest.approx(2.0 ** -1.5)
    assert np.allclose(profile.absolute(), np.array([0.5, 0.3, 0.2]) * 2.0 ** -1.5)
    explicit = ham.DetuningProfile((1.0,), scale=0.25)
    assert explicit.absolute()[0] == 0.25


def test_detuning_hamiltonian_matches_embedded_sum():
    # independent construction from embedded sigma_z operators
    profile = ham.DetuningProfile((0.4, -0.2, 0.9))
    direct = ham.detuning_hamiltonian(profile, 3).matrix
    z = gates.pauli("z")
    summed = sum(w * embed_single_qubit(z, 3, i + 1).matrix
                 for i, w in enumerate(profile.absolute()))
    assert np.max(np.abs(direct - summed)) <= 1e-14


def test_equal_detuning_annihilates_balanced_state():
    profile = ham.DetuningProfile.equal(4, 1.0)
    diag = ham.detuning_diagonal(profile, 4)
    assert diag[0b0011] == 0.0
    assert diag[0b0101] == 0.0
    assert diag[0] == pytest.approx(4.0 * profile.scale)


def test_zero_detuning_is_zero_operator():
    assert not np.any(ham.detuning_hamiltonian(ham.DetuningProfile.zeros(1), 1).matrix)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detuning_profile_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="detunings must be finite"):
        ham.DetuningProfile((0.1, bad, 0.3))


def test_time_grid_needs_a_point():
    assert list(ham.time_grid(2.0, 1)) == [0.0]
    for points in (0, -3):
        with pytest.raises(ValueError, match="grid points"):
            ham.time_grid(2.0, points)
        with pytest.raises(ValueError, match="grid points"):
            ham.default_time_grid(GroverInstance(3, 1), points)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, -1.0])
def test_time_grid_needs_a_finite_non_negative_end(t_max):
    with pytest.raises(ValueError, match="--t-max"):
        ham.time_grid(t_max, 5)
    assert list(ham.time_grid(0.0, 3)) == [0.0, 0.0, 0.0]


def test_detuning_profile_length_mismatch():
    with pytest.raises(ValueError):
        ham.detuning_hamiltonian(ham.DetuningProfile((1.0, 2.0)), 3)


def test_evolve_with_errors_matches_two_level_oracle():
    inst = GroverInstance(6, 5)
    series = ham.evolve_with_errors(inst, ham.DetuningProfile.zeros(6))
    for t, p in series[::25]:
        assert p == pytest.approx(two_level_oracle(inst.epsilon, t), abs=1e-10)


def test_evolve_with_errors_matches_generic_eigendecomposition():
    # the fast real-form propagation must agree with evolving the literal
    # complex matrix H_G + H_d
    inst = GroverInstance(3, 7)
    profile = ham.DetuningProfile((0.5, 0.3, 0.2))
    ts = np.linspace(0.0, 12.0, 60)
    series = ham.evolve_with_errors(inst, profile, ts)
    combined = DenseOperator(
        ham.grover_hamiltonian(inst).operator.matrix + ham.detuning_hamiltonian(profile, 3).matrix,
        frozenset({"hermitian"}),
    )
    states = evolve_grid(combined, ts, inst.start_state())
    v = inst.target_state().amplitudes
    probs = np.abs(states @ v.conj()) ** 2
    assert np.max(np.abs(series[:, 1] - probs)) <= 1e-12
    # and the combined evolution is unitary at every grid point
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_detuned_run_is_suppressed_with_revivals():
    inst = GroverInstance(3, 7)
    ts = np.linspace(0.0, 40.0, 2000)
    ideal = ham.evolve_with_errors(inst, ham.DetuningProfile.zeros(3), ts)[:, 1]
    detuned = ham.evolve_with_errors(inst, ham.DetuningProfile((0.5, 0.3, 0.2)), ts)[:, 1]
    assert detuned.max() < ideal.max() - 1e-3
    # quasi-periodic revivals: several separated local maxima of notable height
    peaks = [k for k in range(1, len(ts) - 1)
             if detuned[k] > detuned[k - 1] and detuned[k] > detuned[k + 1]
             and detuned[k] > 0.5]
    assert len(peaks) >= 3


def test_zero_profile_equals_plain_generator_evolution():
    inst = GroverInstance(4, 2)
    ts = np.linspace(0.0, 10.0, 50)
    with_zero = ham.evolve_with_errors(inst, ham.DetuningProfile.zeros(4), ts)
    states = evolve_grid(ham.grover_hamiltonian(inst).operator, ts, inst.start_state())
    v = inst.target_state().amplitudes
    probs = np.abs(states @ v.conj()) ** 2
    assert np.max(np.abs(with_zero[:, 1] - probs)) <= 1e-12


def test_relabeling_symmetry():
    # permuting qubits together with the detunings and the marked item's bits
    # leaves P(t) unchanged
    m = 4
    perm = [3, 1, 4, 2]  # new position i holds old qubit perm[i-1]
    omegas = (0.7, 0.2, -0.4, 1.1)
    x0 = 0b1010

    def permute_bits(x):
        return sum(((x >> (m - perm[i])) & 1) << (m - 1 - i) for i in range(m))

    ts = np.linspace(0.0, 15.0, 40)
    base = ham.evolve_with_errors(GroverInstance(m, x0), ham.DetuningProfile(omegas), ts)
    permuted_omegas = tuple(omegas[perm[i] - 1] for i in range(m))
    relabeled = ham.evolve_with_errors(
        GroverInstance(m, permute_bits(x0)), ham.DetuningProfile(permuted_omegas), ts)
    assert np.max(np.abs(base[:, 1] - relabeled[:, 1])) <= 1e-12


def test_time_grid_validation():
    inst = GroverInstance(2, 1)
    profile = ham.DetuningProfile.zeros(2)
    with pytest.raises(ValueError):
        ham.evolve_with_errors(inst, profile, [-1.0, 0.0])
    with pytest.raises(ValueError):
        ham.evolve_with_errors(inst, profile, [1.0, 0.5])


def test_default_time_grid_span():
    inst = GroverInstance(3, 1)
    grid = ham.default_time_grid(inst)
    assert len(grid) == 400
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(4.0 * inst.n_optimal)


def test_trotter_error_zero_steps():
    # both sides leave |s> unchanged
    assert ham.trotter_error(GroverInstance(4, 1), 0) <= 1e-14
    with pytest.raises(ValueError):
        ham.trotter_error(GroverInstance(4, 1), -1)


@pytest.mark.parametrize("m", range(2, 7))
def test_trotter_error_matches_dense_reference(m):
    # the closed-form plane rotation against evolve_grid on the dense H_G, and
    # the matrix-free gate side against powers of the oracle-built step matrix
    for x0 in (0, 2**m - 1):
        inst = GroverInstance(m, x0)
        q = grover_step(inst).matrix
        s = inst.start_state()
        ns = np.arange(4 * inst.n_optimal + 2)
        ham_states = evolve_grid(ham.grover_hamiltonian(inst).operator, ns * inst.tau, s)
        gate = s.amplitudes
        for n in ns:
            gap = float(np.linalg.norm(gate - ham_states[n]))
            assert ham.trotter_error(inst, int(n)) == pytest.approx(gap, abs=1e-12)
            gate = q @ gate


@pytest.mark.parametrize("m,n", [(4, 3), (6, 5), (8, 5)])
def test_trotter_error_matches_angle_gap_oracle(m, n):
    inst = GroverInstance(m, 2**m - 1)
    assert ham.trotter_error(inst, n) == pytest.approx(gate_angle_gap(inst.epsilon, n), abs=1e-9)


def test_trotter_error_scaling_with_size():
    # the per-step angle gap is O(eps^3), so doubling m at fixed n shrinks the
    # state gap by a factor approaching 8 from above
    e6 = ham.trotter_error(GroverInstance(6, 63), 5)
    e8 = ham.trotter_error(GroverInstance(8, 255), 5)
    assert e6 == pytest.approx(gate_angle_gap(2.0**-3, 5), abs=1e-9)
    assert e8 == pytest.approx(gate_angle_gap(2.0**-4, 5), abs=1e-9)
    assert e6 / e8 == pytest.approx(8.03, abs=0.05)


# ---------------------------------------------------------------------------
# the deflated arrowhead path against the explicit complex generator


def dense_series(coupling, v, anchor, d, ts):
    """|<v| exp(-i H t) |anchor>|^2 by evolve_grid on the literal complex
    H = coupling i (|v><anchor| - |anchor><v|) + diag(d)."""
    v = np.asarray(v, dtype=float)
    e = np.zeros(v.size)
    e[anchor] = 1.0
    h = coupling * 1j * (np.outer(v, e) - np.outer(e, v)) + np.diag(d)
    m = v.size.bit_length() - 1
    states = evolve_grid(DenseOperator(h, frozenset({"hermitian"})), ts, basis_state(m, anchor))
    return np.abs(states @ v) ** 2


def reference_search(m, profile, x0, encoded, ts):
    """P(t) of the unencoded or encoded search by evolve_grid on H_G + H_d,
    with H_G lifted through the balanced code's isometry when encoded."""
    d = ham.detuning_diagonal(profile, m)
    if encoded:
        code = dfs.balanced_code(m)
        iso = code.isometry
        inst = GroverInstance(code.logical_qubits, x0)
        gen = iso @ ham.grover_hamiltonian(inst).operator.matrix @ iso.conj().T
        start, target = iso @ inst.start_state().amplitudes, iso @ inst.target_state().amplitudes
    else:
        inst = GroverInstance(m, x0)
        gen = ham.grover_hamiltonian(inst).operator.matrix
        start, target = inst.start_state().amplitudes, inst.target_state().amplitudes
    op = DenseOperator(gen + np.diag(d), frozenset({"hermitian"}))
    states = evolve_grid(op, ts, StateVector(m, start))
    return np.abs(states @ target.conj()) ** 2


def search_series_error(m, encoded, sigma, mean, seed):
    """Largest gap between the fast search series and reference_search for
    one random detuning profile and marked item."""
    rng = np.random.default_rng([seed, m, int(encoded)])
    profile = ham.DetuningProfile(tuple(mean + sigma * mean * rng.standard_normal(m)))
    if encoded:
        l = dfs.balanced_code(m).logical_qubits
        x0 = int(rng.integers(2**l))
        ts = xp.search_window(l, points=120)
        p = xp.encoded_grover_evolution(m, profile, x0, ts).column("probability")
    else:
        x0 = int(rng.integers(2**m))
        ts = ham.default_time_grid(GroverInstance(m, x0), 120)
        p = ham.evolve_with_errors(GroverInstance(m, x0), profile, ts)[:, 1]
    return np.max(np.abs(p - reference_search(m, profile, x0, encoded, ts)))


@pytest.mark.parametrize("mean", [0.5, -1.7])
@pytest.mark.parametrize("sigma", [0.0, 1e-12, 1e-9, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("encoded", [False, True])
@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_search_series_matches_dense_reference(m, encoded, sigma, mean):
    for seed in range(3):
        assert search_series_error(m, encoded, sigma, mean, seed) <= 1e-12


@pytest.mark.parametrize("sigma", [1e-15, 1e-12])
@pytest.mark.parametrize("encoded", [False, True])
def test_ten_qubit_near_equal_poles_match_dense_reference(encoded, sigma):
    # spreads this small leave poles a few ulps apart, where unencoded
    # eigenvalues land exactly on poles and the secular derivative is infinite
    assert search_series_error(10, encoded, sigma, 0.5, 0) <= 1e-12


ARROWHEAD_CASES = {
    # v vanishes off the anchor at several states, which drop out
    "zero_couplings": ([0.3, 0.0, 0.5, 0.0, -0.2, 0.1, 0.0, 0.4], 2,
                       [0.4, -0.9, 0.1, 1.3, -0.2, 0.8, 0.05, -0.6]),
    # three states share one detuning and two another: two merged poles
    "duplicate_poles": ([0.2, -0.4, 0.3, 0.1, -0.5, 0.35, 0.25, -0.15], 0,
                        [0.1, 0.7, 0.7, -0.3, 0.7, -0.3, 1.2, 0.0]),
    # the anchor's own detuning equals the detuning of two other states
    "anchor_on_a_pole": ([0.3, 0.2, -0.4, 0.5, 0.1, -0.3, 0.45, 0.2], 5,
                         [0.6, -0.2, 0.6, 0.9, -1.1, 0.6, 0.3, 0.0]),
    # every coupled state shares one detuning: a 2x2 problem
    "single_pole": ([0.5, 0.0, 0.4, 0.0, -0.6, 0.0, 0.3, 0.0], 0,
                    [0.2, 1.0, -0.7, 1.0, -0.7, 1.0, -0.7, 1.0]),
    # one coupled state besides the anchor, which has no weight of its own
    "single_state": ([0.0, 0.0, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0], 6,
                     [0.3, 0.3, 0.3, -0.5, 0.3, 0.3, 0.1, 0.3]),
    # nothing couples to the anchor: P(t) stays v_a^2
    "anchor_only": ([0.0, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1,
                    [0.3, -0.4, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]),
}


@pytest.mark.parametrize("case", sorted(ARROWHEAD_CASES))
def test_arrowhead_deflation_cases(case):
    v, anchor, d = ARROWHEAD_CASES[case]
    ts = np.linspace(0.0, 30.0, 90)
    for coupling in (0.35, 2.0):
        p = ham.coupled_success_series(coupling, v, anchor, d, ts)
        assert np.max(np.abs(p - dense_series(coupling, v, anchor, d, ts))) <= 1e-12
    if case == "anchor_only":
        assert np.allclose(p, 0.36, rtol=0, atol=1e-15)
    # without coupling nothing leaves the anchor: P(t) stays v_a^2
    p = ham.coupled_success_series(0.0, v, anchor, d, ts)
    assert np.all(p == v[anchor] ** 2)
    assert np.max(np.abs(p - dense_series(0.0, v, anchor, d, ts))) <= 1e-12


def solved_dimensions(monkeypatch, run):
    """Sizes of the matrices coupled_success_series hands to eigvalsh during run()."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(h):
        sizes.append(h.shape[0])
        return eigvalsh(h)

    monkeypatch.setattr(ham.np.linalg, "eigvalsh", spy)
    run()
    monkeypatch.undo()
    return sizes


def test_deflation_shrinks_the_search_problems(monkeypatch):
    ts = xp.search_window(6, points=50)
    noisy = ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    equal = ham.DetuningProfile.equal(8, 0.5)
    unencoded = lambda profile: ham.evolve_with_errors(GroverInstance(8, 255), profile, ts)
    encoded = lambda profile: xp.encoded_grover_evolution(8, profile, 63, ts)
    assert solved_dimensions(monkeypatch, lambda: encoded(noisy)) == [64]
    assert solved_dimensions(monkeypatch, lambda: encoded(equal)) == [2]
    # equal detunings leave one pole per Hamming weight 1..8, plus the anchor
    assert solved_dimensions(monkeypatch, lambda: unencoded(equal)) == [9]
    assert solved_dimensions(monkeypatch, lambda: unencoded(noisy)) == [256]


def test_oversized_series_is_refused_before_allocating(monkeypatch):
    inst = GroverInstance(8, 255)
    profile = ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    ts = ham.default_time_grid(inst)
    # a 256-level arrowhead and LAPACK's copy of it, the 256 x 255 reciprocal
    # table and its square, and the 400 x 256 cos and sin tables
    need = 8 * (2 * 256 * 256 + 2 * 256 * 255 + 2 * 400 * 256)
    monkeypatch.setattr(ham, "physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"on 8 qubits needs {need} bytes"):
        ham.evolve_with_errors(inst, profile, ts)
    for available in (need, None):
        monkeypatch.setattr(ham, "physical_memory", lambda: available)
        assert ham.evolve_with_errors(inst, profile, ts).shape == (400, 2)


def test_oversized_time_grid_is_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(ham, "physical_memory", lambda: 8 * 5)
    assert list(ham.time_grid(4.0, 5)) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def no_allocation(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(ham.np, "linspace", no_allocation)
    for points in (6, 2_000_000_000):
        message = re.escape(f"{points} points (--grid-points) needs {8 * points} bytes")
        with pytest.raises(ValueError, match=message):
            ham.time_grid(1.0, points)


def test_physical_memory_is_reported():
    available = ham.physical_memory()
    assert available is None or available > 0
