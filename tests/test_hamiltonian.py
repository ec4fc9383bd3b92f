import math
import re

import numpy as np
import pytest

from groverdfs import dfs, gates, hamiltonian as ham
from groverdfs import experiments as xp
from groverdfs.grover import GroverInstance, grover_step
from groverdfs.statevec import (DenseOperator, StateVector, basis_state,
                                embed_single_qubit, evolve_grid, grid_factors)


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


def search_series_error(m, encoded, sigma, mean, seed,
                        grid=lambda t_end, eps: ham.time_grid(t_end, 120)):
    """Largest gap between the fast search series and reference_search for
    one random detuning profile and marked item, on grid(t_end, eps): [0, t_end]
    is the search's default window and eps the overlap of the searched instance."""
    rng = np.random.default_rng([seed, m, int(encoded)])
    profile = ham.DetuningProfile(tuple(mean + sigma * mean * rng.standard_normal(m)))
    if encoded:
        l = dfs.balanced_code(m).logical_qubits
        x0 = int(rng.integers(2**l))
        ts = grid(2.0 * xp.ideal_peak_time(l), GroverInstance(l, x0).epsilon)
        p = xp.encoded_grover_evolution(m, profile, x0, ts).column("probability")
    else:
        x0 = int(rng.integers(2**m))
        inst = GroverInstance(m, x0)
        ts = grid(4.0 * inst.n_optimal * inst.tau, inst.epsilon)
        p = ham.evolve_with_errors(inst, profile, ts)[:, 1]
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


# uniform grids factor into sqrt(T)-row phase tables, whatever T is; other
# grids take every time as a row of their own
FACTORED_GRIDS = {
    **{f"uniform_{points}": (lambda t_end, eps, points=points: ham.time_grid(t_end, points))
       for points in (1, 2, 3, 4, 399, 400, 401, 1000)},
    "random_sorted": lambda t_end, eps: np.sort(np.random.default_rng(11).uniform(0.0, t_end, 97)),
    "peak": lambda t_end, eps: np.array([two_level_peak_time(eps)]),
}


@pytest.mark.parametrize("grid", sorted(FACTORED_GRIDS))
@pytest.mark.parametrize("encoded", [False, True])
def test_factored_propagation_matches_dense_reference(encoded, grid):
    for m, sigma in ((4, 1.0), (8, 3.0)):
        assert search_series_error(m, encoded, sigma, 0.5, 0, FACTORED_GRIDS[grid]) <= 1e-12


@pytest.mark.parametrize("m", [4, 6, 8, 10])
def test_series_starts_at_the_anchor_weight(m):
    # at t = 0 nothing has left the anchor: P(0) = v_a^2, alone or at the
    # start of a window, whichever path runs
    inst = GroverInstance(m, 2**m - 1)
    v = inst.target_state().amplitudes.real
    for sigma in (0.1, 1.0, 3.0):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            profile = ham.DetuningProfile(tuple(0.5 + sigma * 0.5 * rng.standard_normal(m)))
            d = ham.detuning_diagonal(profile, m)
            for ts in ([0.0], ham.default_time_grid(inst)):
                p0 = ham.coupled_success_series(2.0 * inst.epsilon, v, 0, d, ts)
                assert p0[0] == pytest.approx(v[0] ** 2, rel=1e-15, abs=0)


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


@pytest.mark.parametrize("grid", sorted(FACTORED_GRIDS))
@pytest.mark.parametrize("case", ["single_state", "anchor_only", "single_pole"])
def test_smallest_arrowheads_on_factored_grids(case, grid):
    v, anchor, d = ARROWHEAD_CASES[case]
    ts = FACTORED_GRIDS[grid](30.0, 0.35)
    p = ham.coupled_success_series(0.35, v, anchor, d, ts)
    assert p.shape == ts.shape
    assert np.max(np.abs(p - dense_series(0.35, v, anchor, d, ts))) <= 1e-12


def solved_dimensions(monkeypatch, run):
    """(path, K) of each deflated K-level problem coupled_success_series solves
    during run(): the matrices it hands to eigvalsh, and the contour's poles
    plus the anchor."""
    sizes = []
    eigvalsh, resolvent = np.linalg.eigvalsh, ham._anchor_resolvent

    def eigen_spy(h):
        sizes.append(("eigenvalues", h.shape[0]))
        return eigvalsh(h)

    def contour_spy(z, coupling, v_a, d_a, poles, weights):
        sizes.append(("contour", poles.size + 1))
        return resolvent(z, coupling, v_a, d_a, poles, weights)

    monkeypatch.setattr(ham.np.linalg, "eigvalsh", eigen_spy)
    monkeypatch.setattr(ham, "_anchor_resolvent", contour_spy)
    run()
    monkeypatch.undo()
    return sizes


def test_deflation_shrinks_the_search_problems(monkeypatch):
    ts = xp.search_window(6, points=50)
    noisy = ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    equal = ham.DetuningProfile.equal(8, 0.5)
    unencoded = lambda profile: ham.evolve_with_errors(GroverInstance(8, 255), profile, ts)
    encoded = lambda profile: xp.encoded_grover_evolution(8, profile, 63, ts)
    assert solved_dimensions(monkeypatch, lambda: encoded(noisy)) == [("contour", 64)]
    assert solved_dimensions(monkeypatch, lambda: encoded(equal)) == [("eigenvalues", 2)]
    # equal detunings leave one pole per Hamming weight 1..8, plus the anchor
    assert solved_dimensions(monkeypatch, lambda: unencoded(equal)) == [("eigenvalues", 9)]
    assert solved_dimensions(monkeypatch, lambda: unencoded(noisy)) == [("contour", 256)]


def window(t_max, points=120):
    """A search_series_error grid: `points` times over [0, t_max] for every search."""
    return lambda t_end, eps: ham.time_grid(t_max, points)


@pytest.mark.parametrize("m,encoded,t_max", [(4, True, 0.3), (6, True, 0.01),
                                             (8, False, 0.01), (8, True, 0.01)])
def test_short_windows_match_dense_reference(monkeypatch, m, encoded, t_max):
    # the narrower the window, the larger b and rho and the fewer nodes
    # ln(1e15) / ln(rho) asks for; the floor _MIN_NODES keeps these exact
    for sigma in (0.1, 3.0):
        assert search_series_error(m, encoded, sigma, 0.5, 0, window(t_max)) <= 1e-12
    paths = solved_dimensions(
        monkeypatch, lambda: search_series_error(m, encoded, 0.1, 0.5, 0, window(t_max)))
    # four levels are too few for any contour, which needs N < 2K
    assert paths[0][0] == ("eigenvalues" if m == 4 else "contour")


# fig4's detuned P(t) at --t-max 1e4 and t = j 1e4 / 399 for these j, from
# a 40-digit mpmath eigendecomposition of the same double-precision H (60
# digits agree); at this window the double-precision dense reference is
# itself up to 1.5e-12 off, the eigenvalue path 3e-13
FIG4_TO_1E4 = {0: 0.12500000000000003, 80: 0.275431099481979, 160: 0.8721519799118277,
               240: 0.24937274200637394, 320: 0.09875082043842662, 399: 0.30361736376189596}


@pytest.mark.parametrize("m,t_max,path", [(3, 1e3, "eigenvalues"), (3, 1e4, "eigenvalues"),
                                          (8, 40.0, "contour"), (8, 200.0, "eigenvalues")])
def test_long_windows_on_both_sides_of_the_switch(monkeypatch, m, t_max, path):
    # fig4 --t-max 1e3 and 1e4 need 1.9e4 and 1.9e5 nodes for 7 levels; at
    # m=8 the 256-level problem crosses N = 2K between t = 40 and t = 200
    detunings = (0.5, 0.3, 0.2) if m == 3 else xp.BENCHMARK_DETUNINGS_8Q
    paths = solved_dimensions(monkeypatch, lambda: xp.scenario_fig4(m, None, detunings, t_max))
    assert paths[-1] == (path, 7 if m == 3 else 256)
    result = xp.scenario_fig4(m, None, detunings, t_max)
    ts, p = result.column("t"), result.column("p_detuned")
    if t_max == 1e4:
        picked, reference = list(FIG4_TO_1E4), np.array(list(FIG4_TO_1E4.values()))
    else:
        picked = slice(None, None, 21)
        reference = reference_search(m, ham.DetuningProfile(detunings), 2**m - 1, False,
                                     ts[picked])
    assert np.max(np.abs(p[picked] - reference)) <= 1e-12


def test_window_beyond_any_node_count_takes_the_eigenvalue_path(monkeypatch):
    # at t = 1e308, ln(1e15) / ln(rho) overflows to inf
    v, anchor, d = ARROWHEAD_CASES["duplicate_poles"]
    ts = np.array([0.0, 1e308])
    p = []
    paths = solved_dimensions(
        monkeypatch, lambda: p.extend(ham.coupled_success_series(0.35, v, anchor, d, ts)))
    assert paths == [("eigenvalues", 5)]
    assert p[0] == v[anchor] ** 2 and 0.0 <= p[1] <= 1.0


def support_series(m, x0, encoded, profile, ts):
    """The search series on its support, as monte_carlo_sweep runs it."""
    coupling, support, anchor = xp._search_problem(m, x0, encoded)
    d = ham.signed_detunings(profile.absolute(), ham.sign_columns(m, support))
    return ham.coupled_success_series(coupling, coupling / 2.0, anchor, d, ts, qubits=m)


@pytest.mark.parametrize("sigma", [0.0, 1e-12, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("m,encoded", [(m, False) for m in range(2, 11)]
                         + [(m, True) for m in range(2, 11, 2)])
def test_contour_matches_eigenvalue_path(monkeypatch, m, encoded, sigma):
    l = dfs.balanced_code(m).logical_qubits if encoded else m
    ts = xp.search_window(l)
    for seed in range(2):
        rng = np.random.default_rng([seed, m, int(encoded)])
        x0 = int(rng.integers(2**l))
        profile = ham.DetuningProfile(tuple(0.5 + sigma * 0.5 * rng.standard_normal(m)))
        series = []
        for ratio, path in ((math.inf, "contour"), (0, "eigenvalues")):
            monkeypatch.setattr(ham, "_NODES_PER_LEVEL", ratio)
            paths = solved_dimensions(
                monkeypatch, lambda: series.append(support_series(m, x0, encoded, profile, ts)))
            assert [p for p, _ in paths] == [path]
        assert np.max(np.abs(series[0] - series[1])) <= 1e-12


# m = 8 windows whose contours have an odd or an even node count N for the
# detuning profile of the test below: (encoded, t_max) -> N
PARITY_WINDOWS = {(False, 5.0): 41, (False, 6.0): 46, (True, 5.0): 50, (True, 6.0): 57}


@pytest.mark.parametrize("encoded,t_max", sorted(PARITY_WINDOWS))
def test_contour_nodes_come_in_exact_conjugate_pairs(monkeypatch, encoded, t_max):
    profile = ham.DetuningProfile(tuple(0.5 + 0.5 * np.random.default_rng(8).standard_normal(8)))
    ts = ham.time_grid(t_max, 120)
    nodes, resolvent = [], ham._anchor_resolvent

    def spy(z, *args):
        nodes.append(z.copy())
        return resolvent(z, *args)

    monkeypatch.setattr(ham, "_anchor_resolvent", spy)
    contour = support_series(8, 0, encoded, profile, ts)
    monkeypatch.setattr(ham, "_NODES_PER_LEVEL", 0)
    eigenvalues = support_series(8, 0, encoded, profile, ts)
    monkeypatch.undo()
    (z,) = nodes
    assert z.size == PARITY_WINDOWS[encoded, t_max]
    # node N - 1 - j is the conjugate of node j, bit for bit; an odd N's middle node is real
    assert np.array_equal(z[::-1], z.conj()) and np.all(z.imag[:z.size // 2] > 0)
    assert np.max(np.abs(contour - eigenvalues)) <= 1e-12
    assert np.max(np.abs(contour - reference_search(8, profile, 0, encoded, ts))) <= 1e-12


@pytest.mark.parametrize("m", range(1, 13))
def test_signed_detunings_match_a_qubit_by_qubit_loop_bit_for_bit(m):
    rng = np.random.default_rng(m)
    signs = ham.sign_columns(m, np.arange(2**m))
    profiles = [ham.DetuningProfile((-0.0,) * m), ham.DetuningProfile((0.0,) * m)]
    for _ in range(20):
        omegas = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3, 3, m)
        omegas[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
        profiles.append(ham.DetuningProfile(tuple(omegas)))
    for profile in profiles:
        loop = np.zeros(2**m)
        for omega, s in zip(profile.absolute(), signs):
            loop += omega * s
        assert ham.signed_detunings(profile.absolute(), signs).tobytes() == loop.tobytes()


# The tables of each path for the 256-level benchmark problem on 400 points:
# the 20 x width and width x 20 complex phase tables, their 20 x 20 complex
# product and three 400-point arrays for the series, plus
OVERSIZED_SERIES = {
    # on the 4 n_opt = 48 window (N = 548): the arrowhead, LAPACK's copy of
    # it, the 256 x 255 reciprocal table and its square
    "eigenvalues": (48.0, 8 * (2 * 256 * 256 + 2 * 256 * 255 + 2 * 256 * (20 + 20)
                               + 2 * 20 * 20 + 3 * 400)),
    # on fig6's 4 pi window (N = 151): the complex 76 x 255 reciprocal table
    # of the nodes that are not mirrored, and the real 20 x 75 and 75 x 20
    # damping tables of the 75 that are
    "contour": (4 * math.pi, 8 * (2 * 76 * 255 + (2 * 151 + 75) * (20 + 20)
                                  + 2 * 20 * 20 + 3 * 400)),
}


def test_oversized_series_is_refused_before_allocating(monkeypatch):
    inst = GroverInstance(8, 255)
    profile = ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    for path, (t_max, need) in OVERSIZED_SERIES.items():
        ts = ham.time_grid(t_max, 400)
        monkeypatch.setattr(ham, "physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match=f"on 8 qubits needs {need} bytes"):
            ham.evolve_with_errors(inst, profile, ts)
        for available in (need, None):
            monkeypatch.setattr(ham, "physical_memory", lambda: available)
            shapes = []
            paths = solved_dimensions(
                monkeypatch, lambda: shapes.append(ham.evolve_with_errors(inst, profile, ts).shape))
            assert shapes == [(400, 2)] and paths == [(path, 256)]


def test_long_uniform_grid_needs_only_square_root_tables(monkeypatch):
    # full 10^5 x 256 cos and sin tables would take 410 MB; the factored
    # 317 x 256 tables and the series take under 10 MB
    monkeypatch.setattr(ham, "physical_memory", lambda: 100 * 10**6)
    rng = np.random.default_rng(3)
    profile = ham.DetuningProfile(tuple(0.5 + 1.5 * rng.standard_normal(8)))
    inst = GroverInstance(8, 255)
    ts = ham.default_time_grid(inst, 100_000)
    p = ham.evolve_with_errors(inst, profile, ts)[:, 1]
    picked = slice(None, None, 4999)
    reference = reference_search(8, profile, 255, False, ts[picked])
    assert np.max(np.abs(p[picked] - reference)) <= 1e-12
    # a grid as long but not uniform still takes one 256-wide row per time
    uneven = np.sort(rng.uniform(0.0, ts[-1], ts.size))
    with pytest.raises(ValueError, match="on 8 qubits needs"):
        ham.evolve_with_errors(inst, profile, uneven)


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


@pytest.mark.parametrize("m", [3, 8])
def test_detuned_series_does_not_depend_on_the_marked_item(m):
    # |(H|x0>)_x| = 2^(-m/2) for every x and (H|x0>)_0 > 0, and the series
    # reads the target only through its squared weights, its support and its
    # anchor amplitude: every marked item gives the same series, bit for bit
    profile = ham.DetuningProfile(tuple(np.random.default_rng(m).normal(size=m)))
    ts = ham.time_grid(30.0, 200)
    first = ham.evolve_with_errors(GroverInstance(m, 0), profile, ts)[:, 1]
    for x0 in range(1, 2**m):
        assert np.array_equal(ham.evolve_with_errors(GroverInstance(m, x0), profile, ts)[:, 1],
                              first)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m", range(3, 11))
def test_detuned_series_is_even_in_the_detunings(m, seed):
    # complex conjugation maps H_G + D to -(H_G - D), so D -> -D leaves P(t)
    # unchanged, on the plain register and, for even m, on the code
    omegas = np.random.default_rng(seed).normal(size=m)
    plus, minus = ham.DetuningProfile(tuple(omegas)), ham.DetuningProfile(tuple(-omegas))
    ts = ham.time_grid(30.0, 200)
    inst = GroverInstance(m, 2**m - 1)
    dev = np.max(np.abs(ham.evolve_with_errors(inst, plus, ts)[:, 1]
                        - ham.evolve_with_errors(inst, minus, ts)[:, 1]))
    assert dev <= 1e-14
    if m % 2 == 0:
        encoded = [xp.encoded_grover_evolution(m, p, t_grid=ts).column("probability")
                   for p in (plus, minus)]
        assert np.max(np.abs(encoded[0] - encoded[1])) <= 1e-14


def full_length_series(m, profile, x0, encoded, ts):
    """The search series on all 2^m basis states, the reference for the
    support form: v = H|x0> from the Walsh-Hadamard butterfly, scattered onto
    the code indices when encoded, and the detunings of every basis state
    summed bit by bit."""
    idx, d = np.arange(2**m), np.zeros(2**m)
    for i, omega in enumerate(profile.absolute(), start=1):
        d += omega * (1 - 2 * ((idx >> (m - i)) & 1))
    if not encoded:
        inst = GroverInstance(m, x0)
        return ham.coupled_success_series(2.0 * inst.epsilon, inst.target_state().amplitudes.real,
                                          0, d, ts)
    code = dfs.balanced_code(m)
    logical = GroverInstance(code.logical_qubits, x0)
    v = np.zeros(2**m)
    v[np.array(code.code_indices)] = logical.target_state().amplitudes.real
    return ham.coupled_success_series(2.0 * logical.epsilon, v, code.basis_states[0], d, ts)


@pytest.mark.parametrize("sigma", [0.0, 1e-12, 0.1, 1.0, 3.0])
@pytest.mark.parametrize("m,encoded", [(m, False) for m in range(2, 11)]
                         + [(m, True) for m in range(2, 13, 2)])
def test_support_series_is_bit_identical_to_the_full_length_arrowhead(m, encoded, sigma):
    l = dfs.balanced_code(m).logical_qubits if encoded else m
    ts = xp.search_window(l)
    for seed in range(2):
        rng = np.random.default_rng([seed, m, int(encoded)])
        x0 = int(rng.integers(2**l))
        profile = ham.DetuningProfile(tuple(0.5 + sigma * 0.5 * rng.standard_normal(m)))
        expected = full_length_series(m, profile, x0, encoded, ts)
        support = support_series(m, x0, encoded, profile, ts)
        if encoded:
            public = xp.encoded_grover_evolution(m, profile, x0, ts).column("probability")
        else:
            public = ham.evolve_with_errors(GroverInstance(m, x0), profile, ts)[:, 1]
        assert np.array_equal(support, expected) and np.array_equal(public, expected)


@pytest.mark.parametrize("m", [1, 3, 8, 12])
def test_detuning_diagonal_reads_the_sign_columns(m):
    omegas = np.random.default_rng(m).normal(size=m)
    profile = ham.DetuningProfile(tuple(omegas))
    signs = ham.sign_columns(m, np.arange(2**m))
    assert signs.dtype == np.int8 and signs.shape == (m, 2**m)
    assert np.array_equal(signs[0], np.where(np.arange(2**m) < 2**(m - 1), 1, -1))
    subset = np.random.default_rng(m).choice(2**m, size=(2**m + 2) // 3, replace=False)
    diag = ham.detuning_diagonal(profile, m)
    assert np.array_equal(ham.signed_detunings(profile.absolute(), ham.sign_columns(m, subset)),
                          diag[subset])
    with pytest.raises(ValueError, match=f"profile has {m} detunings, expected {m + 1}"):
        ham.signed_detunings(profile.absolute(), ham.sign_columns(m + 1, subset))


def solved_arrowhead(monkeypatch, v, anchor, d, ts):
    """(poles, weights) of the deflated arrowhead coupled_success_series
    solves at coupling -1, read from the contour's resolvent or from the
    matrix handed to eigvalsh, whose couplings -coupling * w_J are then w_J."""
    solved, eigvalsh, resolvent = [], np.linalg.eigvalsh, ham._anchor_resolvent

    def eigen_spy(h):
        solved.append((np.diag(h)[1:].copy(), h[1:, 0].copy()))
        return eigvalsh(h)

    def contour_spy(z, coupling, v_a, d_a, poles, weights):
        solved.append((poles.copy(), weights.copy()))
        return resolvent(z, coupling, v_a, d_a, poles, weights)

    with monkeypatch.context() as patch:
        patch.setattr(ham.np.linalg, "eigvalsh", eigen_spy)
        patch.setattr(ham, "_anchor_resolvent", contour_spy)
        ham.coupled_success_series(-1.0, v, anchor, d, ts)
    (poles, weights), = solved
    return poles, weights


def unique_deflation(v, anchor, d):
    """The reference grouping: np.unique's poles, and bincount's sums of v_j^2
    over the coupled states other than the anchor, in index order."""
    v = np.broadcast_to(np.asarray(v, dtype=float), d.shape)
    rest = np.flatnonzero(v)
    rest = rest[rest != anchor]
    poles, group = np.unique(d[rest], return_inverse=True)
    return poles, np.sqrt(np.bincount(group, weights=v[rest] ** 2, minlength=poles.size))


@pytest.mark.parametrize("seed", range(6))
def test_grouping_matches_unique_and_bincount_bit_for_bit(monkeypatch, seed):
    # groups of up to ~90 states, so a pairwise sum would round differently
    # from bincount's sequential one; signed zeros, zero and unequal v_j,
    # and the sigma = 0 rows of the searches, on both paths
    rng = np.random.default_rng(seed)
    m = 8
    d = rng.choice([-0.75, -0.5, 0.0, 0.25, 1.5], 2**m)
    d[d == 0] = rng.choice([0.0, -0.0], np.count_nonzero(d == 0))
    ragged = rng.uniform(-1.0, 1.0, 2**m)
    sparse = np.where(rng.random(2**m) < 0.3, 0.0, ragged)
    equal = ham.detuning_diagonal(ham.DetuningProfile.equal(m, 0.5), m)
    distinct = np.round(rng.uniform(-2.0, 2.0, 2**m), 2)
    for detunings in (d, equal, distinct):
        for v in (ragged, sparse, 2.0 ** (-m / 2), 0.3):
            anchor = int(rng.integers(2**m))
            for t_max in (1.0, 40.0):
                poles, weights = solved_arrowhead(monkeypatch, v, anchor, detunings,
                                                  ham.time_grid(t_max, 50))
                ref_poles, ref_weights = unique_deflation(v, anchor, detunings)
                assert weights.tobytes() == ref_weights.tobytes()
                # np.unique keeps whichever of +0.0 and -0.0 its unstable sort
                # puts first, so a zero pole is compared by value
                assert (poles + 0.0).tobytes() == (ref_poles + 0.0).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("m,encoded", [(3, False), (8, False), (8, True), (10, True)])
def test_scalar_and_array_v_give_the_same_series_bit_for_bit(m, encoded, sigma):
    if encoded:
        code = dfs.balanced_code(m)
        support, n = np.array(code.code_indices), code.logical_qubits
    else:
        support, n = np.arange(2**m), m
    v = GroverInstance(n, 0).epsilon
    rng = np.random.default_rng([m, int(encoded)])
    profile = ham.DetuningProfile(tuple(0.5 + sigma * 0.5 * rng.standard_normal(m)))
    d = ham.signed_detunings(profile.absolute(), ham.sign_columns(m, support))
    for ts in (xp.search_window(n), ham.time_grid(200.0, 97), np.array([0.0, 3.0, 1.0])):
        scalar = ham.coupled_success_series(2.0 * v, v, 0, d, ts, qubits=m)
        array = ham.coupled_success_series(2.0 * v, np.full(d.size, v), 0, d, ts, qubits=m)
        assert scalar.tobytes() == array.tobytes()


def test_memory_guard_messages_are_filled_only_on_refusal(monkeypatch):
    inst = GroverInstance(8, 255)
    profile = ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q)
    ts = ham.time_grid(4 * math.pi, 400)
    need = OVERSIZED_SERIES["contour"][1]
    # the guard asks for the memory on every call: nothing is cached
    for available, refused in ((need, False), (need - 1, True), (None, False), (need - 1, True)):
        monkeypatch.setattr(ham, "physical_memory", lambda: available)
        if refused:
            message = (f"the detuned series on 8 qubits needs {need} bytes (256-level arrowhead, "
                       f"400 time points), more than the {need - 1} bytes of physical memory")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ham.evolve_with_errors(inst, profile, ts)
        else:
            assert ham.evolve_with_errors(inst, profile, ts).shape == (400, 2)
    monkeypatch.setattr(ham, "physical_memory", lambda: 8 * 5)
    message = "a time grid of 6 points (--grid-points) needs 48 bytes, more than the 40 bytes"
    with pytest.raises(ValueError, match=f"^{re.escape(message)} of physical memory$"):
        ham.time_grid(1.0, 6)


def contour_nodes(rng, count, poles):
    """Midpoint nodes of an ellipse around the poles, upper half first and
    then its conjugates in reverse, as the series lays them out."""
    lo, hi = poles.min() - 0.5, poles.max() + 0.5
    u = 0.3 + 2j * np.pi * (np.arange(count // 2) + 0.5) / count
    upper = (lo + hi) / 2 + (hi - lo) / 2 * np.cosh(u)
    return np.concatenate((upper, upper[::-1].conj()))


@pytest.mark.parametrize("count,levels", [(32, 1), (62, 7), (150, 255)])
def test_real_form_resolvent_matches_the_complex_reciprocals(count, levels):
    rng = np.random.default_rng([count, levels])
    poles = np.sort(rng.normal(0.0, 0.3, levels))
    weights = rng.uniform(0.01, 0.2, levels)
    z = contour_nodes(rng, count, poles)
    coupling, v_a, d_a = 0.25, 0.125, float(rng.normal(0.0, 0.3))
    s = (1.0 / np.subtract.outer(z, poles)) @ (weights * weights)
    direct = (v_a + 1j * coupling * s) / (z - d_a - coupling * coupling * s)
    got = ham._anchor_resolvent(z, coupling, v_a, d_a, poles, weights)
    assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-13


@pytest.mark.parametrize("points", [2, 3, 50, 400, 100_000])
def test_phase_table_recurrence_matches_the_exponentials(points):
    # both tables of a uniform grid are themselves uniform, the contour's
    # nodes complex with a mirrored half and the eigenvalue path's real
    rng = np.random.default_rng(points)
    poles = np.sort(rng.normal(0.0, 0.3, 40))
    z = contour_nodes(rng, 60, poles)
    for ts, step in grid_factors(ham.time_grid(4.0 * math.pi, points).tobytes()):
        for lam, mirrored in ((z, 30), (poles, 0)):
            direct = np.exp(-1j * np.multiply.outer(ts, lam))
            table = ham._phase_table(ts, lam, mirrored, step)
            assert np.max(np.abs(table - direct) / np.abs(direct)) <= 1e-13


def test_only_uniform_grids_take_the_phase_recurrence(monkeypatch):
    uniform, table = [], ham._phase_table

    def spy(ts, lam, mirrored, step):
        uniform.append(step is not None)
        return table(ts, lam, mirrored, step)

    monkeypatch.setattr(ham, "_phase_table", spy)
    d = ham.detuning_diagonal(ham.DetuningProfile(xp.BENCHMARK_DETUNINGS_8Q), 8)
    even = ham.time_grid(4 * math.pi, 400)
    uneven = np.sort(np.random.default_rng(4).uniform(0.0, 4 * math.pi, 400))
    for ts, expected in ((even, True), (uneven, False), (even[:1], False)):
        uniform.clear()
        ham.coupled_success_series(0.125, 2**-4, 0, d, ts)
        assert uniform == [expected, expected]
    # the direct table is the plain exponential, node by node
    lam = np.linspace(-1.0, 1.0, 9)
    assert table(uneven, lam, 0, None).tobytes() == \
        np.exp(np.multiply.outer(uneven, -1j * lam)).tobytes()


def test_sign_table_is_refused_before_allocating(monkeypatch):
    # 3 int8 rows of 8 states plus one int64 row: 88 bytes
    monkeypatch.setattr(ham, "physical_memory", lambda: 88)
    assert ham.sign_columns(3, np.arange(8))[:, 5].tolist() == [-1, 1, -1]

    def no_allocation(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(ham, "physical_memory", lambda: 87)
    monkeypatch.setattr(ham.np, "empty", no_allocation)
    message = ("the detuned series on 3 qubits needs 88 bytes for its sign table of 8 states "
               "(--m), more than the 87 bytes of physical memory")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ham.sign_columns(3, np.arange(8))
