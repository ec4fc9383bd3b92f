import math

import numpy as np
import pytest

from groverdfs import gates, grover
from groverdfs.statevec import apply, basis_state, inner_product


def closed_form_probability(m, j):
    """Independent oracle: success probability sin^2((2j+1) arcsin(2^(-m/2)))."""
    return math.sin((2 * j + 1) * math.asin(2.0 ** (-m / 2.0))) ** 2


def diffusion_recursion(m, x0, n):
    """Independent oracle: sign flip of the marked entry plus inversion about the mean."""
    amps = np.full(2**m, 2.0 ** (-m / 2.0))
    for _ in range(n):
        amps[x0] *= -1.0
        amps = 2.0 * amps.mean() - amps
    return amps


def test_grover_step_is_the_defining_product():
    inst = grover.GroverInstance(2, 3)
    h = gates.hadamard(2).matrix
    direct = -(gates.phase_inversion(2, 0).matrix @ h @ gates.phase_inversion(2, 3).matrix @ h)
    assert np.max(np.abs(grover.grover_step(inst).matrix - direct)) <= 1e-12


def test_grover_step_unitary():
    q = grover.grover_step(grover.GroverInstance(3, 4))
    assert q.is_flagged("unitary")


@pytest.mark.parametrize("m", range(1, 7))
def test_matrix_free_step_matches_dense_step(m):
    # Q^n |psi> through apply_step against the oracle-built dense Q, every x0
    rng = np.random.default_rng(m)
    psi0 = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    for x0 in range(2**m):
        inst = grover.GroverInstance(m, x0)
        q = grover.grover_step(inst).matrix
        dense, fast = psi0.copy(), psi0.copy()
        for n in range(1, 6):
            dense = q @ dense
            assert grover.apply_step(inst, fast) is fast
            assert np.max(np.abs(fast - dense)) <= 1e-12


def test_apply_step_rejects_wrong_length():
    with pytest.raises(ValueError):
        grover.apply_step(grover.GroverInstance(3, 1), np.ones(4, dtype=complex))


@pytest.mark.parametrize("m", range(1, 7))
def test_step_iterates_match_dense_powers(m):
    inst = grover.GroverInstance(m, 2**m - 1)
    q = grover.grover_step(inst).matrix
    psi = inst.start_state().amplitudes
    for n, amps in enumerate(grover.step_iterates(inst, 4 * inst.n_optimal + 1)):
        assert np.max(np.abs(amps - psi)) <= 1e-12, n
        psi = q @ psi


def test_negative_step_counts_rejected():
    inst = grover.GroverInstance(3, 1)
    with pytest.raises(ValueError):
        grover.run_grover(inst, -1)
    with pytest.raises(ValueError):
        grover.success_probabilities(inst, -1)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_two_level_action(m):
    # Q maps (|s>, |v>) to ((1-4e^2)|s> + 2e|v>, -2e|s> + |v>) and leaves
    # nothing outside their span
    inst = grover.GroverInstance(m, 1)
    eps = inst.epsilon
    coeffs, residual = grover.two_level_matrix(inst)
    expected = np.array([[1 - 4 * eps**2, 2 * eps], [-2 * eps, 1.0]])
    assert np.max(np.abs(coeffs - expected)) <= 1e-12
    assert residual <= 1e-12


def test_rotation_angle_three_qubit_case():
    # eps = 1/2 gives arcsin(sqrt(3)/2) = pi/3
    assert grover.rotation_angle(grover.GroverInstance(2, 0)) == pytest.approx(math.pi / 3)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_rotation_angle_matches_step_matrix(m):
    # measure Q's rotation in the orthonormalized plane of |s> and |v>
    inst = grover.GroverInstance(m, 2**m - 1)
    q = grover.grover_step(inst).matrix
    s = inst.start_state().amplitudes.real
    v = inst.target_state().amplitudes.real
    w = v - inst.epsilon * s
    w /= np.linalg.norm(w)
    image = (q @ s).real
    angle = math.atan2(float(w @ image), float(s @ image))
    assert angle == pytest.approx(grover.rotation_angle(inst), abs=1e-12)


def test_run_grover_four_items_one_step():
    for x0 in range(4):
        assert grover.success_probability(grover.GroverInstance(2, x0), 1) == pytest.approx(1.0, abs=1e-12)


def test_run_grover_eight_items_one_step():
    final = grover.run_grover(grover.GroverInstance(3, 7), 1)
    assert final.amplitudes[7].real == pytest.approx(5.0 / (4.0 * math.sqrt(2.0)), abs=1e-13)
    assert final.probability(7) == pytest.approx(25.0 / 32.0, abs=1e-13)


def test_run_grover_matches_diffusion_recursion():
    for m, x0, n in [(2, 1, 1), (3, 7, 1), (3, 2, 2), (4, 9, 3)]:
        final = grover.run_grover(grover.GroverInstance(m, x0), n)
        assert np.allclose(final.amplitudes.real, diffusion_recursion(m, x0, n), atol=1e-12)
        assert np.max(np.abs(final.amplitudes.imag)) <= 1e-13


def test_run_grover_zero_steps_is_uniform():
    final = grover.run_grover(grover.GroverInstance(3, 5), 0)
    assert np.allclose(final.probabilities(), np.full(8, 1 / 8), atol=1e-14)


def test_run_grover_independent_of_oracle_route():
    m, x0, n = 3, 6, 2
    final = grover.run_grover(grover.GroverInstance(m, x0), n)
    h = gates.hadamard(m).matrix
    q = -(gates.phase_inversion(m, 0).matrix @ h @ gates.phase_inversion(m, x0).matrix @ h)
    psi = basis_state(m, 0).amplitudes
    for _ in range(n):
        psi = q @ psi
    assert np.max(np.abs(final.amplitudes - h @ psi)) <= 1e-12


def test_marked_item_symmetry():
    # permuting the marked item permutes the final amplitudes: the marked
    # entry and the common off-marked value do not depend on x0
    m, n = 3, 1
    finals = [grover.run_grover(grover.GroverInstance(m, x0), n).amplitudes.real for x0 in range(8)]
    marked = [f[x0] for x0, f in enumerate(finals)]
    assert np.allclose(marked, marked[0], atol=1e-13)
    for x0, f in enumerate(finals):
        rest = np.delete(f, x0)
        assert np.allclose(rest, rest[0], atol=1e-13)


def test_success_amplitude_peak():
    # (2j+1) arcsin(eps) = pi/2 gives amplitude exactly 1: m = 2, j = 1
    assert grover.success_amplitude(1, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_success_amplitude_matches_gate_level():
    amp = grover.success_amplitude(1, 2.0 ** -1.5)
    final = grover.run_grover(grover.GroverInstance(3, 7), 1)
    assert amp == pytest.approx(final.amplitudes[7].real, abs=1e-12)
    assert amp == pytest.approx(0.8838834764831844, abs=1e-13)


def test_success_amplitude_domain():
    with pytest.raises(ValueError):
        grover.success_amplitude(1, 0.0)
    with pytest.raises(ValueError):
        grover.success_amplitude(1, 1.5)


@pytest.mark.parametrize("m,x0", [(2, 0), (3, 7), (4, 11), (5, 17)])
def test_closed_form_equivalence_small(m, x0):
    inst = grover.GroverInstance(m, x0)
    probs = grover.success_probabilities(inst, 4 * inst.n_optimal)
    for j, p in enumerate(probs):
        assert p == pytest.approx(closed_form_probability(m, j), abs=1e-10)


def test_optimal_iterations_values():
    two = grover.optimal_iterations(2)
    assert two.exact == pytest.approx(1.0, abs=1e-12)
    assert two.rounded == 1
    three = grover.optimal_iterations(3)
    assert three.exact == pytest.approx(1.6734079041462837, abs=1e-12)
    assert three.rounded == 2
    ten = grover.optimal_iterations(10)
    assert ten.rounded == 25
    assert ten.asymptotic == pytest.approx(8 * math.pi, abs=1e-12)


def test_optimal_iterations_maximizes_success():
    # the rounded count beats its neighbors wherever the closed form does
    for m in range(2, 11):
        n = grover.optimal_iterations(m).rounded
        best = closed_form_probability(m, n)
        for other in (n - 1, n + 1):
            if other >= 0:
                assert best >= closed_form_probability(m, other) - 1e-12


@pytest.mark.parametrize("m", range(2, 11))
def test_success_at_optimal_count(m):
    # the rounded optimal count reaches at least 1 - 2^-m
    p = closed_form_probability(m, grover.optimal_iterations(m).rounded)
    assert p >= 1.0 - 2.0**-m - 1e-12


def test_instance_validation():
    with pytest.raises(ValueError):
        grover.GroverInstance(0, 0)
    with pytest.raises(ValueError):
        grover.GroverInstance(2, 4)
    inst = grover.GroverInstance(4, 3)
    assert inst.epsilon == 0.25
    assert inst.tau == 1.0
    assert inst.n_optimal == grover.optimal_iterations(4).rounded


def test_target_state_is_hadamard_column():
    inst = grover.GroverInstance(3, 5)
    v = apply(gates.hadamard(3), basis_state(3, 5))
    assert np.allclose(inst.target_state().amplitudes, v.amplitudes)
    assert inner_product(inst.start_state(), inst.target_state()) == pytest.approx(inst.epsilon)
