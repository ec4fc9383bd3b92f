import math

import numpy as np
import pytest

from groverdfs import gates
from groverdfs.statevec import apply, basis_state

SQRT2 = math.sqrt(2.0)


def test_hadamard_one_qubit_matrix():
    expected = np.array([[1, 1], [1, -1]]) / SQRT2
    assert np.allclose(gates.hadamard(1).matrix, expected, atol=1e-15)


def test_hadamard_two_qubit_matrix():
    expected = 0.5 * np.array([
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ])
    assert np.allclose(gates.hadamard(2).matrix, expected, atol=1e-15)


def test_hadamard_entry_bitwise_product():
    # i = 1 = 01, j = 3 = 11 share one set bit, so the entry is -1/2
    assert gates.hadamard(2).matrix[1, 3] == pytest.approx(-0.5)


def test_hadamard_rejects_bad_m():
    with pytest.raises(ValueError):
        gates.hadamard(0)


@pytest.mark.parametrize("m", range(1, 9))
def test_hadamard_self_inverse(m):
    h = gates.hadamard(m)
    assert h.is_flagged("unitary") and h.is_flagged("hermitian")
    assert np.max(np.abs(h.matrix @ h.matrix - np.eye(2**m))) <= 1e-10


@pytest.mark.parametrize("m", [9, 10])
def test_hadamard_self_inverse_large(m):
    h = gates.hadamard(m).matrix
    assert np.max(np.abs(h @ h - np.eye(2**m))) <= 1e-10


@pytest.mark.parametrize("m", range(2, 9))
def test_hadamard_is_tensor_power(m):
    h1 = gates.hadamard(1).matrix
    kron = np.array([[1.0]])
    for _ in range(m):
        kron = np.kron(kron, h1)
    assert np.max(np.abs(gates.hadamard(m).matrix - kron)) <= 1e-12


def test_phase_inversion_initial_state():
    assert np.allclose(gates.phase_inversion(2, 0).matrix, np.diag([-1, 1, 1, 1]))


def test_phase_inversion_involution():
    op = gates.phase_inversion(3, 5).matrix
    assert np.allclose(op @ op, np.eye(8))


def test_phase_inversion_flips_marked_amplitude():
    # applied to the uniform superposition it flips exactly the marked entry
    uniform = apply(gates.hadamard(3), basis_state(3, 0))
    flipped = apply(gates.phase_inversion(3, 7), uniform)
    expected = np.full(8, 1 / math.sqrt(8))
    expected[7] *= -1
    assert np.allclose(flipped.amplitudes, expected, atol=1e-14)


def test_phase_inversion_out_of_range():
    with pytest.raises(ValueError):
        gates.phase_inversion(2, 4)


def test_oracle_single_qubit_is_cnot_truth_table():
    # f(x) = x: (x, y) -> (x, x XOR y)
    expected = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert np.array_equal(gates.oracle(1, 1).matrix.real, expected)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_oracle_is_permutation_involution(m):
    n = 2 ** (m + 1)
    for x0 in range(2**m):
        u = gates.oracle(m, x0).matrix.real
        assert np.all((u == 0) | (u == 1))
        assert np.array_equal(np.count_nonzero(u, axis=0), np.ones(n, dtype=int))
        assert np.array_equal(np.count_nonzero(u, axis=1), np.ones(n, dtype=int))
        assert np.array_equal(u @ u, np.eye(n))


def test_oracle_ancilla_branches():
    m, x0 = 3, 5
    u = gates.oracle(m, x0).matrix
    a0 = np.array([1, -1]) / SQRT2
    for x in range(2**m):
        inp = np.kron(np.eye(2**m)[x], a0)
        out = u @ inp
        sign = -1.0 if x == x0 else 1.0
        assert np.allclose(out, sign * inp, atol=1e-14)


def test_phase_inversion_via_oracle_specific_values():
    assert np.allclose(gates.phase_inversion_via_oracle(2, 3).matrix, np.diag([1, 1, 1, -1]))
    assert np.allclose(gates.phase_inversion_via_oracle(1, 0).matrix, np.diag([-1, 1]))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_phase_inversion_via_oracle_matches_direct(m):
    for x0 in range(2**m):
        via = gates.phase_inversion_via_oracle(m, x0).matrix
        direct = gates.phase_inversion(m, x0).matrix
        assert np.max(np.abs(via - direct)) <= 1e-12


def test_cnot_21_matrix():
    expected = np.array([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ])
    assert np.array_equal(gates.cnot(2, control=2, target=1).matrix.real, expected)


def test_cnot_control_off_leaves_state():
    op = gates.cnot(3, control=1, target=3)
    psi = basis_state(3, 0b011)  # control qubit 1 is 0
    assert np.allclose(apply(op, psi).amplitudes, psi.amplitudes)


def test_cnot_involution():
    op = gates.cnot(3, control=2, target=1).matrix
    assert np.allclose(op @ op, np.eye(8))


def test_cnot_bit_semantics():
    m = 3
    op = gates.cnot(m, control=1, target=3).matrix
    for x in range(2**m):
        expected = x ^ 0b001 if (x >> 2) & 1 else x
        out = np.flatnonzero(op[:, x])
        assert list(out) == [expected]


def test_cnot_argument_validation():
    with pytest.raises(ValueError):
        gates.cnot(2, 1, 1)
    with pytest.raises(ValueError):
        gates.cnot(2, 0, 1)
    with pytest.raises(ValueError):
        gates.cnot(2, 1, 3)


def test_h_tilde_matrix():
    expected = np.array([[-1, 1], [1, 1]]) / SQRT2
    assert np.allclose(gates.h_tilde().matrix, expected, atol=1e-15)


def test_h_tilde_is_y_conjugated_hadamard():
    product = (-1j * gates.pauli("y").matrix) @ gates.hadamard(1).matrix
    assert np.allclose(gates.h_tilde().matrix, product, atol=1e-15)


def test_h_tilde_unitary_closure():
    ht = gates.h_tilde().matrix
    square = ht @ ht
    assert np.allclose(square @ square.conj().T, np.eye(2), atol=1e-12)


def test_pauli_matrices():
    assert np.array_equal(gates.pauli("z").matrix.real, np.diag([1, -1]))
    with pytest.raises(ValueError):
        gates.pauli("w")


@pytest.mark.parametrize("m", range(1, 11))
def test_walsh_hadamard_matches_dense_matrix(m):
    rng = np.random.default_rng(100 + m)
    psi = rng.normal(size=2**m) + 1j * rng.normal(size=2**m)
    dense = gates.hadamard(m).matrix @ psi
    out = psi.copy()
    assert gates.walsh_hadamard(out) is out
    assert np.max(np.abs(out - dense)) <= 1e-12 * max(1.0, float(np.max(np.abs(dense))))


@pytest.mark.parametrize("m", [1, 4, 7])
def test_walsh_hadamard_columns_are_exact(m):
    # a basis vector maps to a Hadamard column bit for bit: entries are +/- 2^(-m/2)
    for x0 in (0, 2**m - 1):
        amps = np.zeros(2**m, dtype=complex)
        amps[x0] = 1.0
        assert np.array_equal(gates.walsh_hadamard(amps), gates.hadamard(m).matrix[:, x0])


def test_walsh_hadamard_rejects_bad_length():
    for n in (1, 3, 12):
        with pytest.raises(ValueError):
            gates.walsh_hadamard(np.ones(n, dtype=complex))


@pytest.mark.parametrize("build", [
    lambda: gates.hadamard(3),
    lambda: gates.phase_inversion(3, 2),
    lambda: gates.oracle(2, 1),
    lambda: gates.cnot(3, 1, 2),
    lambda: gates.h_tilde(),
    lambda: gates.pauli("y"),
])
def test_every_gate_is_unitary(build):
    op = build()
    assert np.max(np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.dim))) <= 1e-10
