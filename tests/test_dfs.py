import math
import tracemalloc

import numpy as np
import pytest

from groverdfs import dfs, gates, hamiltonian
from groverdfs.hamiltonian import DetuningProfile, detuning_diagonal
from groverdfs.statevec import StateVector, basis_state, embed_single_qubit


def test_balanced_code_four_qubits():
    code = dfs.balanced_code(4)
    assert code.basis_states == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)
    assert code.dimension == 6
    assert code.logical_qubits == 2
    assert code.code_indices == (3, 5, 6, 9)


def test_balanced_code_two_qubits():
    code = dfs.balanced_code(2)
    assert code.basis_states == (0b01, 0b10)
    assert code.logical_qubits == 1


def test_balanced_code_eight_qubits():
    code = dfs.balanced_code(8)
    assert code.dimension == 70
    assert code.logical_qubits == 6


def test_balanced_code_rejects_odd():
    with pytest.raises(ValueError):
        dfs.balanced_code(3)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_isometry_columns_are_basis_states(m):
    code = dfs.balanced_code(m)
    v = code.isometry
    assert np.allclose(v.conj().T @ v, np.eye(2**code.logical_qubits), atol=1e-12)
    for k, b in enumerate(code.code_indices):
        col = v[:, k]
        assert col[b] == 1.0
        assert np.count_nonzero(col) == 1


def test_sixteen_qubit_code_builds_no_dense_isometry():
    # the dense 2^16 x 2^13 complex isometry alone would take 8.6 GB
    tracemalloc.start()
    try:
        code = dfs.balanced_code.__wrapped__(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert code.dimension == 12870 and code.logical_qubits == 13
    assert "isometry" not in vars(code)


def test_isometry_is_built_once_and_read_only():
    code = dfs.balanced_code.__wrapped__(4)
    assert code.isometry is code.isometry
    assert not code.isometry.flags.writeable


def test_code_dimension_values():
    assert dfs.code_dimension(4, 2) == 6
    assert dfs.code_dimension(8, 4) == 70
    assert dfs.code_dimension(7, 0) == 1
    with pytest.raises(ValueError):
        dfs.code_dimension(4, 5)


@pytest.mark.parametrize("m", range(1, 17))
def test_code_dimension_matches_enumeration(m):
    for q in range(m + 1):
        count = sum(1 for x in range(2**m) if x.bit_count() == q)
        assert dfs.code_dimension(m, q) == count


def test_logical_qubit_count_values():
    four = dfs.logical_qubit_count(4)
    assert four.exact == pytest.approx(math.log2(6), abs=1e-12)
    assert four.floor == 2
    eight = dfs.logical_qubit_count(8)
    assert eight.exact == pytest.approx(6.129283016944966, abs=1e-12)
    assert eight.floor == 6
    two = dfs.logical_qubit_count(2)
    assert two.exact == pytest.approx(1.0, abs=1e-14)
    assert two.floor == 1
    with pytest.raises(ValueError):
        dfs.logical_qubit_count(5)


def test_logical_count_approaches_asymptote():
    gaps = []
    for m in range(8, 65, 2):
        lq = dfs.logical_qubit_count(m)
        gaps.append(abs(lq.exact - lq.asymptotic))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_hamming_bound_values():
    assert dfs.hamming_bound_logical(5, 1) == pytest.approx(1.0, abs=1e-14)
    assert dfs.hamming_bound_logical(8, 1) == pytest.approx(8 - math.log2(25), abs=1e-12)
    assert dfs.hamming_bound_logical(8, 1) == pytest.approx(3.356, abs=1e-3)
    assert dfs.hamming_bound_logical(9, 0) == 9.0


@pytest.mark.parametrize("m", range(1, 33))
def test_hamming_bound_closed_form_t1(m):
    assert dfs.hamming_bound_logical(m, 1) == pytest.approx(m - math.log2(3 * m + 1), abs=1e-12)


def test_redundancy_gap_eight_qubits():
    gap = dfs.redundancy_gap(8)
    assert gap.gap == pytest.approx(6.129283016944966 - (8 - math.log2(25)), abs=1e-12)
    assert gap.gap == pytest.approx(2.773, abs=1e-3)
    assert gap.gap > 0


def test_redundancy_gap_positive_over_range():
    for m in range(4, 65, 2):
        assert dfs.redundancy_gap(m).gap > 0


def test_redundancy_gap_near_asymptote():
    gap = dfs.redundancy_gap(64)
    assert gap.asymptotic == pytest.approx(
        0.5 * math.log2(64) + math.log2(3 * math.sqrt(2) / math.sqrt(math.pi)), abs=1e-12)
    assert abs(gap.gap - gap.asymptotic) < 0.25


def test_verify_error_free_equal_detunings():
    code = dfs.balanced_code(4)
    cert = dfs.verify_error_free(code, dfs.collective_z(4, 1.0))
    assert cert.eigenvalue == 0
    assert cert.residual_norm < 1e-12
    assert cert.is_valid


def test_verify_error_free_unequal_detunings_fails():
    code = dfs.balanced_code(4)
    profile = DetuningProfile((1.0, 2.0, 3.0, 4.0), scale=1.0)
    cert = dfs.verify_error_free(code, detuning_diagonal(profile, 4))
    # code words |0011>, |0101>, |0110>, |1001> have eigenvalues -4, -2, 0, 0
    assert cert.eigenvalue == pytest.approx(-4.0)
    assert cert.residual_norm == pytest.approx(4.0)
    assert not cert.is_valid


def test_verify_error_free_zero_operator():
    code = dfs.balanced_code(2)
    cert = dfs.verify_error_free(code, np.zeros(4))
    assert cert.eigenvalue == 0
    assert cert.residual_norm == 0
    assert cert.is_valid


def test_verify_error_free_dimension_check():
    with pytest.raises(ValueError):
        dfs.verify_error_free(dfs.balanced_code(4), dfs.collective_z(2))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("equal", [True, False], ids=["equal", "unequal"])
def test_verify_error_free_matches_dense_reference(m, equal):
    rng = np.random.default_rng(m)
    code = dfs.balanced_code(m)
    d = rng.normal(size=2**m)
    if equal:
        d[list(code.code_indices)] = d[code.code_indices[0]]
    cert = dfs.verify_error_free(code, d)
    # E V = c V with E = diag(d) and the dense isometry V
    v = code.isometry
    c = v[:, 0].conj() @ np.diag(d) @ v[:, 0]
    residual = np.max(np.abs(np.diag(d) @ v - c * v))
    assert cert.eigenvalue == c
    assert cert.residual_norm == residual
    assert cert.is_valid == equal
    assert (residual == 0) == equal


def test_balanced_code_refuses_words_beyond_memory(monkeypatch):
    # 40 bytes a word: the C(12, 6) = 924 words need 36960 bytes; the cache is
    # bypassed, so the check runs whatever earlier tests built
    build = dfs.balanced_code.__wrapped__
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 36959)
    with pytest.raises(ValueError, match=r"^the balanced code on 12 qubits needs 36960 bytes "
                                         r"for its 924 words \(--m\), more than the 36959 "):
        build(12)
    monkeypatch.setattr(hamiltonian, "physical_memory", lambda: 36960)
    assert build(12).dimension == 924


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_balanced_states_are_null_space_of_collective_z(m):
    diag = dfs.collective_z(m, 0.8)
    code = dfs.balanced_code(m)
    for b in code.basis_states:
        assert diag[b] == 0.0
    # the balanced states exhaust the zero eigenspace
    assert np.count_nonzero(diag == 0.0) == code.dimension


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_collective_z_matches_embedded_sum(m):
    summed = sum(embed_single_qubit(gates.pauli("z"), m, i).matrix for i in range(1, m + 1))
    assert np.array_equal(np.diag(dfs.collective_z(m, 1.0)), summed)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_collective_z_matches_detuning_diagonal(m):
    dense = dfs.collective_z(m, 0.8)
    diag = detuning_diagonal(DetuningProfile.equal(m, 0.8), m) / (2.0 ** (-m / 2.0))
    assert np.allclose(dense, diag, atol=1e-13)


def test_logical_hadamard_mappings():
    lh = dfs.logical_hadamard_2phys()
    assert lh.is_flagged("unitary")
    s01 = lh.matrix @ basis_state(2, 0b01).amplitudes
    s10 = lh.matrix @ basis_state(2, 0b10).amplitudes
    r = 1 / math.sqrt(2)
    assert np.allclose(s01, [0, r, r, 0], atol=1e-12)
    assert np.allclose(s10, [0, r, -r, 0], atol=1e-12)


def test_logical_hadamard_block_pattern():
    expected = np.array([
        [-1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
        [1, 0, 0, 1],
    ]) / math.sqrt(2)
    assert np.allclose(dfs.logical_hadamard_2phys().matrix, expected, atol=1e-12)


def test_logical_hadamard_no_leakage_but_intermediate_mixes():
    code = dfs.balanced_code(2)
    product = dfs.logical_hadamard_2phys()
    assert dfs.code_mixing_norm(product, code) == 0.0
    middle = embed_single_qubit(gates.h_tilde(), 2, 2)
    assert dfs.code_mixing_norm(middle, code) > 0.1


def test_logical_hadamard_squares_to_identity_on_code():
    code = dfs.balanced_code(2)
    lh = dfs.logical_hadamard_2phys().matrix
    square = lh @ lh
    v = code.isometry
    assert np.max(np.abs(v.conj().T @ square @ v - np.eye(2))) <= 1e-12


def test_encode_first_logical_state():
    code = dfs.balanced_code(4)
    phys = dfs.encode(code, basis_state(2, 0))
    assert phys.amplitudes[0b0011] == 1.0
    assert np.count_nonzero(phys.amplitudes) == 1


def test_encode_plus_state_two_qubits():
    code = dfs.balanced_code(2)
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    phys = dfs.encode(code, plus)
    r = 1 / math.sqrt(2)
    assert np.allclose(phys.amplitudes, [0, r, r, 0], atol=1e-14)


def test_encode_preserves_inner_products():
    rng = np.random.default_rng(17)
    code = dfs.balanced_code(6)
    l = code.logical_qubits
    for _ in range(5):
        a = rng.normal(size=2**l) + 1j * rng.normal(size=2**l)
        b = rng.normal(size=2**l) + 1j * rng.normal(size=2**l)
        sa = StateVector(l, a / np.linalg.norm(a))
        sb = StateVector(l, b / np.linalg.norm(b))
        before = np.vdot(sa.amplitudes, sb.amplitudes)
        after = np.vdot(dfs.encode(code, sa).amplitudes, dfs.encode(code, sb).amplitudes)
        assert after == pytest.approx(before, abs=1e-12)


def test_encode_supported_only_on_balanced_states():
    code = dfs.balanced_code(4)
    rng = np.random.default_rng(4)
    a = rng.normal(size=4)
    psi = dfs.encode(code, StateVector(2, a / np.linalg.norm(a)))
    support = set(np.flatnonzero(np.abs(psi.amplitudes) > 0))
    assert support <= set(code.basis_states)


def test_encode_dimension_mismatch():
    with pytest.raises(ValueError):
        dfs.encode(dfs.balanced_code(4), basis_state(3, 0))
