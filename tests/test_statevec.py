import math

import numpy as np
import pytest

from groverdfs import gates
from groverdfs import statevec as sv


def test_basis_state_single_qubit():
    assert np.array_equal(sv.basis_state(1, 0).amplitudes, [1, 0])


def test_basis_state_all_ones():
    psi = sv.basis_state(3, 7)
    assert psi.amplitudes[7] == 1
    assert np.count_nonzero(psi.amplitudes) == 1


def test_basis_state_bit_convention():
    # |01> on two qubits is index 1: qubit 1 is the most significant bit
    psi = sv.basis_state(2, 1)
    assert psi.amplitudes[1] == 1


@pytest.mark.parametrize("m,x", [(2, 4), (2, -1), (1, 2)])
def test_basis_state_out_of_range(m, x):
    with pytest.raises(ValueError):
        sv.basis_state(m, x)


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        sv.StateVector(1, np.array([1.0, 1.0]))


def test_state_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        sv.StateVector(2, np.array([1.0, 0.0]))


def test_state_vector_immutable():
    psi = sv.basis_state(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_apply_identity():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = sv.StateVector(3, amps / np.linalg.norm(amps))
    eye = sv.DenseOperator(np.eye(8), frozenset({"unitary", "hermitian", "diagonal"}))
    assert np.allclose(sv.apply(eye, psi).amplitudes, psi.amplitudes)


def test_apply_hadamard_spreads_zero():
    out = sv.apply(gates.hadamard(1), sv.basis_state(1, 0))
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_apply_involution_restores_state():
    psi = sv.apply(gates.hadamard(2), sv.basis_state(2, 2))
    flip = gates.phase_inversion(2, 0)
    back = sv.apply(flip, sv.apply(flip, psi))
    assert np.allclose(back.amplitudes, psi.amplitudes, atol=1e-14)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        sv.apply(gates.hadamard(2), sv.basis_state(1, 0))


def test_apply_norm_breaking_operator_rejected():
    doubled = sv.DenseOperator(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        sv.apply(doubled, sv.basis_state(1, 0))


def test_operator_flag_validation():
    with pytest.raises(ValueError):
        sv.DenseOperator(2.0 * np.eye(2), frozenset({"unitary"}))
    with pytest.raises(ValueError):
        sv.DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex), frozenset({"hermitian"}))
    with pytest.raises(ValueError):
        sv.DenseOperator(np.array([[1, 1], [0, 1]], dtype=complex), frozenset({"diagonal"}))
    with pytest.raises(ValueError):
        sv.DenseOperator(np.eye(2), frozenset({"sparse"}))


def test_operator_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        sv.DenseOperator(np.eye(3))


def test_embed_single_qubit_identity_case():
    z = gates.pauli("z")
    assert np.array_equal(sv.embed_single_qubit(z, 1, 1).matrix, z.matrix)


def test_embed_sign_pattern_on_balanced_state():
    # sigma_z on qubit 1 of |0011> gives +1, on qubit 4 gives -1
    z = gates.pauli("z")
    psi = sv.basis_state(4, 0b0011)
    plus = sv.apply(sv.embed_single_qubit(z, 4, 1), psi)
    minus = sv.apply(sv.embed_single_qubit(z, 4, 4), psi)
    assert np.allclose(plus.amplitudes, psi.amplitudes)
    assert np.allclose(minus.amplitudes, -psi.amplitudes)


def test_embed_position_out_of_range():
    with pytest.raises(ValueError):
        sv.embed_single_qubit(gates.pauli("z"), 3, 4)
    with pytest.raises(ValueError):
        sv.embed_single_qubit(gates.pauli("z"), 3, 0)


def test_embed_tensor_structure():
    x = gates.pauli("x")
    y = gates.pauli("y")
    both = sv.embed_single_qubit(x, 2, 1).matrix @ sv.embed_single_qubit(y, 2, 2).matrix
    assert np.allclose(both, np.kron(x.matrix, y.matrix))


def test_embedded_z_operators_commute():
    z = gates.pauli("z")
    ops = [sv.embed_single_qubit(z, 4, i).matrix for i in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            assert np.max(np.abs(comm)) <= 1e-12


def test_inner_product_normalization():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi = sv.StateVector(4, amps / np.linalg.norm(amps))
    assert sv.inner_product(psi, psi) == pytest.approx(1.0)


def test_inner_product_uniform_overlap():
    # <s|H|x0> = 2^(-m/2) for every x0; m = 4 gives 0.25
    s = sv.basis_state(4, 0)
    for x0 in (0, 5, 15):
        v = sv.apply(gates.hadamard(4), sv.basis_state(4, x0))
        assert sv.inner_product(s, v) == pytest.approx(0.25, abs=1e-14)


def test_inner_product_orthogonal_basis():
    assert sv.inner_product(sv.basis_state(2, 1), sv.basis_state(2, 2)) == 0


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError):
        sv.inner_product(sv.basis_state(1, 0), sv.basis_state(2, 0))


def _random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return sv.DenseOperator((a + a.conj().T) / 2, frozenset({"hermitian"}))


def evolve(h, t, psi):
    """exp(-i H t) psi as a StateVector, through the one-point grid of evolve_grid."""
    return sv.StateVector(psi.num_qubits, sv.evolve_grid(h, [t], psi)[0])


def test_evolve_grid_zero_time():
    psi = sv.apply(gates.hadamard(2), sv.basis_state(2, 3))
    h = _random_hermitian(np.random.default_rng(0), 4)
    assert np.allclose(evolve(h, 0.0, psi).amplitudes, psi.amplitudes)


def test_evolve_grid_eigenstate_phase():
    omega = 0.37
    h = sv.DenseOperator(omega * gates.pauli("z").matrix, frozenset({"hermitian", "diagonal"}))
    psi = sv.basis_state(1, 0)
    t = 2.5
    out = evolve(h, t, psi)
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * omega * t), abs=1e-12)
    assert np.allclose(out.probabilities(), psi.probabilities(), atol=1e-12)


def test_evolve_grid_rabi_flip():
    # H = sigma_x swaps |0> and |1> after a quarter period t = pi/2
    h = sv.DenseOperator(gates.pauli("x").matrix, frozenset({"hermitian", "unitary"}))
    out = evolve(h, math.pi / 2, sv.basis_state(1, 0))
    assert out.probability(1) == pytest.approx(1.0, abs=1e-12)


def test_evolve_grid_rejects_non_hermitian():
    tilt = sv.DenseOperator(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        sv.evolve_grid(tilt, [1.0], sv.basis_state(1, 0))


def test_evolve_grid_rejects_dimension_mismatch():
    h = _random_hermitian(np.random.default_rng(1), 4)
    with pytest.raises(ValueError):
        sv.evolve_grid(h, [1.0], sv.basis_state(1, 0))


@pytest.mark.parametrize("dim_qubits", [1, 2, 3])
def test_evolution_preserves_norm(dim_qubits):
    rng = np.random.default_rng(11 + dim_qubits)
    h = _random_hermitian(rng, 2**dim_qubits)
    psi = sv.basis_state(dim_qubits, 0)
    for t in (0.1, 1.0, 17.3):
        out = evolve(h, t, psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


def test_evolution_composes():
    rng = np.random.default_rng(23)
    h = _random_hermitian(rng, 8)
    psi = sv.basis_state(3, 5)
    t1, t2 = 0.7, 2.2
    once = evolve(h, t1 + t2, psi)
    twice = evolve(h, t2, evolve(h, t1, psi))
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= 1e-9


def test_evolve_grid_matches_pointwise():
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 8)
    psi = sv.basis_state(3, 2)
    times = [0.0, 0.4, 1.7, 3.1]
    grid = sv.evolve_grid(h, times, psi)
    w, u = np.linalg.eigh(h.matrix)
    for k, t in enumerate(times):
        single = u @ (np.exp(-1j * w * t) * (u.conj().T @ psi.amplitudes))
        assert np.allclose(grid[k], single, atol=1e-12)


def test_bit_at_convention():
    # index 3 on four qubits is |0011>
    assert [sv.bit_at(3, i, 4) for i in range(1, 5)] == [0, 0, 1, 1]


def _full_eigh_evolution(h, times, psi):
    """exp(-i H t) psi over the grid from the eigendecomposition of all of H."""
    w, u = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, w)) * (u.conj().T @ psi)) @ u.T


@pytest.mark.parametrize("seed", range(8))
def test_evolve_grid_solves_only_the_reached_block(seed):
    # hermitian chains (tridiagonal blocks) in a randomly permuted basis: psi0
    # on a random subset reaches exactly the chains that subset touches, one
    # link per growth step
    rng = np.random.default_rng(seed)
    m, blocks = 5, 5
    dim = 2**m
    sizes = rng.multinomial(dim - blocks, np.full(blocks, 1 / blocks)) + 1
    chains = np.split(rng.permutation(dim), np.cumsum(sizes)[:-1])
    h = np.zeros((dim, dim), dtype=complex)
    for chain in chains:
        h[chain, chain] = rng.normal(size=len(chain))
        links = rng.normal(size=len(chain) - 1) + 1j * rng.normal(size=len(chain) - 1)
        h[chain[:-1], chain[1:]] = links
        h[chain[1:], chain[:-1]] = links.conj()
    support = rng.choice(dim, size=rng.integers(1, 4), replace=False)
    psi = np.zeros(dim, dtype=complex)
    psi[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    psi /= np.linalg.norm(psi)
    reached = np.zeros(dim, dtype=bool)
    for chain in chains:
        reached[chain] |= np.isin(chain, support).any()
    times = np.linspace(0.0, 5.0, 9)
    states = sv.evolve_grid(sv.DenseOperator(h, frozenset({"hermitian"})), times,
                            sv.StateVector(m, psi))
    assert np.all(states[:, ~reached] == 0)
    assert np.max(np.abs(states - _full_eigh_evolution(h, times, psi))) <= 1e-13


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("encoded", [True, False], ids=["encoded", "unencoded"])
def test_evolve_grid_on_fig7_generators(m, encoded):
    # fig7's dense replay: the encoded generator reaches only the code words,
    # the unencoded one every basis state
    from groverdfs import dfs, hamiltonian
    from groverdfs.experiments import search_window
    from groverdfs.grover import GroverInstance

    rng = np.random.default_rng(m)
    profile = hamiltonian.DetuningProfile(tuple(0.5 + 0.5 * rng.normal(size=m)))
    code = dfs.balanced_code(m)
    if encoded:
        inst = GroverInstance(code.logical_qubits, 2**code.logical_qubits - 1)
        iso = code.isometry
        gen = iso @ hamiltonian.grover_hamiltonian(inst).operator.matrix @ iso.conj().T
        psi = iso @ inst.start_state().amplitudes
        reached = np.isin(np.arange(2**m), code.code_indices)
    else:
        inst = GroverInstance(m, 2**m - 1)
        gen = hamiltonian.grover_hamiltonian(inst).operator.matrix
        psi = inst.start_state().amplitudes
        reached = np.ones(2**m, dtype=bool)
    h = gen + np.diag(hamiltonian.detuning_diagonal(profile, m))
    times = search_window(code.logical_qubits)
    states = sv.evolve_grid(sv.DenseOperator(h, frozenset({"hermitian"})), times,
                            sv.StateVector(m, psi))
    assert np.all(states[:, ~reached] == 0)
    assert np.max(np.abs(states - _full_eigh_evolution(h, times, psi))) <= 1e-13


def _eigh_dtypes(monkeypatch):
    """The dtype of every matrix handed to np.linalg.eigh from now on."""
    dtypes, eigh = [], np.linalg.eigh

    def spy(a):
        dtypes.append(a.dtype)
        return eigh(a)

    monkeypatch.setattr(sv.np.linalg, "eigh", spy)
    return dtypes


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("encoded", [True, False], ids=["encoded", "unencoded"])
def test_fig7_generators_take_the_real_path(monkeypatch, m, encoded):
    # H_G couples the start state to every other reached state by imaginary
    # entries: the gauge i^layer makes the block real.  evolve_grid's eigh
    # runs first, then the reference's on the whole complex H
    dtypes = _eigh_dtypes(monkeypatch)
    test_evolve_grid_on_fig7_generators(m, encoded)
    assert dtypes == [np.float64, np.complex128]


@pytest.mark.parametrize("seed", range(4))
def test_imaginary_coupling_chains_take_the_real_path(monkeypatch, seed):
    # real detunings along chains in a permuted basis, imaginary links; psi0
    # on one state in each of two chains, so every link joins adjacent layers
    rng = np.random.default_rng(seed)
    m, dim = 5, 32
    chains = np.split(rng.permutation(dim), np.sort(rng.choice(np.arange(1, dim), 3, replace=False)))
    h = np.zeros((dim, dim), dtype=complex)
    for chain in chains:
        h[chain, chain] = rng.normal(size=len(chain))
        links = 1j * rng.normal(size=len(chain) - 1)
        h[chain[:-1], chain[1:]] = links
        h[chain[1:], chain[:-1]] = links.conj()
    psi = np.zeros(dim, dtype=complex)
    psi[[rng.choice(chain) for chain in chains[:2]]] = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    reached = np.isin(np.arange(dim), np.concatenate(chains[:2]))
    times = np.linspace(0.0, 5.0, 9)
    reference = _full_eigh_evolution(h, times, psi)
    dtypes = _eigh_dtypes(monkeypatch)
    states = sv.evolve_grid(sv.DenseOperator(h, frozenset({"hermitian"})), times,
                            sv.StateVector(m, psi))
    assert dtypes == [np.float64]
    assert np.all(states[:, ~reached] == 0)
    assert np.max(np.abs(states - reference)) <= 1e-13


@pytest.mark.parametrize("couplings", ["complex", "imaginary"])
def test_block_with_a_cycle_takes_the_complex_path(monkeypatch, couplings):
    # a triangle 0-1-2 puts 1 and 2 in the same layer, so the gauge leaves
    # their coupling complex or imaginary; state 3 is never reached
    rng = np.random.default_rng(0)
    links = rng.normal(size=3) * (1j if couplings == "imaginary" else 1.0)
    if couplings == "complex":
        links = links + 1j * rng.normal(size=3)
    h = np.zeros((4, 4), dtype=complex)
    h[[0, 1, 2], [0, 1, 2]] = rng.normal(size=3)
    h[[0, 1, 2], [1, 2, 0]] = links
    h[[1, 2, 0], [0, 1, 2]] = links.conj()
    h[3, 3] = 1.0
    times = np.linspace(0.0, 5.0, 9)
    psi = sv.basis_state(2, 0)
    reference = _full_eigh_evolution(h, times, psi.amplitudes)
    dtypes = _eigh_dtypes(monkeypatch)
    states = sv.evolve_grid(sv.DenseOperator(h, frozenset({"hermitian"})), times, psi)
    assert dtypes == [np.complex128]
    assert np.all(states[:, 3] == 0)
    assert np.max(np.abs(states - reference)) <= 1e-13


@pytest.mark.parametrize("points", [2, 3, 4, 399, 400, 401])
@pytest.mark.parametrize("t_max", [4 * math.pi, 30.0])
def test_evolve_grid_on_a_uniform_grid_matches_the_unfactored_table(t_max, points):
    # the T x K phases of a uniform grid are the product of two tables of
    # about sqrt(T) x K; the states agree with the full table exp(-i t w)
    rng = np.random.default_rng(points)
    h = _random_hermitian(rng, 16)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    times = np.linspace(0.0, t_max, points)
    assert sv.grid_factors(times.tobytes())[1][0].size == math.isqrt(points - 1) + 1
    states = sv.evolve_grid(h, times, sv.StateVector(4, psi))
    assert np.max(np.abs(states - _full_eigh_evolution(h.matrix, times, psi))) <= 1e-13


def test_grid_factors_split_each_grid_by_its_own_points():
    uniform = np.linspace(0.0, 10.0, 400)
    (coarse, coarse_step), (fine, fine_step) = sv.grid_factors(uniform.tobytes())
    assert np.array_equal(coarse, uniform[::20]) and np.array_equal(fine, uniform[:20])
    assert coarse_step == uniform[20] and fine_step == uniform[1]
    # a two-point grid's coarse table holds one time, and so has no spacing
    assert sv.grid_factors(uniform[:2].tobytes())[0][1] is None
    # the same size and end points with other interior points: not uniform,
    # so the grid is whole with the one fine time 0 and no spacings
    bent = uniform.copy()
    bent[1:-1] += 1e-3 * np.sin(np.arange(1, 399))
    uneven = np.sort(np.random.default_rng(0).uniform(0.0, 10.0, 400))
    uneven[[0, -1]] = 0.0, 10.0
    for grid in (bent, uneven):
        (coarse, coarse_step), (fine, fine_step) = sv.grid_factors(grid.tobytes())
        assert np.array_equal(coarse, grid) and np.array_equal(fine, [0.0])
        assert coarse_step is None and fine_step is None
    # memoized by content: asking again returns the first grid's own split,
    # as arrays no caller can write
    (coarse, _), (fine, _) = sv.grid_factors(uniform.tobytes())
    assert np.array_equal(coarse, uniform[::20]) and np.array_equal(fine, uniform[:20])
    for grid in (uniform, bent):
        for part, _ in sv.grid_factors(grid.tobytes()):
            assert not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1.0
