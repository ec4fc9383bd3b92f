"""Dense state-vector simulation of Grover search, its effective two-level
Hamiltonian, coherent detuning errors, and stabilization by balanced-weight
error-avoiding codes."""

from .statevec import (DenseOperator, StateVector, basis_state, embed_single_qubit,
                       evolve_grid)
from .gates import (cnot, h_tilde, hadamard, oracle, pauli, phase_inversion,
                    phase_inversion_via_oracle, walsh_hadamard)
from .grover import (GroverInstance, OptimalIterations, apply_step,
                     grover_step, optimal_iterations, rotation_angle,
                     run_grover, step_iterates, success_amplitude,
                     success_probabilities, success_probability,
                     two_level_matrix)
from .hamiltonian import (DetuningProfile, GroverHamiltonian, detuning_diagonal,
                          evolve_with_errors, grover_hamiltonian, trotter_error)
from .dfs import (BalancedCode, ErrorFreeCertificate, balanced_code,
                  code_dimension, code_mixing_norm, collective_z, encode,
                  hamming_bound_logical, logical_hadamard_2phys,
                  logical_qubit_count, redundancy_gap, verify_error_free)
from .experiments import (RunResult, cli_run, code_size_table,
                          encoded_grover_evolution, fig2_amplitudes,
                          monte_carlo_sweep, unencoded_detuned_evolution)

__version__ = "0.1.0"
