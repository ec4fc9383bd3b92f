"""Error-avoiding codes from balanced bit strings.

Basis states with equally many zeros and ones are annihilated by the
equal-detuning error operator sum_i sigma_z^(i) (the +1 and -1 eigenvalues
cancel), so any superposition of them evolves as if the error were absent.
Quantum information is encoded through an isometry onto the first 2^l
balanced states.  Gates must not mix the code span with its complement;
for two physical qubits, CNOT (1 x h_tilde) CNOT realizes a logical
Hadamard that leaves the code span exactly, even though its middle factor
alone does not.
"""
import numpy as np

from groverdfs import (DetuningProfile, balanced_code, code_mixing_norm, collective_z,
                       detuning_diagonal, encode, h_tilde, logical_hadamard_2phys,
                       verify_error_free)
from groverdfs.statevec import basis_state, embed_single_qubit

np.set_printoptions(precision=4, suppress=True)

code = balanced_code(4)
print(f"four physical qubits: balanced states {[format(b, '04b') for b in code.basis_states]}")
print(f"subspace dimension {code.dimension}, logical qubits {code.logical_qubits}, "
      f"code words {[format(b, '04b') for b in code.code_indices]}\n")

cert = verify_error_free(code, collective_z(4, omega=1.0))
print(f"equal detunings:   eigenvalue {cert.eigenvalue:+.1f}, "
      f"residual {cert.residual_norm:.1e} -> certificate valid: {cert.is_valid}")

uneven = detuning_diagonal(DetuningProfile((1.0, 2.0, 3.0, 4.0), scale=1.0), 4)
cert = verify_error_free(code, uneven)
print(f"unequal detunings: eigenvalue {cert.eigenvalue:+.1f}, "
      f"residual {cert.residual_norm:.1e} -> certificate valid: {cert.is_valid}")
print("(code words pick up different phases, so no common eigenvalue exists)\n")

print("encoding two logical qubits:")
for x in range(4):
    phys = encode(code, basis_state(2, x))
    b = int(np.flatnonzero(phys.amplitudes)[0])
    print(f"  logical |{format(x, '02b')}>  ->  physical |{format(b, '04b')}>")

lh = logical_hadamard_2phys()
two = balanced_code(2)
print("\nlogical Hadamard on the two-qubit code {|01>, |10>}:")
print("  " + np.array2string(lh.matrix.real, prefix="  "))
print(f"code/complement mixing of the full product : {code_mixing_norm(lh, two)}")
middle = embed_single_qubit(h_tilde(), 2, 2)
print(f"code/complement mixing of the middle factor: {code_mixing_norm(middle, two):.4f}")
print("the sandwiching CNOTs undo the temporary excursion out of the code span")
