import itertools

import numpy as np
import pytest
from hypothesis import settings

import qcsim
from qcsim import pauli

# Property tests draw the same examples on every run and are not timed out
# by a slow or shared host.
settings.register_profile("qcsim", derandomize=True, deadline=None)
settings.load_profile("qcsim")

H2_HAMILTONIAN_TEXT = """\
# two-qubit H2 Hamiltonian, energies in Hartree
0.2976
0.3593 Z0
-0.4826 Z1
0.5818 Z0 Z1
0.0896 X0 X1
0.0896 Y0 Y1
"""


@pytest.fixture(scope="session")
def h2():
    return pauli.parse_hamiltonian(H2_HAMILTONIAN_TEXT)


@pytest.fixture(scope="session")
def h2_eigensystem(h2):
    """Exact-diagonalization oracle: (eigenvalues ascending, eigenvectors)."""
    matrix = pauli.to_matrix(h2, 2)
    return np.linalg.eigh(matrix)


@pytest.fixture()
def exact_accelerator():
    return qcsim.get_accelerator("statevector", {"shots": 0})


@pytest.fixture()
def hf_circuit_2q():
    """|10>: the 2-qubit reference determinant used throughout."""
    circuit = qcsim.create_composite("kernel")
    circuit.add(qcsim.create_instruction("X", [0]))
    return circuit


@pytest.fixture()
def pair_rotation_ansatz(hf_circuit_2q):
    """X(q0) followed by the one-parameter pair-rotation generator."""
    from qcsim import ansatz, fermion

    ((occ, virt),) = fermion.excitation_modes(1, 2, spin_preserving=False)
    image = fermion.ExcitationOperator(occ, virt).image()
    generator = image - image.dagger()
    circuit = qcsim.create_composite("pair")
    circuit.add_all(hf_circuit_2q.children)
    circuit.add_all(ansatz.exp_pauli(generator, "t0").children)
    return circuit


@pytest.fixture(scope="session")
def hubbard_dimer():
    """Two-site Hubbard model, t = 1, U = 4: alpha modes on qubits 0-1,
    beta on 2-3; its N=2, Sz=0 spectrum is -0.8284, 0, 4, 4.8284."""
    ladder = qcsim.FermionOperator.ladder
    model = qcsim.FermionOperator()
    for a, b in ((0, 1), (2, 3)):
        model = model + ladder([(a, True), (b, False)], -1.0)
        model = model + ladder([(b, True), (a, False)], -1.0)
    for up, down in ((0, 2), (1, 3)):
        model = model + ladder([(up, True), (up, False), (down, True), (down, False)], 4.0)
    return qcsim.jordan_wigner(model, 4)


@pytest.fixture(scope="session")
def hubbard_dimer_mo():
    """The same dimer in its bonding (b) and antibonding (a) orbitals,
    c_0 = (b + a)/sqrt2 and c_1 = (b - a)/sqrt2: b on qubits 0 (alpha) and
    2 (beta), a on 1 and 3.  Hopping becomes -t n_b + t n_a per spin, and
    U n_0up n_0dn + U n_1up n_1dn keeps the (U/2) p+ q r+ s terms with an
    even number of antibonding indices.  |1010> is then the Hartree-Fock
    determinant, with <H> = 0."""
    ladder = qcsim.FermionOperator.ladder
    model = qcsim.FermionOperator()
    for b, a in ((0, 1), (2, 3)):
        model = model + ladder([(b, True), (b, False)], -1.0) + ladder([(a, True), (a, False)], 1.0)
    for p, q, r, s in itertools.product((0, 1), repeat=4):
        if (p + q + r + s) % 2 == 0:
            model = model + ladder([(p, True), (q, False), (2 + r, True), (2 + s, False)], 2.0)
    return qcsim.jordan_wigner(model, 4)


def _hubbard_chain(sites, onsite_u=4.0):
    """Open Hubbard chain, t = 1: alpha modes on qubits 0..sites-1, beta
    on the second half."""
    ladder = qcsim.FermionOperator.ladder
    model = qcsim.FermionOperator()
    for spin in range(2):
        for i in range(sites - 1):
            a, b = spin * sites + i, spin * sites + i + 1
            model = model + ladder([(a, True), (b, False)], -1.0)
            model = model + ladder([(b, True), (a, False)], -1.0)
    for i in range(sites):
        model = model + ladder([(i, True), (i, False), (sites + i, True), (sites + i, False)], onsite_u)
    return qcsim.jordan_wigner(model, 2 * sites)


@pytest.fixture(scope="session")
def hubbard_chain():
    """The Hubbard chain builder (a function of the number of sites)."""
    return _hubbard_chain


def _sector_eigh(op, n_qubits, n_electrons, sz=0.0):
    """Exact diagonalization on the basis states holding ``n_electrons``
    with spin projection ``sz`` (``None`` keeps every Sz).

    Alpha spin-orbitals are the first half of the register; qubit 0 is the
    most significant bit of a basis index, as in ``pauli.to_matrix``.
    Returns (eigenvalues ascending, eigenvectors, basis indices).
    """
    half = n_qubits // 2
    keep = []
    for index in range(2**n_qubits):
        occupied = [(index >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        n_alpha, n_beta = sum(occupied[:half]), sum(occupied[half:])
        if n_alpha + n_beta == n_electrons and (sz is None or n_alpha - n_beta == 2 * sz):
            keep.append(index)
    matrix = pauli.to_matrix(op, n_qubits)[np.ix_(keep, keep)]
    values, vectors = np.linalg.eigh(matrix)
    return values, vectors, keep


@pytest.fixture(scope="session")
def sector_eigh():
    """The sector-restricted exact-diagonalization oracle (a function)."""
    return _sector_eigh
