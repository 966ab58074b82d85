"""Excitation spectra from the quantum equation-of-motion method.

Over a prepared (approximate) ground state |psi>, the particle-conserving
single/double excitation operators O_u and their adjoints span the
excitation/de-excitation manifold.  The commutator matrix elements

    M_uv = <[O_u†, [H, O_v ]]>      Q_uv = -<[O_u†, [H, O_v†]]>
    V_uv = <[O_u†, O_v ]>           W_uv = -<[O_u†, O_v†]>

are each measured as Pauli expectations and assembled into the response
pencil

    [[M, Q], [Q*, M*]] x = E [[V, W], [-W*, -V*]] x

whose positive roots are the excitation energies.  De-excitation blocks
are kept because dropping them biases the energies whenever O_u†|psi>
does not annihilate (the single-block double-commutator pencil is
measurably off even at the exact ground state).
"""
from __future__ import annotations

import numpy as np

from ..ansatz import excitation_label
from ..backend import AcceleratorBuffer
from ..errors import AlgorithmError
from ..fermion import (
    double_excitations,
    excitation_term,
    jordan_wigner,
    single_excitations,
)
from ..linalg import indefinite_generalized_eig
from ..pauli import PauliOperator, commutator
from .base import Algorithm

_POSITIVE_ROOT_CUTOFF = 1e-8


def excitation_basis(n_electrons: int, n_qubits: int) -> list[tuple[str, PauliOperator]]:
    """JW images of all particle-conserving single and double excitations."""
    ops = []
    pairs = sorted(single_excitations(n_electrons, n_qubits, spin_preserving=False))
    pairs += sorted(double_excitations(n_electrons, n_qubits, sz_preserving=False))
    for occ, virt in pairs:
        image = jordan_wigner(excitation_term(occ, virt), n_qubits)
        if not image.is_zero():
            ops.append((excitation_label(occ, virt), image))
    return ops


def eom_pencil(
    observable: PauliOperator,
    operators: list[PauliOperator],
    state_expectation,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (Hermitized) doubled response pencil (A, B)."""
    dim = len(operators)
    m = np.zeros((dim, dim), dtype=complex)
    q = np.zeros((dim, dim), dtype=complex)
    v = np.zeros((dim, dim), dtype=complex)
    w = np.zeros((dim, dim), dtype=complex)
    daggers = [op.dagger() for op in operators]
    h_comms = [commutator(observable, op) for op in operators]
    h_comms_dag = [commutator(observable, op) for op in daggers]
    for i in range(dim):
        for j in range(dim):
            m[i, j] = state_expectation(commutator(daggers[i], h_comms[j]))
            q[i, j] = -state_expectation(commutator(daggers[i], h_comms_dag[j]))
            v[i, j] = state_expectation(commutator(daggers[i], operators[j]))
            w[i, j] = -state_expectation(commutator(daggers[i], daggers[j]))
    a = np.block([[m, q], [q.conj(), m.conj()]])
    b = np.block([[v, w], [-w.conj(), -v.conj()]])
    a = 0.5 * (a + a.conj().T)
    b = 0.5 * (b + b.conj().T)
    return a, b


class QEOM(Algorithm):
    algorithm_name = "qeom"
    required_keys = ("ansatz", "accelerator", "observable", "n-electrons")

    def _validate(self):
        if not self.options.get_composite("ansatz").is_concrete:
            raise AlgorithmError("qeom needs a concrete (prepared) ansatz")

    def _execute(self, buffer: AcceleratorBuffer) -> None:
        observable = self.options.get_observable("observable")
        accelerator = self.options.get_accelerator("accelerator")
        ansatz = self.options.get_composite("ansatz")
        n_electrons = self.options.get_int("n-electrons")
        threshold = self.options.get_or("overlap-threshold", "real", 1e-10)
        if not observable.is_hermitian():
            raise AlgorithmError("qeom needs a Hermitian observable")

        n_qubits = max(observable.n_qubits(), ansatz.max_qubit() + 1, buffer.size)
        if n_qubits % 2:
            n_qubits += 1
        basis = excitation_basis(n_electrons, n_qubits)
        if not basis:
            raise AlgorithmError(
                f"no particle-conserving excitations for ne={n_electrons}, "
                f"nq={n_qubits}"
            )

        state = accelerator.prepare(ansatz, n_qubits)
        a, b = eom_pencil(observable, [op for _, op in basis], state.expect)
        if np.abs(b).max(initial=0.0) < threshold:
            raise AlgorithmError("all-singular overlap matrix; basis is dead")
        values, rank = indefinite_generalized_eig(a, b, threshold)
        excitations = [float(e) for e in values if e > _POSITIVE_ROOT_CUTOFF]

        buffer.metadata.insert("ground-energy", state.expect(observable).real)
        buffer.metadata.insert("excitation-energies", excitations)
        buffer.metadata.insert("qeom-matrix-rank", rank)
